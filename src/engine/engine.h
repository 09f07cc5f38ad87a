// Inference engine: a genuinely-executing miniature LMM runtime.
//
// Supports the three inference modes of §4.4:
//   kMerged   — one adapter's ΔW lives inside the base weights; zero extra
//               compute, but every sequence in the batch must use that adapter.
//   kUnmerged — base weights are clean; each sequence's adapter contributes
//               through the batched bypass operator (Fig 2(a)).
//   kMixture  — the hottest adapter stays merged while other sequences run
//               their own adapter plus a negative "deLoRA" branch of the
//               merged adapter, cancelling its contamination (§4.4.2):
//                 y = x(W_merged) + LoRA_x(x) - deLoRA_1(x)
//                   = x(W_base + ΔW_x)
//
// Scheduling is iteration-level (Orca-style continuous batching): every
// Step() advances all running sequences by one phase (their whole prompt for
// prefill-stage sequences, one token for decode-stage ones) in a single
// fused batch. Prompt KV is reused across requests whose block-aligned prefix
// (and adapter) match — the repeated-image path of §5.

#ifndef VLORA_SRC_ENGINE_ENGINE_H_
#define VLORA_SRC_ENGINE_ENGINE_H_

#include <deque>
#include <memory>
#include <vector>

#include "src/common/infer_mode.h"
#include "src/engine/kv_cache.h"
#include "src/engine/kv_handle.h"
#include "src/engine/model.h"
#include "src/engine/model_config.h"
#include "src/kernels/lora_ops.h"
#include "src/kernels/transformer_ops.h"
#include "src/lora/adapter.h"
#include "src/lora/merge.h"

namespace vlora {

// Next-token selection. temperature == 0 is greedy argmax (deterministic);
// temperature > 0 samples from the softmax over the top_k logits using a
// per-request deterministic stream (seed, request id, step).
struct SamplingParams {
  float temperature = 0.0f;
  int top_k = 40;
  uint64_t seed = 0;
};

// Visual embeddings injected into a span of prompt slots (the vision tower's
// output). The prompt tokens covered by the span are content surrogates —
// arbitrary int32 hashes of the embedding rows — used only for KV prefix
// hashing; their embedding-table lookups are bypassed.
struct InjectedEmbeddings {
  int64_t position = 0;  // first prompt slot covered
  Tensor embeddings;     // (count x d_model)

  int64_t count() const { return embeddings.shape().dim(0); }
};

struct EngineRequest {
  int64_t id = 0;
  std::vector<int32_t> prompt_tokens;
  int adapter_id = -1;       // index into the engine's adapter list; -1 = base
  int max_new_tokens = 8;
  bool use_task_head = false;  // resolve via the adapter's vision task head
  int32_t eos_token = 1;
  SamplingParams sampling;
  // Capture the final-layer hidden state of the last prompt token into
  // EngineResult::final_hidden — the feature the task-head trainer fits on.
  bool capture_final_hidden = false;
  // Non-overlapping, within the prompt; see InjectedEmbeddings.
  std::vector<InjectedEmbeddings> injected;
  // Disaggregated serving (src/cluster disagg mode). prefill_only stops the
  // sequence after its prefill step and returns a KvHandle instead of
  // decoding; resume_handle restores that state into a fresh engine, which
  // then decodes as if it had run the prefill itself. Mutually exclusive.
  bool prefill_only = false;
  std::shared_ptr<KvHandle> resume_handle;
};

struct EngineResult {
  int64_t request_id = 0;
  std::vector<int32_t> output_tokens;
  int head_option = -1;       // argmax option when use_task_head
  int64_t prefill_tokens = 0;  // tokens actually prefilled (after prefix reuse)
  int64_t reused_tokens = 0;   // prompt tokens satisfied from shared KV blocks
  int64_t decode_steps = 0;
  std::vector<float> final_hidden;  // only if capture_final_hidden
  // Set only for prefill_only requests that ran their prefill step: the
  // exported KV state the decode pool resumes from. Null on normal results.
  std::shared_ptr<KvHandle> handle;
};

struct EngineOptions {
  int64_t kv_block_size = 16;
  int64_t kv_num_blocks = 512;
  uint64_t seed = 42;
};

class InferenceEngine {
 public:
  InferenceEngine(const ModelConfig& config, const EngineOptions& options = {});

  const ModelConfig& config() const { return config_; }
  const KvBlockManager& kv() const { return *kv_; }
  AtmmDispatcher& atmm() { return atmm_; }
  // Mutable access for offline fine-tuning (LoraTrainer); the engine must be
  // idle and no adapter merged while weights are read for training.
  TransformerModel& model() { return model_; }

  // Adapters are owned by the caller (typically an AdapterManager) and must
  // outlive the engine. Returns the engine-local adapter id.
  int RegisterAdapter(const LoraAdapter* adapter);
  int num_adapters() const { return static_cast<int>(adapters_.size()); }

  // Switches inference mode; merging/unmerging goes through the swift
  // switcher. merged_adapter must be a registered id in kMerged/kMixture.
  void SetMode(InferMode mode, int merged_adapter = -1);
  InferMode mode() const { return mode_; }
  int merged_adapter() const { return merged_adapter_; }
  int64_t mode_switch_count() const { return mode_switch_count_; }

  // Enqueues a request; it joins the running batch at the next Step().
  void Submit(EngineRequest request);

  // One continuous-batching iteration over every unfinished sequence.
  // Returns requests that finished.
  std::vector<EngineResult> Step();

  // Iteration over only the sequences whose request ids appear in
  // `request_ids` — the hook the orchestrator uses to impose Algorithm 1's
  // per-iteration batch selection. Unselected sequences keep their KV and
  // simply wait.
  std::vector<EngineResult> StepSelected(const std::vector<int64_t>& request_ids);

  // Snapshot of unfinished sequences for the orchestrator.
  struct QueueEntry {
    int64_t request_id = 0;
    int adapter_id = -1;
    bool prefilled = false;
    int64_t prompt_tokens = 0;
    int64_t remaining_new_tokens = 0;
    bool use_task_head = false;
  };
  std::vector<QueueEntry> Queue() const;

  bool HasWork() const;

  // Number of recomputation preemptions performed (a sequence evicted from
  // the KV cache under memory pressure and later re-prefilled, vLLM-style).
  int64_t preemption_count() const { return preemption_count_; }

  // Convenience: submit + run until this request completes (other queued work
  // advances too; only this request's result is returned).
  EngineResult RunToCompletion(EngineRequest request);

 private:
  struct Sequence {
    EngineRequest request;
    SequenceCache cache;
    std::vector<int32_t> tokens;  // prompt + generated
    int64_t computed = 0;         // tokens whose KV exists (incl. reused)
    int64_t reused = 0;
    int64_t generated = 0;
    bool prefilled = false;
    bool finished = false;
    int head_option = -1;
    std::vector<float> captured_hidden;
  };

  // Appends KV rows for `count` tokens of `seq` starting at cache position
  // `pos`, from the projected k/v row-major buffers.
  void AppendKv(Sequence& seq, int layer, int64_t pos, const float* k_rows, const float* v_rows,
                int64_t count);

  // Runs the transformer over the concatenated current-token batch, returning
  // final hidden states (rows aligned with the input rows) in scratch_, valid
  // until the next Forward.
  const float* Forward(std::vector<Sequence*>& batch, const std::vector<int64_t>& row_offsets,
                       const std::vector<int64_t>& row_counts);

  std::vector<EngineResult> StepImpl(const std::vector<int64_t>* request_ids);

  // Attempts block-aligned prefix reuse for a freshly admitted sequence.
  void TryPrefixReuse(Sequence& seq);
  // Restores a decode-stage sequence from its request's resume_handle:
  // allocates private blocks, copies the pages in, and rebuilds the token /
  // prefill bookkeeping so the next Forward chunk is the first decode token.
  // Returns false when block capacity is unavailable this round.
  bool RestoreFromHandle(Sequence& seq, const std::vector<Sequence*>& protected_set);
  // Builds the handoff result for a prefill_only sequence that just finished
  // its prefill step (whole-block page copies + bookkeeping) and releases the
  // sequence's cache.
  EngineResult ExportHandoff(Sequence& seq);
  // Ensures the sequence has cache capacity for `needed` total tokens,
  // preempting other sequences (youngest-first, recompute on resume) if the
  // block pool runs dry. Sequences in `protected_set` are never preempted.
  bool EnsureCapacity(Sequence& seq, int64_t needed,
                      const std::vector<Sequence*>& protected_set);
  // Evicts one preemptable sequence's KV; returns false if none exists.
  bool PreemptOne(const Sequence& requester, const std::vector<Sequence*>& protected_set);
  void ReleaseSequence(Sequence& seq);

  // Next token from the sequence's vocab-wide logits row, honouring the
  // request's sampling parameters.
  int32_t SampleToken(const Sequence& seq, const float* logits);
  int ResolveTaskHead(const Sequence& seq, const float* hidden);

  ModelConfig config_;
  Rng rng_;
  TransformerModel model_;
  std::unique_ptr<KvBlockManager> kv_;
  AtmmDispatcher atmm_;
  SwiftSwitcher switcher_;
  ModelMergeTargets merge_targets_;
  std::vector<const LoraAdapter*> adapters_;

  InferMode mode_ = InferMode::kUnmerged;
  int merged_adapter_ = -1;
  int64_t mode_switch_count_ = 0;
  int64_t preemption_count_ = 0;

  std::deque<Sequence> sequences_;
  std::unique_ptr<AtmmLoraOperator> lora_op_;
  // Attention spans over one sequence's KV blocks; pool-sized, never grown.
  std::vector<KvSpan> kv_spans_;
  // Position rows up to max_seq_len, filled as positions are first reached.
  PositionEmbeddingTable positions_;
  // Per-step buffers, grown to the largest step seen so that a steady-state
  // step allocates none: Forward's activations (rows x width), the LM head's
  // input rows and logits (one row per sampling sequence), and top-k
  // sampling's candidate order and weights.
  struct StepScratch {
    Tensor x, normed, q, k, v, attn, proj, mlp_mid, mlp_out;
    Tensor head_in, logits;
    std::vector<int32_t> order;
    std::vector<double> weights;
  };
  StepScratch scratch_;
};

}  // namespace vlora

#endif  // VLORA_SRC_ENGINE_ENGINE_H_
