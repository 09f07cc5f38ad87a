#include "src/engine/engine.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <numeric>

#include "src/common/logging.h"
#include "src/common/trace.h"

namespace vlora {

namespace {

uint64_t AdapterChainSeed(int adapter_id) {
  return 0x5EEDull * static_cast<uint64_t>(adapter_id + 2);
}

// The first `rows` rows of `buffer` as a rows x cols view; `buffer` is
// reallocated (contents undefined) only when it has fewer rows.
Tensor ScratchRows(Tensor& buffer, int64_t rows, int64_t cols) {
  if (buffer.empty() || buffer.shape().dim(0) < rows) {
    buffer = Tensor(Shape(rows, cols));
  }
  return buffer.RowSlice(0, rows);
}

// A step splits only when every thread gets at least this many rows: one
// HeuristicConfig row block (mc is 64 from m = 64 up). At the floor the
// split still pays: a 128-row SmallConfig merged prefill step took 1.87 ms
// on 2 threads against 2.26 ms on one, and 392 rows 8.2 against 14.8 ms
// (bench_ablation_parallel_tiles, 4-vCPU AVX-512 host). Decode batches (at
// most 8 rows) and short prefills stay on one thread.
//
// Each logical GEMM's KernelDispatch event carries the whole GEMM's m and
// tile. A chunk computes with its own rows' tile, which is the same only
// while the chunk has 64 to 1023 rows and cuts no LoRA segment: a step of
// 1024 rows or more announces mc = 256, and a segment piece of 4 rows or
// fewer runs mr = 4. The bits never depend on it, since kc reads k alone.
constexpr int64_t kMinRowsPerThread = 64;

}  // namespace

std::vector<std::unique_ptr<InferenceEngine::Lane>> InferenceEngine::MakeLanes(
    const EngineOptions& options) {
  VLORA_CHECK(options.compute_threads >= 1 && options.compute_threads <= kMaxComputeThreads);
  std::vector<std::unique_ptr<Lane>> lanes;
  for (int w = 0; w < options.compute_threads; ++w) {
    lanes.push_back(std::make_unique<Lane>(options.kv_num_blocks));
  }
  return lanes;
}

InferenceEngine::InferenceEngine(const ModelConfig& config, const EngineOptions& options)
    : config_(config),
      rng_(options.seed),
      model_(config, rng_),
      kv_(std::make_unique<KvBlockManager>(config, options.kv_block_size, options.kv_num_blocks)),
      lanes_(MakeLanes(options)),
      switcher_(&lanes_[0]->atmm),
      merge_targets_(model_.MergeTargets()),
      positions_(config.d_model, config.max_seq_len),
      group_(options.compute_threads) {
  // Attention covers num_heads * d_head columns; a remainder would stay zero.
  VLORA_CHECK(config.num_heads > 0 && config.d_model % config.num_heads == 0);
  // The final norm runs in the last layer's last phase.
  VLORA_CHECK(config.num_layers >= 1);
}

int InferenceEngine::RegisterAdapter(const LoraAdapter* adapter) {
  VLORA_CHECK(adapter != nullptr);
  VLORA_CHECK(adapter->num_layers() == config_.num_layers);
  VLORA_CHECK(adapter->d_model() == config_.d_model);
  adapters_.push_back(adapter);
  return static_cast<int>(adapters_.size()) - 1;
}

void InferenceEngine::SetMode(InferMode mode, int merged_adapter) {
  if (mode == InferMode::kUnmerged) {
    merged_adapter = -1;
  } else {
    VLORA_CHECK(merged_adapter >= 0 && merged_adapter < num_adapters());
  }
  if (mode == mode_ && merged_adapter == merged_adapter_) {
    return;
  }
  const LoraAdapter* from =
      merged_adapter_ >= 0 ? adapters_[static_cast<size_t>(merged_adapter_)] : nullptr;
  const LoraAdapter* to =
      merged_adapter >= 0 ? adapters_[static_cast<size_t>(merged_adapter)] : nullptr;
  if (from != to) {
    switcher_.Switch(from, to, merge_targets_);
  }
  mode_ = mode;
  merged_adapter_ = merged_adapter;
  ++mode_switch_count_;
}

void InferenceEngine::Submit(EngineRequest request) {
  VLORA_CHECK(!request.prompt_tokens.empty());
  VLORA_CHECK(request.adapter_id >= -1 && request.adapter_id < num_adapters());
  VLORA_CHECK(!(request.prefill_only && request.resume_handle != nullptr));
  if (request.use_task_head) {
    VLORA_CHECK(request.adapter_id >= 0);
    VLORA_CHECK(adapters_[static_cast<size_t>(request.adapter_id)]->task_head().has_value());
  }
  // Injected embedding spans must lie inside the prompt, not overlap, and
  // match the model width; every token outside a span must be a vocab id.
  const int64_t prompt_len = static_cast<int64_t>(request.prompt_tokens.size());
  std::vector<bool> covered(static_cast<size_t>(prompt_len), false);
  for (const InjectedEmbeddings& span : request.injected) {
    VLORA_CHECK(span.embeddings.shape().rank() == 2);
    VLORA_CHECK(span.embeddings.shape().dim(1) == config_.d_model);
    VLORA_CHECK(span.position >= 0 && span.position + span.count() <= prompt_len);
    for (int64_t i = span.position; i < span.position + span.count(); ++i) {
      VLORA_CHECK(!covered[static_cast<size_t>(i)]);
      covered[static_cast<size_t>(i)] = true;
    }
  }
  for (int64_t i = 0; i < prompt_len; ++i) {
    if (!covered[static_cast<size_t>(i)]) {
      VLORA_CHECK(request.prompt_tokens[static_cast<size_t>(i)] >= 0 &&
                  request.prompt_tokens[static_cast<size_t>(i)] < config_.vocab_size);
    }
  }
  Sequence seq;
  seq.tokens = request.prompt_tokens;
  seq.request = std::move(request);
  sequences_.push_back(std::move(seq));
}

bool InferenceEngine::HasWork() const {
  for (const Sequence& seq : sequences_) {
    if (!seq.finished) {
      return true;
    }
  }
  return false;
}

void InferenceEngine::TryPrefixReuse(Sequence& seq) {
  const int64_t block = kv_->block_size();
  const int64_t prompt_len = static_cast<int64_t>(seq.request.prompt_tokens.size());
  uint64_t chain = AdapterChainSeed(seq.request.adapter_id);
  int64_t pos = 0;
  // Reuse whole blocks, but always leave at least one prompt token to prefill
  // so the sampler has a fresh final hidden state.
  while (pos + block <= prompt_len - 1) {
    chain = KvBlockManager::ChainHash(chain, seq.request.prompt_tokens.data() + pos, block);
    const int64_t shared = kv_->LookupPrefixBlock(chain);
    if (shared < 0) {
      break;
    }
    kv_->AddRef(shared);
    seq.cache.blocks.push_back(shared);
    seq.cache.chain_hash = chain;
    pos += block;
  }
  seq.computed = pos;
  seq.reused = pos;
  seq.cache.length = pos;
}

bool InferenceEngine::RestoreFromHandle(Sequence& seq,
                                        const std::vector<Sequence*>& protected_set) {
  const KvHandle& handle = *seq.request.resume_handle;
  const int64_t block = kv_->block_size();
  VLORA_CHECK(handle.block_size == block);
  VLORA_CHECK(handle.computed > 0 && handle.generated > 0);
  VLORA_CHECK(static_cast<int64_t>(handle.pages.size()) == (handle.computed + block - 1) / block);
  VLORA_CHECK(static_cast<int64_t>(handle.tokens.size()) == handle.computed + handle.generated);
  if (!EnsureCapacity(seq, handle.computed, protected_set)) {
    return false;
  }
  const int64_t floats = kv_->FloatsPerBlock();
  for (const KvPage& page : handle.pages) {
    VLORA_CHECK(page.index >= 0 &&
                page.index < static_cast<int64_t>(seq.cache.blocks.size()));
    VLORA_CHECK(static_cast<int64_t>(page.data.size()) == floats);
    std::memcpy(kv_->BlockData(seq.cache.blocks[static_cast<size_t>(page.index)]),
                page.data.data(), static_cast<size_t>(floats) * sizeof(float));
  }
  seq.tokens = handle.tokens;
  seq.computed = handle.computed;
  seq.reused = handle.reused;
  seq.generated = handle.generated;
  seq.captured_hidden = handle.captured_hidden;
  seq.cache.length = handle.computed;
  seq.prefilled = true;
  // Consumed: a later recompute-preemption of this sequence falls back to
  // the ordinary full re-prefill path, which is bitwise-equivalent.
  seq.request.resume_handle = nullptr;
  return true;
}

EngineResult InferenceEngine::ExportHandoff(Sequence& seq) {
  const int64_t block = kv_->block_size();
  const int64_t prompt_len = static_cast<int64_t>(seq.request.prompt_tokens.size());
  EngineResult result;
  result.request_id = seq.request.id;
  result.prefill_tokens = prompt_len - seq.reused;
  result.reused_tokens = seq.reused;
  result.decode_steps = seq.generated;
  auto handle = std::make_shared<KvHandle>();
  handle->request_id = seq.request.id;
  handle->tokens = seq.tokens;
  handle->computed = seq.computed;
  handle->reused = seq.reused;
  handle->generated = seq.generated;
  handle->block_size = block;
  handle->captured_hidden = seq.captured_hidden;
  const int64_t floats = kv_->FloatsPerBlock();
  const int64_t num_pages = (seq.computed + block - 1) / block;
  handle->pages.reserve(static_cast<size_t>(num_pages));
  for (int64_t p = 0; p < num_pages; ++p) {
    KvPage page;
    page.index = p;
    const float* src = kv_->BlockData(seq.cache.blocks[static_cast<size_t>(p)]);
    page.data.assign(src, src + floats);
    handle->pages.push_back(std::move(page));
  }
  result.handle = std::move(handle);
  ReleaseSequence(seq);
  return result;
}

bool InferenceEngine::PreemptOne(const Sequence& requester,
                                 const std::vector<Sequence*>& protected_set) {
  // Youngest-first recomputation preemption: the most recently submitted
  // unfinished sequence with cache blocks (other than the requester and the
  // current batch) loses its KV and re-prefills when rescheduled.
  for (auto it = sequences_.rbegin(); it != sequences_.rend(); ++it) {
    Sequence& victim = *it;
    if (victim.finished || &victim == &requester || victim.cache.blocks.empty()) {
      continue;
    }
    if (std::find(protected_set.begin(), protected_set.end(), &victim) !=
        protected_set.end()) {
      continue;
    }
    ReleaseSequence(victim);
    victim.cache = SequenceCache{};
    victim.computed = 0;
    victim.reused = 0;
    victim.prefilled = false;
    ++preemption_count_;
    return true;
  }
  return false;
}

bool InferenceEngine::EnsureCapacity(Sequence& seq, int64_t needed,
                                     const std::vector<Sequence*>& protected_set) {
  while (seq.cache.CapacityTokens(kv_->block_size()) < needed) {
    const int64_t id = kv_->AllocateBlock();
    if (id < 0) {
      if (!PreemptOne(seq, protected_set)) {
        return false;
      }
      continue;
    }
    seq.cache.blocks.push_back(id);
  }
  return true;
}

void InferenceEngine::ReleaseSequence(Sequence& seq) {
  for (int64_t block : seq.cache.blocks) {
    kv_->Release(block);
  }
  seq.cache.blocks.clear();
}

void InferenceEngine::AppendKv(Sequence& seq, int layer, int64_t pos, const float* k_rows,
                               const float* v_rows, int64_t count) {
  const int64_t block = kv_->block_size();
  const int64_t d = config_.d_model;
  for (int64_t t = 0; t < count; ++t) {
    const int64_t abs_pos = pos + t;
    const int64_t block_index = abs_pos / block;
    const int64_t in_block = abs_pos % block;
    const int64_t block_id = seq.cache.blocks[static_cast<size_t>(block_index)];
    // Shared blocks are full prompt blocks and never written again.
    VLORA_CHECK(kv_->RefCount(block_id) == 1 || abs_pos < seq.reused);
    WriteKeyRow(k_rows + t * d, d, block, in_block, kv_->KPtr(block_id, layer));
    std::memcpy(kv_->VPtr(block_id, layer) + in_block * d, v_rows + t * d,
                static_cast<size_t>(d) * sizeof(float));
  }
}

const float* InferenceEngine::Forward(std::vector<Sequence*>& batch,
                                      const std::vector<int64_t>& row_offsets,
                                      const std::vector<int64_t>& row_counts) {
  const int64_t d = config_.d_model;
  const int64_t d_head = config_.d_head();
  const int64_t ff = config_.d_ff;
  int64_t total_rows = 0;
  for (int64_t count : row_counts) {
    total_rows += count;
  }
  VLORA_CHECK(total_rows > 0);

  // Embedding + positions. Prompt slots covered by injected visual
  // embeddings bypass the table lookup. Every row below is written in full
  // (the GEMM outputs are zeroed before each accumulation).
  Tensor x = ScratchRows(scratch_.x, total_rows, d);
  for (size_t s = 0; s < batch.size(); ++s) {
    Sequence& seq = *batch[s];
    for (int64_t t = 0; t < row_counts[s]; ++t) {
      const int64_t abs_pos = seq.computed + t;
      float* row = x.data() + (row_offsets[s] + t) * d;
      const InjectedEmbeddings* span = nullptr;
      for (const InjectedEmbeddings& candidate : seq.request.injected) {
        if (abs_pos >= candidate.position && abs_pos < candidate.position + candidate.count()) {
          span = &candidate;
          break;
        }
      }
      if (span != nullptr) {
        std::memcpy(row, span->embeddings.data() + (abs_pos - span->position) * d,
                    static_cast<size_t>(d) * sizeof(float));
      } else {
        const int32_t token = seq.tokens[static_cast<size_t>(abs_pos)];
        VLORA_CHECK(token >= 0 && token < config_.vocab_size);
        std::memcpy(row, model_.embedding().data() + token * d,
                    static_cast<size_t>(d) * sizeof(float));
      }
      positions_.Add(row, abs_pos);
    }
  }

  Tensor normed = ScratchRows(scratch_.normed, total_rows, d);
  Tensor q = ScratchRows(scratch_.q, total_rows, d);
  Tensor k = ScratchRows(scratch_.k, total_rows, d);
  Tensor v = ScratchRows(scratch_.v, total_rows, d);
  Tensor attn = ScratchRows(scratch_.attn, total_rows, d);
  Tensor proj = ScratchRows(scratch_.proj, total_rows, d);
  Tensor mlp_mid = ScratchRows(scratch_.mlp_mid, total_rows, ff);
  Tensor mlp_out = ScratchRows(scratch_.mlp_out, total_rows, d);

  // Per-target bypass plans; the adapter views are patched per layer below.
  // An adapter contributes a branch only for the projections it adapts.
  struct TargetPlan {
    std::vector<LoraSegment> segments;
    std::vector<std::pair<int, float>> entries;  // (adapter id, sign)
    std::vector<AdapterWeightsView> views;
  };
  std::array<TargetPlan, kAllLoraTargets.size()> plans;
  {
    auto add = [&](int id, float sign, int64_t row_begin, int64_t row_end) {
      const LoraAdapter* adapter = adapters_[static_cast<size_t>(id)];
      for (size_t t = 0; t < kAllLoraTargets.size(); ++t) {
        if (!adapter->HasTarget(kAllLoraTargets[t])) {
          continue;
        }
        plans[t].entries.emplace_back(id, sign);
        plans[t].segments.push_back(
            LoraSegment{row_begin, row_end, static_cast<int>(plans[t].entries.size()) - 1});
      }
    };
    for (size_t s = 0; s < batch.size(); ++s) {
      const int adapter_id = batch[s]->request.adapter_id;
      const int64_t row_begin = row_offsets[s];
      const int64_t row_end = row_offsets[s] + row_counts[s];
      switch (mode_) {
        case InferMode::kMerged:
          VLORA_CHECK(adapter_id == merged_adapter_);
          break;
        case InferMode::kUnmerged:
          if (adapter_id >= 0) {
            add(adapter_id, 1.0f, row_begin, row_end);
          }
          break;
        case InferMode::kMixture:
          if (adapter_id != merged_adapter_) {
            if (adapter_id >= 0) {
              add(adapter_id, 1.0f, row_begin, row_end);
            }
            add(merged_adapter_, -1.0f, row_begin, row_end);  // the deLoRA branch
          }
          break;
      }
    }
    for (TargetPlan& plan : plans) {
      ValidateSegments(plan.segments, total_rows, static_cast<int64_t>(plan.entries.size()));
      plan.views.resize(plan.entries.size());
    }
  }

  // Adds one target's bypass branches for rows [r0, r1) to output: each
  // segment's LoRA(input), clipped to the rows.
  auto run_bypass = [&](Lane& lane, size_t target_index, const Tensor& input, Tensor& output,
                        int64_t r0, int64_t r1) {
    const TargetPlan& plan = plans[target_index];
    if (!plan.segments.empty()) {
      lane.lora.ComputeRows(input.data(), plan.segments, plan.views, output.data(), d, r0, r1);
    }
  };

  // The step splits over `threads` threads when each gets kMinRowsPerThread
  // rows; thread count 1 runs every phase below inline, as one chunk. Chunk
  // c holds rows [chunk_begin(c), chunk_begin(c + 1)); an attention task is
  // one sequence's heads in one of `head_ranges` contiguous ranges.
  const int threads = static_cast<int>(
      std::clamp<int64_t>(total_rows / kMinRowsPerThread, 1, group_.size()));
  auto chunk_begin = [&](int64_t chunk) { return total_rows * chunk / threads; };
  const int64_t head_ranges = std::min<int64_t>(threads, config_.num_heads);
  const int64_t block = kv_->block_size();
  const KvBlockManager& kv = *kv_;

  for (int layer = 0; layer < config_.num_layers; ++layer) {
    const LayerWeights& w = model_.layer(layer);
    const bool last_layer = layer + 1 == config_.num_layers;
    for (size_t t = 0; t < plans.size(); ++t) {
      TargetPlan& plan = plans[t];
      for (size_t i = 0; i < plan.views.size(); ++i) {
        const auto& [adapter_id, sign] = plan.entries[i];
        plan.views[i] = adapters_[static_cast<size_t>(adapter_id)]->LayerView(kAllLoraTargets[t],
                                                                              layer);
        plan.views[i].scaling *= sign;
      }
    }

    // --- Attention ---
    // Every logical GEMM is announced once, here, with the step's rows; the
    // threads compute their chunks unannounced.
    for (int gemm = 0; gemm < 3; ++gemm) {
      AtmmDispatcher::Announce(total_rows, d, d);  // Wq, Wk, Wv
    }
    AtmmLoraOperator::Announce(plans[0].segments, plans[0].views, d);  // kWq
    AtmmLoraOperator::Announce(plans[1].segments, plans[1].views, d);  // kWv
    group_.Run(threads, threads, [&](int64_t chunk, int worker) {
      Lane& lane = *lanes_[static_cast<size_t>(worker)];
      const int64_t r0 = chunk_begin(chunk);
      const int64_t r1 = chunk_begin(chunk + 1);
      const int64_t rows = r1 - r0;
      RmsNormRows(x.data() + r0 * d, w.attn_norm.data(), normed.data() + r0 * d, rows, d);
      for (Tensor* out : {&q, &k, &v}) {
        std::fill_n(out->data() + r0 * d, rows * d, 0.0f);
      }
      lane.atmm.Compute(normed.data() + r0 * d, w.wq.data(), q.data() + r0 * d, rows, d, d);
      lane.atmm.Compute(normed.data() + r0 * d, w.wk.data(), k.data() + r0 * d, rows, d, d);
      lane.atmm.Compute(normed.data() + r0 * d, w.wv.data(), v.data() + r0 * d, rows, d, d);
      // Bypass branches for the adapted query/value projections must land
      // before the cache write and the attention compute.
      run_bypass(lane, 0, normed, q, r0, r1);  // kWq
      run_bypass(lane, 1, normed, v, r0, r1);  // kWv
    });

    // Append this chunk's K/V to every sequence's cache, then attend.
    for (size_t s = 0; s < batch.size(); ++s) {
      Sequence& seq = *batch[s];
      AppendKv(seq, layer, seq.computed, k.data() + row_offsets[s] * d,
               v.data() + row_offsets[s] * d, row_counts[s]);
    }

    // Attend in place over each sequence's KV blocks, one span per block;
    // heads [h0, h1) are columns [h0, h1) * d_head of q, the key panels, V
    // and attn.
    group_.Run(static_cast<int64_t>(batch.size()) * head_ranges, threads,
               [&](int64_t task, int worker) {
      const size_t s = static_cast<size_t>(task / head_ranges);
      const int64_t range = task % head_ranges;
      const int64_t h0 = config_.num_heads * range / head_ranges;
      const int64_t h1 = config_.num_heads * (range + 1) / head_ranges;
      const int64_t col = h0 * d_head;
      const Sequence& seq = *batch[s];
      const int64_t ctx = seq.computed + row_counts[s];
      const int64_t num_spans = (ctx + block - 1) / block;
      KvSpan* spans = lanes_[static_cast<size_t>(worker)]->spans.data();
      for (int64_t b = 0; b < num_spans; ++b) {
        const int64_t block_id = seq.cache.blocks[static_cast<size_t>(b)];
        spans[b] = {kv.KPtr(block_id, layer) + col * block, kv.VPtr(block_id, layer) + col,
                    std::min(block, ctx - b * block)};
      }
      Attention({.q = q.data() + row_offsets[s] * d + col,
                 .out = attn.data() + row_offsets[s] * d + col, .num_rows = row_counts[s],
                 .first_pos = seq.computed, .spans = spans, .num_spans = num_spans, .ld = d,
                 .panel = block, .num_heads = static_cast<int>(h1 - h0), .d_head = d_head});
    });

    // Output projection + its bypass branches, then the MLP; the last layer
    // also applies the final norm (gain applied row-wise).
    AtmmDispatcher::Announce(total_rows, d, d);                         // Wo
    AtmmLoraOperator::Announce(plans[2].segments, plans[2].views, d);  // kWo
    AtmmDispatcher::Announce(total_rows, ff, d);                        // W1
    AtmmDispatcher::Announce(total_rows, d, ff);                        // W2
    group_.Run(threads, threads, [&](int64_t chunk, int worker) {
      Lane& lane = *lanes_[static_cast<size_t>(worker)];
      const int64_t r0 = chunk_begin(chunk);
      const int64_t r1 = chunk_begin(chunk + 1);
      const int64_t rows = r1 - r0;
      std::fill_n(proj.data() + r0 * d, rows * d, 0.0f);
      lane.atmm.Compute(attn.data() + r0 * d, w.wo.data(), proj.data() + r0 * d, rows, d, d);
      run_bypass(lane, 2, attn, proj, r0, r1);  // kWo
      x.RowSlice(r0, r1).AddInPlace(proj.RowSlice(r0, r1));

      // --- MLP ---
      RmsNormRows(x.data() + r0 * d, w.mlp_norm.data(), normed.data() + r0 * d, rows, d);
      std::fill_n(mlp_mid.data() + r0 * ff, rows * ff, 0.0f);
      lane.atmm.Compute(normed.data() + r0 * d, w.w1.data(), mlp_mid.data() + r0 * ff, rows, ff,
                        d);
      SiluInPlace(mlp_mid.data() + r0 * ff, rows * ff);
      std::fill_n(mlp_out.data() + r0 * d, rows * d, 0.0f);
      lane.atmm.Compute(mlp_mid.data() + r0 * ff, w.w2.data(), mlp_out.data() + r0 * d, rows, d,
                        ff);
      x.RowSlice(r0, r1).AddInPlace(mlp_out.RowSlice(r0, r1));
      if (last_layer) {
        RmsNormRows(x.data() + r0 * d, model_.final_norm().data(), normed.data() + r0 * d, rows,
                    d);
      }
    });
  }
  return normed.data();
}

int32_t InferenceEngine::SampleToken(const Sequence& seq, const float* logits) {
  const int64_t vocab = config_.vocab_size;
  const SamplingParams& params = seq.request.sampling;
  if (params.temperature <= 0.0f) {
    return static_cast<int32_t>(std::max_element(logits, logits + vocab) - logits);
  }

  // Top-k softmax sampling with a deterministic per-(request, step) stream.
  const int k = std::clamp<int>(params.top_k, 1, static_cast<int>(vocab));
  std::vector<int32_t>& order = scratch_.order;
  order.resize(static_cast<size_t>(vocab));
  std::iota(order.begin(), order.end(), 0);
  std::partial_sort(order.begin(), order.begin() + k, order.end(),
                    [&](int32_t a, int32_t b) { return logits[a] > logits[b]; });
  const float max_logit = logits[order[0]];
  std::vector<double>& weights = scratch_.weights;
  weights.resize(static_cast<size_t>(k));
  for (int i = 0; i < k; ++i) {
    weights[static_cast<size_t>(i)] =
        std::exp((logits[order[static_cast<size_t>(i)]] - max_logit) / params.temperature);
  }
  Rng stream(params.seed ^ (static_cast<uint64_t>(seq.request.id) * 0x9E3779B97F4A7C15ull) ^
             (static_cast<uint64_t>(seq.generated) * 0xC4CEB9FE1A85EC53ull));
  return order[static_cast<size_t>(stream.NextWeighted(weights))];
}

int InferenceEngine::ResolveTaskHead(const Sequence& seq, const float* hidden) {
  const LoraAdapter* adapter = adapters_[static_cast<size_t>(seq.request.adapter_id)];
  const VisionTaskHead& head = adapter->task_head().value();
  const int64_t d = config_.d_model;
  const int64_t options = head.num_options();
  int best = 0;
  float best_score = -1e30f;
  for (int64_t option = 0; option < options; ++option) {
    float score = 0.0f;
    for (int64_t i = 0; i < d; ++i) {
      score += hidden[i] * head.weight.at(i, option);
    }
    if (score > best_score) {
      best_score = score;
      best = static_cast<int>(option);
    }
  }
  return best;
}

std::vector<EngineResult> InferenceEngine::Step() { return StepImpl(nullptr); }

std::vector<EngineResult> InferenceEngine::StepSelected(const std::vector<int64_t>& request_ids) {
  return StepImpl(&request_ids);
}

std::vector<InferenceEngine::QueueEntry> InferenceEngine::Queue() const {
  std::vector<QueueEntry> queue;
  for (const Sequence& seq : sequences_) {
    if (seq.finished) {
      continue;
    }
    QueueEntry entry;
    entry.request_id = seq.request.id;
    entry.adapter_id = seq.request.adapter_id;
    entry.prefilled = seq.prefilled;
    entry.prompt_tokens = static_cast<int64_t>(seq.request.prompt_tokens.size());
    entry.remaining_new_tokens =
        seq.request.use_task_head ? 1 : seq.request.max_new_tokens - seq.generated;
    entry.use_task_head = seq.request.use_task_head;
    queue.push_back(entry);
  }
  return queue;
}

std::vector<EngineResult> InferenceEngine::StepImpl(const std::vector<int64_t>* request_ids) {
  // Gather the iteration batch: selected (or all) unfinished sequences that
  // can secure KV capacity for their current chunk.
  std::vector<Sequence*> batch;
  std::vector<int64_t> row_offsets;
  std::vector<int64_t> row_counts;
  int64_t cursor = 0;
  for (Sequence& seq : sequences_) {
    if (seq.finished) {
      continue;
    }
    if (request_ids != nullptr &&
        std::find(request_ids->begin(), request_ids->end(), seq.request.id) ==
            request_ids->end()) {
      continue;
    }
    if (!seq.prefilled && seq.request.resume_handle != nullptr) {
      if (!RestoreFromHandle(seq, batch)) {
        continue;  // waits for blocks to free
      }
    }
    if (!seq.prefilled && seq.cache.blocks.empty() && seq.computed == 0) {
      TryPrefixReuse(seq);
    }
    const int64_t want = static_cast<int64_t>(seq.tokens.size()) - seq.computed;
    VLORA_CHECK(want > 0);
    if (!EnsureCapacity(seq, seq.computed + want, batch)) {
      continue;  // waits for blocks to free
    }
    batch.push_back(&seq);
    row_offsets.push_back(cursor);
    row_counts.push_back(want);
    cursor += want;
  }

  std::vector<EngineResult> finished;
  if (batch.empty()) {
    return finished;
  }

  const float* hidden = Forward(batch, row_offsets, row_counts);

  // LM head: the last hidden row of every sequence that samples this step
  // (all but task-head prefills) goes through one ATMM GEMM.
  const int64_t d = config_.d_model;
  const int64_t vocab = config_.vocab_size;
  auto last_hidden_of = [&](size_t s) {
    return hidden + (row_offsets[s] + row_counts[s] - 1) * d;
  };
  auto samples = [](const Sequence* seq) { return !seq->request.use_task_head || seq->prefilled; };
  const int64_t sampling = std::count_if(batch.begin(), batch.end(), samples);
  if (sampling > 0) {
    Tensor head_in = ScratchRows(scratch_.head_in, sampling, d);
    Tensor logits = ScratchRows(scratch_.logits, sampling, vocab);
    float* row = head_in.data();
    for (size_t s = 0; s < batch.size(); ++s) {
      if (samples(batch[s])) {
        row = std::copy_n(last_hidden_of(s), d, row);
      }
    }
    logits.Fill(0.0f);
    atmm().Execute(head_in, model_.lm_head(), logits);
  }

  const float* logits_row = scratch_.logits.data();
  for (size_t s = 0; s < batch.size(); ++s) {
    Sequence& seq = *batch[s];
    const bool was_prefill = !seq.prefilled;
    seq.computed += row_counts[s];
    seq.cache.length = seq.computed;
    seq.prefilled = true;
    const float* last_hidden = last_hidden_of(s);

    if (was_prefill && seq.request.capture_final_hidden && seq.generated == 0) {
      seq.captured_hidden.assign(last_hidden, last_hidden + d);
    }
    if (was_prefill) {
      // Register full prompt blocks for future prefix reuse.
      const int64_t block = kv_->block_size();
      const int64_t prompt_len = static_cast<int64_t>(seq.request.prompt_tokens.size());
      uint64_t chain = AdapterChainSeed(seq.request.adapter_id);
      for (int64_t pos = 0; pos + block <= prompt_len; pos += block) {
        chain = KvBlockManager::ChainHash(chain, seq.request.prompt_tokens.data() + pos, block);
        kv_->RegisterPrefixBlock(chain, seq.cache.blocks[static_cast<size_t>(pos / block)]);
      }
      trace::EmitPrefillDone(seq.request.id, seq.request.adapter_id, prompt_len - seq.reused,
                             seq.reused);
    }

    if (seq.request.use_task_head && was_prefill) {
      // Vision task head: one inference round resolves the answer (§4.2.2).
      seq.head_option = ResolveTaskHead(seq, last_hidden);
      seq.finished = true;
    } else {
      const int32_t next = SampleToken(seq, logits_row);
      logits_row += vocab;
      ++seq.generated;
      seq.tokens.push_back(next);
      if (next == seq.request.eos_token || seq.generated >= seq.request.max_new_tokens) {
        seq.finished = true;
      }
    }

    // Prefill-only requests that still have decode work stop here and hand
    // their paged KV state off. Requests that already finished at prefill
    // (eos / max_new_tokens == 1 / task head) return a normal result below.
    if (seq.request.prefill_only && was_prefill && !seq.finished) {
      finished.push_back(ExportHandoff(seq));
      seq.finished = true;
      continue;
    }

    if (seq.finished) {
      EngineResult result;
      result.request_id = seq.request.id;
      result.head_option = seq.head_option;
      const int64_t prompt_len = static_cast<int64_t>(seq.request.prompt_tokens.size());
      result.prefill_tokens = prompt_len - seq.reused;
      result.reused_tokens = seq.reused;
      result.decode_steps = seq.generated;
      result.final_hidden = std::move(seq.captured_hidden);
      for (size_t i = static_cast<size_t>(prompt_len); i < seq.tokens.size(); ++i) {
        result.output_tokens.push_back(seq.tokens[i]);
      }
      ReleaseSequence(seq);
      finished.push_back(std::move(result));
    }
  }

  // Drop finished sequences from the front/back of the deque.
  while (!sequences_.empty() && sequences_.front().finished) {
    sequences_.pop_front();
  }
  return finished;
}

EngineResult InferenceEngine::RunToCompletion(EngineRequest request) {
  const int64_t id = request.id;
  Submit(std::move(request));
  while (true) {
    std::vector<EngineResult> finished = Step();
    for (EngineResult& result : finished) {
      if (result.request_id == id) {
        return result;
      }
    }
    VLORA_CHECK(HasWork());
  }
}

}  // namespace vlora
