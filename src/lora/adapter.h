// LoRA adapter representation.
//
// An adapter holds low-rank factors down (d x r) and up (r x d) for each
// adapted projection ("target") of each layer; the effective weight update of
// a target is ΔW = scaling * down * up (the paper's B x A with A = up,
// B = down under our row-vector convention y = x * W). LoRA adapters are
// "typically placed in attention layers" (§2); we support the query, value
// and output projections, with all three adapted by default.
//
// V-LoRA extends the adapter with an optional vision task head (§4.2.2): a
// small linear classifier over the LMM's final hidden state that answers
// closed-set vision tasks in a single decode round instead of autoregressing
// through the LM head.

#ifndef VLORA_SRC_LORA_ADAPTER_H_
#define VLORA_SRC_LORA_ADAPTER_H_

#include <array>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "src/common/rng.h"
#include "src/common/vision_task.h"
#include "src/kernels/segmented_gemm.h"
#include "src/tensor/tensor.h"

namespace vlora {

// Attention projections a LoRA adapter can attach to.
enum class LoraTarget { kWq, kWv, kWo };

inline constexpr std::array<LoraTarget, 3> kAllLoraTargets = {LoraTarget::kWq, LoraTarget::kWv,
                                                              LoraTarget::kWo};

constexpr const char* LoraTargetName(LoraTarget target) {
  switch (target) {
    case LoraTarget::kWq:
      return "Wq";
    case LoraTarget::kWv:
      return "Wv";
    case LoraTarget::kWo:
      return "Wo";
  }
  return "?";
}

// A closed-set task head: hidden state (d) -> logits over num_options
// candidate answers, resolved in one inference round.
struct VisionTaskHead {
  VisionTask task = VisionTask::kImageClassification;
  Tensor weight;  // d x num_options
  int64_t num_options() const { return weight.shape().dim(1); }
};

// Per-layer low-rank factors of one target.
struct LoraLayerWeights {
  Tensor down;  // d x r
  Tensor up;    // r x d
};

// One target's factors, layer by layer.
struct LoraTargetWeights {
  LoraTarget target = LoraTarget::kWq;
  std::vector<LoraLayerWeights> layers;
};

class LoraAdapter {
 public:
  // Builds an adapter from its factors, taking them over. CHECK-fails unless
  // the dimensions are positive, the targets are non-empty and unique, and
  // each target has `num_layers` pairs of d_model x rank / rank x d_model
  // factors. The target order is the adapter's targets() order.
  static LoraAdapter FromFactors(std::string name, int num_layers, int64_t d_model, int64_t rank,
                                 std::vector<LoraTargetWeights> targets);

  // Builds an adapter with random factors for every (target, layer) pair.
  // `init_scale` controls factor magnitude (kept small so merged weights stay
  // well-conditioned in the toy engine).
  static LoraAdapter Random(std::string name, int num_layers, int64_t d_model, int64_t rank,
                            Rng& rng, float init_scale = 0.05f,
                            std::vector<LoraTarget> targets = {LoraTarget::kWq, LoraTarget::kWv,
                                                               LoraTarget::kWo});

  const std::string& name() const { return name_; }
  int num_layers() const { return num_layers_; }
  int64_t rank() const { return rank_; }
  int64_t d_model() const { return d_model_; }
  float scaling() const { return scaling_; }
  void set_scaling(float scaling) { scaling_ = scaling; }

  const std::vector<LoraTarget>& targets() const { return targets_; }
  bool HasTarget(LoraTarget target) const { return factors_.contains(target); }

  const LoraLayerWeights& layer(LoraTarget target, int i) const;
  LoraLayerWeights& layer(LoraTarget target, int i);

  // View of one (target, layer)'s factors for the batched operators.
  AdapterWeightsView LayerView(LoraTarget target, int i) const;

  // Parameter count (all targets and layers, excluding the head).
  int64_t NumParams() const;
  // Bytes at fp16, the paper's serving precision; used by the swap model.
  int64_t SizeBytesFp16() const { return NumParams() * 2; }

  const std::optional<VisionTaskHead>& task_head() const { return task_head_; }
  void SetTaskHead(VisionTaskHead head) { task_head_ = std::move(head); }

  // Domains (datasets / small models) fused into this adapter by the
  // accuracy-aware generator; informational.
  const std::vector<std::string>& fused_domains() const { return fused_domains_; }
  void AddFusedDomain(std::string domain) { fused_domains_.push_back(std::move(domain)); }

 private:
  std::string name_;
  int num_layers_ = 0;
  int64_t d_model_ = 0;
  int64_t rank_ = 0;
  float scaling_ = 1.0f;
  std::vector<LoraTarget> targets_;
  std::map<LoraTarget, std::vector<LoraLayerWeights>> factors_;
  std::optional<VisionTaskHead> task_head_;
  std::vector<std::string> fused_domains_;
};

}  // namespace vlora

#endif  // VLORA_SRC_LORA_ADAPTER_H_
