// Unmerged-inference LoRA batching operators.
//
// Each operator computes, for every segment s of the token batch X,
//
//   Y[s] += scaling_s * (X[s] * down_{a(s)}) * up_{a(s)}
//
// i.e. the bypass branch of Fig 2(a), batched over heterogeneous adapters.
// Three implementations reproduce the four systems compared in the paper:
//
//   AtmmLoraOperator    — V-LoRA serving: the engine's dispatcher tiles each
//                         segment's GEMMs by shape (§4.3.1)
//   StaticTileLoraOperator
//                       — segment-wise with a per-shape tile function: S-LoRA
//                         and Punica each return one fixed config (Punica's
//                         is tuned for small decode batches, hence its Table
//                         1 / Fig 17 behaviour at large prefill shapes), and
//                         the Fig 17/18 benches' ATMM row reads its searched
//                         table
//   EinsumLoraOperator  — dLoRA: pads every segment to the batch maximum
//                         (rows and rank) and runs an unblocked batched GEMM,
//                         modelling torch.einsum's padding and per-call
//                         overhead
//
// All produce the same results up to float rounding (tests assert this);
// they differ in speed, which is the paper's point.

#ifndef VLORA_SRC_KERNELS_LORA_OPS_H_
#define VLORA_SRC_KERNELS_LORA_OPS_H_

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "src/kernels/atmm.h"
#include "src/kernels/gemm.h"
#include "src/kernels/segmented_gemm.h"

namespace vlora {

class LoraBatchOperator {
 public:
  virtual ~LoraBatchOperator() = default;

  virtual const std::string& name() const = 0;

  // Y += per-segment LoRA contribution. X is (T x d), Y is (T x d).
  virtual void Run(const Tensor& x, const std::vector<LoraSegment>& segments,
                   const std::vector<AdapterWeightsView>& adapters, Tensor& y) = 0;
};

// V-LoRA's serving operator: both GEMMs of every segment run through the
// engine's dispatcher, which tiles each by its shape.
class AtmmLoraOperator : public LoraBatchOperator {
 public:
  // The dispatcher is the engine's; it must outlive the operator.
  explicit AtmmLoraOperator(AtmmDispatcher* dispatcher);

  const std::string& name() const override { return name_; }
  // Announce, then ComputeRows over every row of x.
  void Run(const Tensor& x, const std::vector<LoraSegment>& segments,
           const std::vector<AdapterWeightsView>& adapters, Tensor& y) override;

  // The KernelDispatch events of Run: each segment's shrink and expand, with
  // the segment's full row count.
  static void Announce(const std::vector<LoraSegment>& segments,
                       const std::vector<AdapterWeightsView>& adapters, int64_t d);
  // Run's arithmetic for rows [row_begin, row_end) of x and y (row-major,
  // d wide) alone, unannounced: each segment is clipped to the range. A
  // row's shrink, scale and expand read only that row, so a step split over
  // a compute group gives every thread its own rows.
  void ComputeRows(const float* x, const std::vector<LoraSegment>& segments,
                   const std::vector<AdapterWeightsView>& adapters, float* y, int64_t d,
                   int64_t row_begin, int64_t row_end);

 private:
  std::string name_ = "ATMM";
  AtmmDispatcher* dispatcher_;
  std::vector<float> intermediate_;
};

// The tile a GEMM of shape (m x k) * (k x n) runs with.
using TileFn = std::function<TileConfig(int64_t m, int64_t n, int64_t k)>;

// Segment-wise operator whose tiles come from a function of the GEMM shape:
// the S-LoRA and Punica baselines return their one hard-coded configuration,
// and the Fig 17/18 benches look ATMM's searched table up.
class StaticTileLoraOperator : public LoraBatchOperator {
 public:
  StaticTileLoraOperator(std::string name, TileFn tile);

  const std::string& name() const override { return name_; }
  void Run(const Tensor& x, const std::vector<LoraSegment>& segments,
           const std::vector<AdapterWeightsView>& adapters, Tensor& y) override;

 private:
  std::string name_;
  TileFn tile_;
  GemmWorkspace workspace_;
  std::vector<float> intermediate_;
};

std::unique_ptr<StaticTileLoraOperator> MakeSloraOperator();
std::unique_ptr<StaticTileLoraOperator> MakePunicaOperator();

// dLoRA's operator: batched GEMM over segments padded to uniform shape
// (max rows x max rank across the batch), computed with the unblocked kernel.
// The padding waste and the lack of cache blocking are the two costs §4.3.1
// attributes to torch.einsum.
class EinsumLoraOperator : public LoraBatchOperator {
 public:
  EinsumLoraOperator();

  const std::string& name() const override { return name_; }
  void Run(const Tensor& x, const std::vector<LoraSegment>& segments,
           const std::vector<AdapterWeightsView>& adapters, Tensor& y) override;

 private:
  std::string name_ = "Einsum";
  std::vector<float> padded_x_;
  std::vector<float> padded_mid_;
  std::vector<float> padded_down_;
  std::vector<float> padded_up_;
};

}  // namespace vlora

#endif  // VLORA_SRC_KERNELS_LORA_OPS_H_
