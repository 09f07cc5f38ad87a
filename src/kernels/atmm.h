// ATMM: adaptive-tiling matrix multiplication (§4.3).
//
// AtmmDispatcher executes GEMMs with a tiling configuration chosen per shape
// by a size-driven rule, HeuristicConfig, on the active kernel variant. The
// paper profiles configurations offline (Algorithm 2) and looks each shape up
// in a hash table; here that search and its table live with the Table 1 and
// Fig 17/18 benches (bench/bench_tiling_search.h). A table searched over the
// LoRA shapes a replica serves slowed decode segments, sped up only prefill
// shrinks, by a few microseconds each, and changed output bits
// (EXPERIMENTS.md, "ATMM's shape table on the serving path"), so serving runs
// the rule alone.

#ifndef VLORA_SRC_KERNELS_ATMM_H_
#define VLORA_SRC_KERNELS_ATMM_H_

#include <cstdint>

#include "src/common/annotations.h"
#include "src/kernels/gemm.h"
#include "src/kernels/kernel_variant.h"
#include "src/kernels/tile_config.h"
#include "src/tensor/tensor.h"

namespace vlora {

// Thread-safety: a dispatcher has one owner thread and takes no lock.
// Execute reuses one packed-panel workspace across calls, so each execution
// thread (each replica engine and each of its compute-group helpers, vision
// tower, trainer call and bench) builds its own dispatcher.
class AtmmDispatcher {
 public:
  // Shape-driven tile for one GEMM, biased for the kernel ISA (the FMA
  // kernels amortise their scalar broadcast over a wider nr; AVX-512 gets
  // AVX2's config, for AVX2's bits).
  static TileConfig HeuristicConfig(int64_t m, int64_t n, int64_t k, KernelVariant variant);

  // C += A * B with HeuristicConfig's tile, on the active kernel variant:
  // Announce, then Compute.
  void Execute(const float* a, const float* b, float* c, int64_t m, int64_t n,
               int64_t k) VLORA_HOT;
  void Execute(const Tensor& a, const Tensor& b, Tensor& c);

  // The KernelDispatch event of an m x n x k GEMM. A step split over a
  // compute group announces each logical GEMM once, with its full m, from
  // the stepping thread, and every thread computes its rows unannounced.
  static void Announce(int64_t m, int64_t n, int64_t k);
  // Execute without the event. Row i of C depends only on row i of A: kc,
  // which fixes each output's summation order, is a function of k alone.
  void Compute(const float* a, const float* b, float* c, int64_t m, int64_t n, int64_t k);

 private:
  GemmWorkspace workspace_;
};

}  // namespace vlora

#endif  // VLORA_SRC_KERNELS_ATMM_H_
