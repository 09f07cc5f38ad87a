// Tiled single-precision GEMM.
//
// GemmTiled computes C += A * B (row-major) using the BLIS-style loop nest:
// the B block (kc x nc) and A block (mc x kc) are packed into contiguous
// panels sized for the cache hierarchy, then a register-blocked mr x nr
// micro-kernel sweeps the packed panels. A one-panel GEMM or a narrow B
// (ReadsBInPlace) is read where it lies instead, so packing would only copy
// it. The micro-kernels are compiled ahead of time as template
// instantiations — the CPU analog of ATMM's pre-compiled CUTLASS kernels —
// and selected through a per-variant function-pointer table (microkernel.h):
// portable scalar always, AVX2+FMA when the host supports it.
// Entry points without an explicit KernelVariant dispatch on
// ActiveKernelVariant() (kernel_variant.h).

#ifndef VLORA_SRC_KERNELS_GEMM_H_
#define VLORA_SRC_KERNELS_GEMM_H_

#include <cstdint>
#include <vector>

#include "src/common/compute_group.h"
#include "src/kernels/kernel_variant.h"
#include "src/kernels/tile_config.h"
#include "src/tensor/tensor.h"

namespace vlora {

// Reusable packing workspace. Sized for the largest config it has seen; reuse
// across calls avoids per-call allocation (the analog of ATMM's pre-allocated
// double-buffered shared memory).
class GemmWorkspace {
 public:
  float* Ensure(int64_t floats);

 private:
  std::vector<float> buffer_;
};

// C += A * B. A is m x k, B is k x n, C is m x n, all row-major and dense.
// The explicit-variant overload runs the given micro-kernel ISA (callers must
// only pass kAvx2 when Avx2Available()); the others use ActiveKernelVariant().
void GemmTiled(const float* a, const float* b, float* c, int64_t m, int64_t n, int64_t k,
               const TileConfig& config, GemmWorkspace& workspace, KernelVariant variant);
void GemmTiled(const float* a, const float* b, float* c, int64_t m, int64_t n, int64_t k,
               const TileConfig& config, GemmWorkspace& workspace);

// Widest B, in columns, that taller GEMMs still read in place: rows at most
// 2 KiB apart. At 4 KiB strides a panel's rows alias in L1 and packing wins.
inline constexpr int64_t kInPlaceMaxCols = 512;

// True when GemmTiled and GemmTiledParallel read B in place rather than
// packing it. Every column panel must be a full nr wide (n a multiple of nr),
// so none needs zero padding; then either one micro-panel of A covers every
// row (m <= mr), so each B panel is consumed once and packing would only copy
// it, or B is narrow (n <= kInPlaceMaxCols), so its rows are close enough
// that reading them where they lie is as cheap as reading a packed panel.
// The micro-kernel sums the same values in the same order either way, so
// both paths are bitwise equal.
bool ReadsBInPlace(int64_t m, int mr, int64_t n, int nr);

// Convenience overload on tensors; shapes are validated.
void GemmTiled(const Tensor& a, const Tensor& b, Tensor& c, const TileConfig& config,
               GemmWorkspace& workspace);

// Parallel variant: the A-side block tiles of each (jc, pc) round are the
// indices of one ComputeGroup::Run over every thread of the group — the CPU
// analog of thread blocks scheduling onto SMs. Bitwise-identical to the
// serial variant for every KernelVariant (disjoint C tiles, same per-tile
// arithmetic order). A configuration whose mc yields fewer block tiles than
// threads under-utilises the machine, which is how the "low SM utilisation"
// column of Table 1 manifests here.
void GemmTiledParallel(const float* a, const float* b, float* c, int64_t m, int64_t n, int64_t k,
                       const TileConfig& config, GemmWorkspace& workspace, ComputeGroup& group,
                       KernelVariant variant);
void GemmTiledParallel(const float* a, const float* b, float* c, int64_t m, int64_t n, int64_t k,
                       const TileConfig& config, GemmWorkspace& workspace, ComputeGroup& group);

// Unblocked triple loop, C += A * B. Used as the low-efficiency building block
// of the dLoRA/Einsum baseline operator and as a correctness reference.
void GemmNaive(const float* a, const float* b, float* c, int64_t m, int64_t n, int64_t k);

// True if the (mr, nr) pair has a pre-compiled micro-kernel (in the scalar
// table / in `variant`'s table).
bool HasMicroKernel(int mr, int nr);
bool HasMicroKernel(KernelVariant variant, int mr, int nr);

}  // namespace vlora

#endif  // VLORA_SRC_KERNELS_GEMM_H_
