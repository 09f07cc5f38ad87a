// Register micro-kernel tables, one per KernelVariant.
//
// A micro-kernel computes one mr x nr tile of C from a packed A panel and kc
// rows of B read at a row stride:
//   a_panel: kc values per micro-row group, laid out [p * mr + i]
//   b:       nr values per reduction step, laid out [p * ldb + j]
// ldb is nr when B was packed into a zero-padded micro-col panel, and B's own
// row stride n when the GEMM reads the weight rows in place (gemm.h,
// ReadsBInPlace). Full kernels write the whole tile; edge kernels write only
// the valid m_eff x n_eff corner (A panels are zero-padded, and B is either a
// zero-padded panel or n_eff == nr, so the arithmetic is shared).
//
// Both variants expose the SAME (mr, nr) instantiation set, so a tiling
// configuration profiled for one variant is at least executable under the
// other — ATMM's per-variant tables exist for speed, not for validity. The
// AVX2 table lives in microkernel_avx2.cc, the only file in the tree compiled
// with -mavx2 -mfma; on toolchains without those flags it compiles to an
// empty table and dispatch degrades to scalar.

#ifndef VLORA_SRC_KERNELS_MICROKERNEL_H_
#define VLORA_SRC_KERNELS_MICROKERNEL_H_

#include <algorithm>
#include <cstdint>
#include <vector>

#include "src/common/annotations.h"
#include "src/kernels/kernel_variant.h"

namespace vlora {

using MicroKernelFn = void (*)(int64_t kc, const float* a_panel, const float* b, int64_t ldb,
                               float* c, int64_t ldc);
using MicroKernelEdgeFn = void (*)(int64_t kc, const float* a_panel, const float* b, int64_t ldb,
                                   float* c, int64_t ldc, int m_eff, int n_eff);

struct MicroKernelEntry {
  int mr = 0;
  int nr = 0;
  KernelVariant variant = KernelVariant::kScalar;
  MicroKernelFn full = nullptr;
  MicroKernelEdgeFn edge = nullptr;
};

// The scalar table: always present, the correctness reference.
const std::vector<MicroKernelEntry>& ScalarMicroKernelTable();

// The AVX2 table: empty when the file was compiled without AVX2 support.
// Entries must only be executed when Avx2Available() (kernel_variant.h).
const std::vector<MicroKernelEntry>& Avx2MicroKernelTable();

// Table for a variant (does not fall back; may be empty).
const std::vector<MicroKernelEntry>& MicroKernelTable(KernelVariant variant);

// Exact lookup in `variant`'s table; falls back to the scalar entry when the
// variant has no such (mr, nr) — dispatch degrades, it never fails. Returns
// nullptr only if the scalar table misses too.
const MicroKernelEntry* FindMicroKernel(KernelVariant variant, int mr, int nr) VLORA_HOT;

// The (mr, nr) instantiation set of a variant, for exhaustive test sweeps.
std::vector<std::pair<int, int>> MicroKernelShapes(KernelVariant variant);

// The core's FMA peak, for benches to hold the register tiles against: 12
// independent 8-wide FMA chains advanced `steps` times, kFmaPeakFlopsPerStep
// FLOPs a step. Returns a value folded from the chains so the loop stays.
// Requires Avx2Available(); a build without AVX2 support returns 0 at once.
inline constexpr double kFmaPeakFlopsPerStep = 12 * 8 * 2;
float FmaPeakLoopAvx2(int64_t steps);

// --- Attention tiles behind Attention (transformer_ops.h) ---

inline constexpr int64_t kAttentionTile = 16;        // keys per tile: two ymm of scores
inline constexpr int64_t kAttentionQueryBlock = 64;  // query rows per tile call

// One key tile of one head against a query block: row r folds the tile's
// first Visible(r) keys into its running max m[r], sum l[r] and output row.
// k points into a key panel (KvSpan): column c of key j at k[c * panel + j].
struct AttentionTile {
  const float* q = nullptr;
  float* out = nullptr;
  const float* k = nullptr;
  const float* v = nullptr;
  int64_t ld = 0;
  int64_t panel = 0;
  int64_t d_head = 0;
  float scale = 0.0f;
  int64_t keys = 0;
  int64_t rows = 0;
  int64_t row_offset = 0;
  float* m = nullptr;
  float* l = nullptr;

  int64_t Visible(int64_t r) const { return std::min(keys, r + row_offset); }
  int64_t First() const { return std::max<int64_t>(0, 1 - row_offset); }
};

void AttentionTileScalar(const AttentionTile& tile);
// Requires Avx2Available(); a build without AVX2 support runs the scalar one.
void AttentionTileAvx2(const AttentionTile& tile);

// --- SiLU behind SiluInPlace (transformer_ops.h) ---

void SiluScalar(float* x, int64_t n);
// Requires Avx2Available(); a build without AVX2 support runs the scalar one.
void SiluAvx2(float* x, int64_t n);

}  // namespace vlora

#endif  // VLORA_SRC_KERNELS_MICROKERNEL_H_
