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
// Every variant exposes the SAME (mr, nr) instantiation set, so a tiling
// configuration profiled for one variant is at least executable under the
// others — ATMM's per-variant tables exist for speed, not for validity. The
// AVX2 table lives in microkernel_avx2.cc (-mavx2 -mfma) and the AVX-512 one
// in microkernel_avx512.cc (-mavx512f on top), the only two files in the tree
// built above the baseline ISA; on toolchains without those flags a file
// compiles to an empty table and dispatch degrades to the next variant down.

#ifndef VLORA_SRC_KERNELS_MICROKERNEL_H_
#define VLORA_SRC_KERNELS_MICROKERNEL_H_

#include <algorithm>
#include <cstdint>
#include <span>
#include <utility>
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

// The AVX2 table: empty when the file was compiled without AVX2 support.
// Entries must only be executed when Avx2Available() (kernel_variant.h).
std::span<const MicroKernelEntry> Avx2MicroKernelTable();

// The AVX-512 table: zmm tiles for nr = 16, bitwise equal to the AVX2 ones,
// and the AVX2 tiles for nr 4 and 8. Empty when the file was compiled
// without AVX-512 support; executed only when Avx512Available().
std::span<const MicroKernelEntry> Avx512MicroKernelTable();

// Table for a variant (does not fall back; may be empty).
std::span<const MicroKernelEntry> MicroKernelTable(KernelVariant variant);

// Exact lookup in `variant`'s table; falls back to the scalar entry when the
// variant has no such (mr, nr) — dispatch degrades, it never fails. Returns
// nullptr only if the scalar table misses too.
const MicroKernelEntry* FindMicroKernel(KernelVariant variant, int mr, int nr) VLORA_HOT;

// The (mr, nr) instantiation set of a variant, for exhaustive test sweeps.
std::vector<std::pair<int, int>> MicroKernelShapes(KernelVariant variant);

// The AVX2 register tiles behind Avx2MicroKernelTable, instantiated in
// microkernel_avx2.cc for the table's (mr, nr) set; the AVX-512 table points
// its nr 4 and 8 entries here.
template <int MR, int NR>
struct Avx2Tiles {
  static void Full(int64_t kc, const float* a_panel, const float* b, int64_t ldb, float* c,
                   int64_t ldc);
  static void Edge(int64_t kc, const float* a_panel, const float* b, int64_t ldb, float* c,
                   int64_t ldc, int m_eff, int n_eff);
};

// Packs an mc_eff x kc_eff block of A (row-major, stride lda) into micro-row
// panels: layout [ir][p][i] with i < mr, zero-padded to full mr (a multiple
// of 4). The AVX2 form transposes 4 x 8 blocks in registers and writes the
// same bytes; it requires Avx2Available().
void PackAPanelsScalar(const float* a, int64_t lda, int64_t mc_eff, int64_t kc_eff, int mr,
                       float* packed);
void PackAPanelsAvx2(const float* a, int64_t lda, int64_t mc_eff, int64_t kc_eff, int mr,
                     float* packed);

// The core's FMA peak at one vector width, for benches to hold the register
// tiles against: kFmaPeakChains independent FMA chains advanced `steps`
// times. Returns a value folded from the chains so the loop stays. Each
// requires its variant; a build without it returns 0 at once.
inline constexpr int kFmaPeakChains = 12;
float FmaPeakLoopAvx2(int64_t steps);    // 8 lanes (ymm)
float FmaPeakLoopAvx512(int64_t steps);  // 16 lanes (zmm)

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
// Bitwise AttentionTileAvx2 on zmm registers. Requires Avx512Available(); a
// build without AVX-512 support runs the AVX2 one.
void AttentionTileAvx512(const AttentionTile& tile);

// --- SiLU behind SiluInPlace (transformer_ops.h) ---

void SiluScalar(float* x, int64_t n);
// Requires Avx2Available(); a build without AVX2 support runs the scalar one.
void SiluAvx2(float* x, int64_t n);

}  // namespace vlora

#endif  // VLORA_SRC_KERNELS_MICROKERNEL_H_
