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

// --- Panel packing (implemented in gemm.cc, shared with the quantized path) ---

// Packs an mc_eff x kc_eff block of A (row-major, stride lda) into micro-row
// panels: layout [ir][p][i] with i < mr, zero-padded to full mr.
void PackAPanels(const float* a, int64_t lda, int64_t mc_eff, int64_t kc_eff, int mr,
                 float* packed);

// Packs a kc_eff x nc_eff block of B (row-major, stride ldb) into micro-col
// panels: layout [jr][p][j] with j < nr, zero-padded to full nr.
void PackBPanels(const float* b, int64_t ldb, int64_t kc_eff, int64_t nc_eff, int nr,
                 float* packed);

// Sweeps `kernel` over an mc_eff x nc_eff block of C (row stride ldc) from A
// packed by PackAPanels and kc_eff rows of B. B's column panel jr starts at
// b + jr * panel_step and is read at stride ldb: packed panels (PackBPanels)
// have panel_step = kc_eff and ldb = nr, B read in place has panel_step = 1
// and ldb = n.
void RunMicroKernels(const MicroKernelEntry& kernel, const float* pack_a, int64_t mc_eff,
                     const float* b, int64_t panel_step, int64_t ldb, int64_t nc_eff,
                     int64_t kc_eff, float* c, int64_t ldc);

// --- Fused-dequant helpers implemented in microkernel_avx2.cc ---
//
// Operate on one row of QuantizedMatrix block storage (quant.h layout):
// consecutive BlockQ8 / BlockQ4 structs covering kQuantBlockSize columns
// each. `cols` is the logical (unpadded) column count.

// y[0..cols) += x_p * dequant(row). Null when AVX2 is not compiled in.
using QuantAxpyRowFn = void (*)(const uint8_t* row_blocks, int64_t cols, float x_p, float* y);
QuantAxpyRowFn Avx2QuantAxpyRow(WeightFormat format);

// dst[0..cols) = dequant(row). Null when AVX2 is not compiled in.
using QuantDequantRowFn = void (*)(const uint8_t* row_blocks, int64_t cols, float* dst);
QuantDequantRowFn Avx2QuantDequantRow(WeightFormat format);

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

}  // namespace vlora

#endif  // VLORA_SRC_KERNELS_MICROKERNEL_H_
