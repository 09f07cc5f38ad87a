// AVX2+FMA micro-kernels and attention tile. This is the ONLY translation
// unit in the tree compiled with -mavx2 -mfma (per-file flags in
// src/kernels/CMakeLists.txt); everything else stays at the baseline ISA so
// the binary runs on any host and only routes here after the runtime probe
// (kernel_variant.cc). When the toolchain cannot target AVX2 the file
// degrades to an empty table and the scalar attention tile, and dispatch
// stays scalar.
//
// Layout contract matches the scalar kernels in gemm.cc exactly: a packed A
// panel [p * mr + i], B rows [p * ldb + j] (a packed panel or B in place),
// accumulate-into-C semantics, identical summation order over p — so the
// only numerical difference from scalar is FMA's single rounding per
// multiply-add, which the differential harness bounds in ULPs
// (tests/kernel_diff_test.cc).

#include "src/kernels/microkernel.h"

#if defined(__AVX2__) && defined(__FMA__)

#include <immintrin.h>

#include <cmath>

namespace vlora {
namespace {

// --- mr x nr register tiles, nr a multiple of 8 (one __m256 per 8 cols) ---
//
// Compute is inlined into Full and Edge and every loop over rows and lanes
// is unrolled, so each acc[i][l] is a register rather than a stack slot that
// every FMA reads and writes (DESIGN.md §12; any new tile must do the same).

template <int MR, int NR>
struct Avx2Tile {
  static_assert(NR % 8 == 0, "NR must be a whole number of ymm lanes");
  static constexpr int kLanes = NR / 8;

  [[gnu::always_inline]] static inline void Compute(int64_t kc, const float* a_panel,
                                                    const float* b_panel, int64_t ldb,
                                                    __m256 (&acc)[MR][kLanes]) {
#pragma GCC unroll 16
    for (int i = 0; i < MR; ++i) {
#pragma GCC unroll 2
      for (int l = 0; l < kLanes; ++l) {
        acc[i][l] = _mm256_setzero_ps();
      }
    }
    // Unrolled by two reduction steps: the second step's b-panel loads issue
    // while the first step's FMAs retire, hiding load latency behind the FMA
    // chain (accumulator reuse distance doubles, so no added dependency).
    int64_t p = 0;
    for (; p + 2 <= kc; p += 2) {
      const float* a = a_panel + p * MR;
      const float* b = b_panel + p * ldb;
      __m256 bv0[kLanes];
      __m256 bv1[kLanes];
#pragma GCC unroll 2
      for (int l = 0; l < kLanes; ++l) {
        bv0[l] = _mm256_loadu_ps(b + 8 * l);
        bv1[l] = _mm256_loadu_ps(b + ldb + 8 * l);
      }
#pragma GCC unroll 16
      for (int i = 0; i < MR; ++i) {
        const __m256 av0 = _mm256_broadcast_ss(a + i);
        const __m256 av1 = _mm256_broadcast_ss(a + MR + i);
#pragma GCC unroll 2
        for (int l = 0; l < kLanes; ++l) {
          acc[i][l] = _mm256_fmadd_ps(av0, bv0[l], acc[i][l]);
          acc[i][l] = _mm256_fmadd_ps(av1, bv1[l], acc[i][l]);
        }
      }
    }
    for (; p < kc; ++p) {
      const float* a = a_panel + p * MR;
      const float* b = b_panel + p * ldb;
      __m256 bv[kLanes];
#pragma GCC unroll 2
      for (int l = 0; l < kLanes; ++l) {
        bv[l] = _mm256_loadu_ps(b + 8 * l);
      }
#pragma GCC unroll 16
      for (int i = 0; i < MR; ++i) {
        const __m256 av = _mm256_broadcast_ss(a + i);
#pragma GCC unroll 2
        for (int l = 0; l < kLanes; ++l) {
          acc[i][l] = _mm256_fmadd_ps(av, bv[l], acc[i][l]);
        }
      }
    }
  }

  static void Full(int64_t kc, const float* a_panel, const float* b_panel, int64_t ldb, float* c,
                   int64_t ldc) {
    __m256 acc[MR][kLanes];
    Compute(kc, a_panel, b_panel, ldb, acc);
#pragma GCC unroll 16
    for (int i = 0; i < MR; ++i) {
      float* c_row = c + i * ldc;
#pragma GCC unroll 2
      for (int l = 0; l < kLanes; ++l) {
        float* cp = c_row + 8 * l;
        _mm256_storeu_ps(cp, _mm256_add_ps(_mm256_loadu_ps(cp), acc[i][l]));
      }
    }
  }

  static void Edge(int64_t kc, const float* a_panel, const float* b_panel, int64_t ldb, float* c,
                   int64_t ldc, int m_eff, int n_eff) {
    __m256 acc[MR][kLanes];
    Compute(kc, a_panel, b_panel, ldb, acc);
    alignas(32) float tmp[MR][NR];
#pragma GCC unroll 16
    for (int i = 0; i < MR; ++i) {
#pragma GCC unroll 2
      for (int l = 0; l < kLanes; ++l) {
        _mm256_store_ps(&tmp[i][8 * l], acc[i][l]);
      }
    }
    for (int i = 0; i < m_eff; ++i) {
      float* c_row = c + i * ldc;
      for (int j = 0; j < n_eff; ++j) {
        c_row[j] += tmp[i][j];
      }
    }
  }
};

// --- mr x 4 register tiles (one xmm per row), inlined and unrolled alike ---

template <int MR>
struct Avx2Tile4 {
  [[gnu::always_inline]] static inline void Compute(int64_t kc, const float* a_panel,
                                                    const float* b_panel, int64_t ldb,
                                                    __m128 (&acc)[MR]) {
#pragma GCC unroll 16
    for (int i = 0; i < MR; ++i) {
      acc[i] = _mm_setzero_ps();
    }
    for (int64_t p = 0; p < kc; ++p) {
      const float* a = a_panel + p * MR;
      const __m128 bv = _mm_loadu_ps(b_panel + p * ldb);
#pragma GCC unroll 16
      for (int i = 0; i < MR; ++i) {
        acc[i] = _mm_fmadd_ps(_mm_broadcast_ss(a + i), bv, acc[i]);
      }
    }
  }

  static void Full(int64_t kc, const float* a_panel, const float* b_panel, int64_t ldb, float* c,
                   int64_t ldc) {
    __m128 acc[MR];
    Compute(kc, a_panel, b_panel, ldb, acc);
#pragma GCC unroll 16
    for (int i = 0; i < MR; ++i) {
      float* c_row = c + i * ldc;
      _mm_storeu_ps(c_row, _mm_add_ps(_mm_loadu_ps(c_row), acc[i]));
    }
  }

  static void Edge(int64_t kc, const float* a_panel, const float* b_panel, int64_t ldb, float* c,
                   int64_t ldc, int m_eff, int n_eff) {
    __m128 acc[MR];
    Compute(kc, a_panel, b_panel, ldb, acc);
    alignas(16) float tmp[MR][4];
#pragma GCC unroll 16
    for (int i = 0; i < MR; ++i) {
      _mm_store_ps(tmp[i], acc[i]);
    }
    for (int i = 0; i < m_eff; ++i) {
      float* c_row = c + i * ldc;
      for (int j = 0; j < n_eff; ++j) {
        c_row[j] += tmp[i][j];
      }
    }
  }
};

// --- attention tile (microkernel.h): every per-row step is lane-wise or a
// fixed reduction tree, so rows sharing a tile never affect each other ---

// e^x for x <= 0: Cephes expf reduction and polynomial, about 1 ulp. x is
// clamped at ln(FLT_MIN), so callers mask lanes that must be exactly zero.
inline __m256 ExpNonPositive(__m256 x) {
  x = _mm256_max_ps(x, _mm256_set1_ps(-87.33f));
  const __m256 n =
      _mm256_floor_ps(_mm256_fmadd_ps(x, _mm256_set1_ps(1.44269504f), _mm256_set1_ps(0.5f)));
  x = _mm256_fnmadd_ps(n, _mm256_set1_ps(0.693359375f), x);
  x = _mm256_fnmadd_ps(n, _mm256_set1_ps(-2.12194440e-4f), x);
  __m256 y = _mm256_set1_ps(1.9875691500e-4f);
  for (float c : {1.3981999507e-3f, 8.3334519073e-3f, 4.1665795894e-2f, 1.6666665459e-1f,
                  5.0000001201e-1f}) {
    y = _mm256_fmadd_ps(y, x, _mm256_set1_ps(c));
  }
  y = _mm256_add_ps(_mm256_fmadd_ps(y, _mm256_mul_ps(x, x), x), _mm256_set1_ps(1.0f));
  const __m256i exponent = _mm256_add_epi32(_mm256_cvttps_epi32(n), _mm256_set1_epi32(127));
  return _mm256_mul_ps(y, _mm256_castsi256_ps(_mm256_slli_epi32(exponent, 23)));
}

// op folded over the 8 lanes of v in a fixed tree.
template <typename Op>
inline float Reduce(__m256 v, Op op) {
  __m128 r = op(_mm256_castps256_ps128(v), _mm256_extractf128_ps(v, 1));
  r = op(r, _mm_movehl_ps(r, r));
  return _mm_cvtss_f32(op(r, _mm_shuffle_ps(r, r, 1)));
}

// All-ones in the first min(n, 8) lanes, for masked loads and stores.
inline __m256i LaneMask(int64_t n) {
  return _mm256_cmpgt_epi32(_mm256_set1_epi32(static_cast<int>(std::min<int64_t>(n, 8))),
                            _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7));
}

// The 16 floats at p under the two lane masks; masked lanes read as zero.
inline void LoadCols(const float* p, const __m256i (&mask)[2], __m256 (&x)[2]) {
  x[0] = _mm256_maskload_ps(p, mask[0]);
  x[1] = _mm256_maskload_ps(p + 8, mask[1]);
}

// w[r + i][j] = sum over c < d_head of q[(r + i) * ld + c] * k[c * panel + j]
// for the R rows from r and the tile's 16 keys, in c order. A full tile
// loads each key column whole; a ragged one (keys < 16) loads it under the
// masks, so no lane reads past the tile and the missing keys score zero.
template <int R, bool kFullTile>
inline void RowScores(const AttentionTile& t, int64_t r, const __m256i (&mask)[2],
                      float (*w)[kAttentionTile]) {
  const float* q = t.q + r * t.ld;
  __m256 lo[R];
  __m256 hi[R];
#pragma GCC unroll 4
  for (int i = 0; i < R; ++i) {
    lo[i] = _mm256_setzero_ps();
    hi[i] = _mm256_setzero_ps();
  }
  for (int64_t c = 0; c < t.d_head; ++c) {
    const float* col = t.k + c * t.panel;
    __m256 k[2];
    if (kFullTile) {
      k[0] = _mm256_loadu_ps(col);
      k[1] = _mm256_loadu_ps(col + 8);
    } else {
      LoadCols(col, mask, k);
    }
#pragma GCC unroll 4
    for (int i = 0; i < R; ++i) {
      const __m256 qc = _mm256_broadcast_ss(q + i * t.ld + c);
      lo[i] = _mm256_fmadd_ps(qc, k[0], lo[i]);
      hi[i] = _mm256_fmadd_ps(qc, k[1], hi[i]);
    }
  }
#pragma GCC unroll 4
  for (int i = 0; i < R; ++i) {
    _mm256_store_ps(w[r + i], lo[i]);
    _mm256_store_ps(w[r + i] + 8, hi[i]);
  }
}

// Every row's scores against the tile, four rows at a time; each row's sums
// are the same whichever block it shares.
template <bool kFullTile>
inline void TileScores(const AttentionTile& t, float (*w)[kAttentionTile]) {
  const __m256i mask[2] = {LaneMask(t.keys), LaneMask(t.keys - 8)};
  int64_t r = t.First();
  for (; r + 4 <= t.rows; r += 4) {
    RowScores<4, kFullTile>(t, r, mask, w);
  }
  for (; r < t.rows; ++r) {
    RowScores<1, kFullTile>(t, r, mask, w);
  }
}

// out[r + i] = out[r + i] * alpha[r + i] + sum over j < Visible(r + i) of
// w[r + i][j] * v[j] for the R rows from r, 16 columns per pass, so the rows
// share each V load. Every row keeps its own chains, even keys in one and odd
// keys in the other, each in key order: keys both rows see go through the
// shared loop, and a row that sees more keys (a pair straddling the causal
// diagonal) continues its chains alone. A row's bits therefore match the
// one-row pass.
template <int R>
inline void FoldValues(const AttentionTile& t, int64_t r, const float (*w)[kAttentionTile],
                       const float* alpha) {
  int64_t n[R];
  for (int i = 0; i < R; ++i) {
    n[i] = t.Visible(r + i);
  }
  const int64_t shared = *std::min_element(n, n + R);
  for (int64_t c = 0; c < t.d_head; c += 16) {
    const __m256i mask[2] = {LaneMask(t.d_head - c), LaneMask(t.d_head - c - 8)};
    const float* v = t.v + c;
    __m256 even[R][2];
    __m256 odd[R][2];
#pragma GCC unroll 2
    for (int i = 0; i < R; ++i) {
      even[i][0] = even[i][1] = odd[i][0] = odd[i][1] = _mm256_setzero_ps();
    }
    int64_t j = 0;
    for (; j + 2 <= shared; j += 2) {
      __m256 v0[2];
      __m256 v1[2];
      LoadCols(v + j * t.ld, mask, v0);
      LoadCols(v + (j + 1) * t.ld, mask, v1);
#pragma GCC unroll 2
      for (int i = 0; i < R; ++i) {
        const __m256 w0 = _mm256_broadcast_ss(w[r + i] + j);
        const __m256 w1 = _mm256_broadcast_ss(w[r + i] + j + 1);
#pragma GCC unroll 2
        for (int h = 0; h < 2; ++h) {
          even[i][h] = _mm256_fmadd_ps(w0, v0[h], even[i][h]);
          odd[i][h] = _mm256_fmadd_ps(w1, v1[h], odd[i][h]);
        }
      }
    }
#pragma GCC unroll 2
    for (int i = 0; i < R; ++i) {
      for (int64_t key = j; key < n[i]; ++key) {
        __m256 vk[2];
        LoadCols(v + key * t.ld, mask, vk);
        const __m256 wk = _mm256_broadcast_ss(w[r + i] + key);
        if (key % 2 == 0) {
          even[i][0] = _mm256_fmadd_ps(wk, vk[0], even[i][0]);
          even[i][1] = _mm256_fmadd_ps(wk, vk[1], even[i][1]);
        } else {
          odd[i][0] = _mm256_fmadd_ps(wk, vk[0], odd[i][0]);
          odd[i][1] = _mm256_fmadd_ps(wk, vk[1], odd[i][1]);
        }
      }
      float* o = t.out + (r + i) * t.ld + c;
      __m256 prev[2];
      LoadCols(o, mask, prev);
      const __m256 a = _mm256_set1_ps(alpha[r + i]);
#pragma GCC unroll 2
      for (int h = 0; h < 2; ++h) {
        _mm256_maskstore_ps(o + 8 * h, mask[h],
                            _mm256_fmadd_ps(prev[h], a, _mm256_add_ps(even[i][h], odd[i][h])));
      }
    }
  }
}

}  // namespace

const std::vector<MicroKernelEntry>& Avx2MicroKernelTable() {
  // Same (mr, nr) set as the scalar table in gemm.cc — keep in sync; the
  // differential harness sweeps both tables and fails on drift.
  static const std::vector<MicroKernelEntry> table = {
      {4, 4, KernelVariant::kAvx2, Avx2Tile4<4>::Full, Avx2Tile4<4>::Edge},
      {4, 8, KernelVariant::kAvx2, Avx2Tile<4, 8>::Full, Avx2Tile<4, 8>::Edge},
      {4, 16, KernelVariant::kAvx2, Avx2Tile<4, 16>::Full, Avx2Tile<4, 16>::Edge},
      {8, 4, KernelVariant::kAvx2, Avx2Tile4<8>::Full, Avx2Tile4<8>::Edge},
      {8, 8, KernelVariant::kAvx2, Avx2Tile<8, 8>::Full, Avx2Tile<8, 8>::Edge},
      {8, 16, KernelVariant::kAvx2, Avx2Tile<8, 16>::Full, Avx2Tile<8, 16>::Edge},
      {16, 8, KernelVariant::kAvx2, Avx2Tile<16, 8>::Full, Avx2Tile<16, 8>::Edge},
      {16, 16, KernelVariant::kAvx2, Avx2Tile<16, 16>::Full, Avx2Tile<16, 16>::Edge},
  };
  return table;
}

void AttentionTileAvx2(const AttentionTile& t) {
  alignas(32) float w[kAttentionQueryBlock][kAttentionTile];  // scores, then weights
  float alpha[kAttentionQueryBlock];
  if (t.keys == kAttentionTile) {
    TileScores<true>(t, w);
  } else {
    TileScores<false>(t, w);
  }

  const __m256 scale = _mm256_set1_ps(t.scale);
  const __m256 neg_inf = _mm256_set1_ps(-INFINITY);
  for (int64_t r = t.First(); r < t.rows; ++r) {
    const __m256 n = _mm256_set1_ps(static_cast<float>(t.Visible(r)));
    const __m256 keep_lo = _mm256_cmp_ps(_mm256_setr_ps(0, 1, 2, 3, 4, 5, 6, 7), n, _CMP_LT_OQ);
    const __m256 keep_hi =
        _mm256_cmp_ps(_mm256_setr_ps(8, 9, 10, 11, 12, 13, 14, 15), n, _CMP_LT_OQ);
    const __m256 s_lo =
        _mm256_blendv_ps(neg_inf, _mm256_mul_ps(_mm256_load_ps(w[r]), scale), keep_lo);
    const __m256 s_hi =
        _mm256_blendv_ps(neg_inf, _mm256_mul_ps(_mm256_load_ps(w[r] + 8), scale), keep_hi);
    const float tile_max =
        Reduce(_mm256_max_ps(s_lo, s_hi), [](__m128 a, __m128 b) { return _mm_max_ps(a, b); });
    const float m_new = std::max(t.m[r], tile_max);
    alpha[r] = m_new == t.m[r] ? 1.0f : std::exp(t.m[r] - m_new);
    const __m256 shift = _mm256_set1_ps(m_new);
    const __m256 w_lo = _mm256_and_ps(ExpNonPositive(_mm256_sub_ps(s_lo, shift)), keep_lo);
    const __m256 w_hi = _mm256_and_ps(ExpNonPositive(_mm256_sub_ps(s_hi, shift)), keep_hi);
    _mm256_store_ps(w[r], w_lo);
    _mm256_store_ps(w[r] + 8, w_hi);
    t.l[r] = t.l[r] * alpha[r] +
             Reduce(_mm256_add_ps(w_lo, w_hi), [](__m128 a, __m128 b) { return _mm_add_ps(a, b); });
    t.m[r] = m_new;
  }

  // out = out * alpha + weights x V, two rows at a time.
  int64_t r = t.First();
  for (; r + 2 <= t.rows; r += 2) {
    FoldValues<2>(t, r, w, alpha);
  }
  if (r < t.rows) {
    FoldValues<1>(t, r, w, alpha);
  }
}

// silu(x) = x / (1 + e^-x) = x * s / (1 + t) with t = e^-|x|, always in
// ExpNonPositive's range, and s = 1 for x >= 0, t otherwise. The tail of
// fewer than 8 values runs the same lanes under a mask.
void SiluAvx2(float* x, int64_t n) {
  const __m256 one = _mm256_set1_ps(1.0f);
  const __m256 sign = _mm256_set1_ps(-0.0f);
  auto silu = [&](__m256 v) {
    const __m256 t = ExpNonPositive(_mm256_or_ps(v, sign));
    // blendv takes x * t in the lanes whose sign bit is set.
    return _mm256_div_ps(_mm256_blendv_ps(v, _mm256_mul_ps(v, t), v), _mm256_add_ps(one, t));
  };
  int64_t i = 0;
  for (; i + 8 <= n; i += 8) {
    _mm256_storeu_ps(x + i, silu(_mm256_loadu_ps(x + i)));
  }
  if (i < n) {
    const __m256i mask = LaneMask(n - i);
    _mm256_maskstore_ps(x + i, mask, silu(_mm256_maskload_ps(x + i, mask)));
  }
}

float FmaPeakLoopAvx2(int64_t steps) {
  constexpr int kChains = 12;
  __m256 acc[kChains];
  const __m256 a = _mm256_set1_ps(0.999f);
  const __m256 b = _mm256_set1_ps(1e-3f);
#pragma GCC unroll 12
  for (int i = 0; i < kChains; ++i) {
    acc[i] = _mm256_set1_ps(static_cast<float>(i));
  }
  for (int64_t s = 0; s < steps; ++s) {
#pragma GCC unroll 12
    for (int i = 0; i < kChains; ++i) {
      acc[i] = _mm256_fmadd_ps(acc[i], a, b);
    }
  }
  __m256 sum = _mm256_setzero_ps();
#pragma GCC unroll 12
  for (int i = 0; i < kChains; ++i) {
    sum = _mm256_add_ps(sum, acc[i]);
  }
  return Reduce(sum, [](__m128 x, __m128 y) { return _mm_add_ps(x, y); });
}

}  // namespace vlora

#else  // !(__AVX2__ && __FMA__): baseline-ISA build of this file

namespace vlora {

const std::vector<MicroKernelEntry>& Avx2MicroKernelTable() {
  static const std::vector<MicroKernelEntry> empty;
  return empty;
}

void AttentionTileAvx2(const AttentionTile& tile) { AttentionTileScalar(tile); }

void SiluAvx2(float* x, int64_t n) { SiluScalar(x, n); }

float FmaPeakLoopAvx2(int64_t) { return 0.0f; }

}  // namespace vlora

#endif
