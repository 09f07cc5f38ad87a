// AVX-512 micro-kernels and attention tile: the nr = 16 register tiles and
// the 16-key attention tile on zmm registers, built with -mavx2 -mfma
// -mavx512f -ffp-contract=off (src/kernels/CMakeLists.txt) and reached only
// through the runtime probe; without compiler support the file compiles to
// an empty table and dispatch stays on AVX2.
//
// Every output is bitwise the AVX2 variant's (microkernel_avx2.cc): each zmm
// lane runs the operations of the matching ymm lane there, in the same order
// (C elements, scores and weights x V columns keep their FMA chains; the tile
// max and weight sum fold lanes j and j + 8 first, as the AVX2 tile folds its
// two ymm halves), and ATMM serves this variant AVX2's tile configs.

#include "src/kernels/microkernel.h"

#if defined(__AVX512F__) && defined(__FMA__)

// GCC 12's AVX-512 intrinsics pass a self-initialised vector as the unused
// merge source, which -Wuninitialized reports at every use (GCC bug 105593).
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wuninitialized"
#pragma GCC diagnostic ignored "-Wmaybe-uninitialized"
#include <immintrin.h>
#pragma GCC diagnostic pop

#include <array>
#include <cmath>

namespace vlora {
namespace {

// --- mr x 16 register tiles: one zmm accumulator per row, inlined, unrolled
// and unrolled by two k steps like Avx2Tile; with 32 zmm registers even the
// 16 x 16 tile keeps every accumulator in a register ---
template <int MR>
struct Avx512Tile {
  [[gnu::always_inline]] static inline void Compute(int64_t kc, const float* a_panel,
                                                    const float* b_panel, int64_t ldb,
                                                    __m512 (&acc)[MR]) {
#pragma GCC unroll 16
    for (int i = 0; i < MR; ++i) {
      acc[i] = _mm512_setzero_ps();
    }
    int64_t p = 0;
    for (; p + 2 <= kc; p += 2) {
      const float* a = a_panel + p * MR;
      const float* b = b_panel + p * ldb;
      const __m512 bv0 = _mm512_loadu_ps(b);
      const __m512 bv1 = _mm512_loadu_ps(b + ldb);
#pragma GCC unroll 16
      for (int i = 0; i < MR; ++i) {
        acc[i] = _mm512_fmadd_ps(_mm512_set1_ps(a[i]), bv0, acc[i]);
        acc[i] = _mm512_fmadd_ps(_mm512_set1_ps(a[MR + i]), bv1, acc[i]);
      }
    }
    for (; p < kc; ++p) {
      const float* a = a_panel + p * MR;
      const __m512 bv = _mm512_loadu_ps(b_panel + p * ldb);
#pragma GCC unroll 16
      for (int i = 0; i < MR; ++i) {
        acc[i] = _mm512_fmadd_ps(_mm512_set1_ps(a[i]), bv, acc[i]);
      }
    }
  }

  static void Full(int64_t kc, const float* a_panel, const float* b_panel, int64_t ldb, float* c,
                   int64_t ldc) {
    __m512 acc[MR];
    Compute(kc, a_panel, b_panel, ldb, acc);
#pragma GCC unroll 16
    for (int i = 0; i < MR; ++i) {
      float* c_row = c + i * ldc;
      _mm512_storeu_ps(c_row, _mm512_add_ps(_mm512_loadu_ps(c_row), acc[i]));
    }
  }

  static void Edge(int64_t kc, const float* a_panel, const float* b_panel, int64_t ldb, float* c,
                   int64_t ldc, int m_eff, int n_eff) {
    __m512 acc[MR];
    Compute(kc, a_panel, b_panel, ldb, acc);
    alignas(64) float tmp[MR][16];
#pragma GCC unroll 16
    for (int i = 0; i < MR; ++i) {
      _mm512_store_ps(tmp[i], acc[i]);
    }
    for (int i = 0; i < m_eff; ++i) {
      float* c_row = c + i * ldc;
      for (int j = 0; j < n_eff; ++j) {
        c_row[j] += tmp[i][j];
      }
    }
  }
};

// Same (mr, nr) set as the scalar table in gemm.cc; every AVX-512 host runs
// AVX2, so the narrower tiles are the AVX2 ones.
constexpr std::array<MicroKernelEntry, 8> kTable = {{
    {4, 4, KernelVariant::kAvx512, Avx2Tiles<4, 4>::Full, Avx2Tiles<4, 4>::Edge},
    {4, 8, KernelVariant::kAvx512, Avx2Tiles<4, 8>::Full, Avx2Tiles<4, 8>::Edge},
    {4, 16, KernelVariant::kAvx512, Avx512Tile<4>::Full, Avx512Tile<4>::Edge},
    {8, 4, KernelVariant::kAvx512, Avx2Tiles<8, 4>::Full, Avx2Tiles<8, 4>::Edge},
    {8, 8, KernelVariant::kAvx512, Avx2Tiles<8, 8>::Full, Avx2Tiles<8, 8>::Edge},
    {8, 16, KernelVariant::kAvx512, Avx512Tile<8>::Full, Avx512Tile<8>::Edge},
    {16, 8, KernelVariant::kAvx512, Avx2Tiles<16, 8>::Full, Avx2Tiles<16, 8>::Edge},
    {16, 16, KernelVariant::kAvx512, Avx512Tile<16>::Full, Avx512Tile<16>::Edge},
}};

// --- attention tile: AttentionTileAvx2 with each pair of ymm in one zmm ---

// ExpNonPositive (microkernel_avx2.cc) on 16 lanes: the same operations in
// the same order, with floor as a round toward -inf.
inline __m512 ExpNonPositive(__m512 x) {
  x = _mm512_max_ps(x, _mm512_set1_ps(-87.33f));
  const __m512 n =
      _mm512_roundscale_ps(_mm512_fmadd_ps(x, _mm512_set1_ps(1.44269504f), _mm512_set1_ps(0.5f)),
                           _MM_FROUND_TO_NEG_INF | _MM_FROUND_NO_EXC);
  x = _mm512_fnmadd_ps(n, _mm512_set1_ps(0.693359375f), x);
  x = _mm512_fnmadd_ps(n, _mm512_set1_ps(-2.12194440e-4f), x);
  __m512 y = _mm512_set1_ps(1.9875691500e-4f);
  for (float c : {1.3981999507e-3f, 8.3334519073e-3f, 4.1665795894e-2f, 1.6666665459e-1f,
                  5.0000001201e-1f}) {
    y = _mm512_fmadd_ps(y, x, _mm512_set1_ps(c));
  }
  y = _mm512_add_ps(_mm512_fmadd_ps(y, _mm512_mul_ps(x, x), x), _mm512_set1_ps(1.0f));
  const __m512i exponent = _mm512_add_epi32(_mm512_cvttps_epi32(n), _mm512_set1_epi32(127));
  return _mm512_mul_ps(y, _mm512_castsi512_ps(_mm512_slli_epi32(exponent, 23)));
}

// op folded over the 16 lanes of v into lane 0: lanes j and j + 8 first,
// then the AVX2 tile's Reduce tree (j and j + 4, j + 2, j + 1), operand for
// operand.
template <typename Op>
inline float Reduce(__m512 v, Op op) {
  v = op(v, _mm512_shuffle_f32x4(v, v, 0x4E));
  v = op(v, _mm512_shuffle_f32x4(v, v, 0xB1));
  v = op(v, _mm512_permute_ps(v, 0x4E));
  return _mm512_cvtss_f32(op(v, _mm512_permute_ps(v, 0xB1)));
}

inline __m512 Max(__m512 a, __m512 b) { return _mm512_max_ps(a, b); }
inline __m512 Add(__m512 a, __m512 b) { return _mm512_add_ps(a, b); }

// Set in the first n lanes, 0 <= n <= 16.
inline __mmask16 LaneMask(int64_t n) { return static_cast<__mmask16>((1u << n) - 1); }

// w[r + i] = the R rows' scores against the tile's 16 keys, each a chain
// over c < d_head in c order. Key columns load under the key mask, so the
// keys past a ragged tile score zero, as in the AVX2 tile.
template <int R>
inline void RowScores(const AttentionTile& t, int64_t r, __mmask16 keys,
                      float (*w)[kAttentionTile]) {
  const float* q = t.q + r * t.ld;
  __m512 s[R];
#pragma GCC unroll 8
  for (int i = 0; i < R; ++i) {
    s[i] = _mm512_setzero_ps();
  }
  for (int64_t c = 0; c < t.d_head; ++c) {
    const __m512 k = _mm512_maskz_loadu_ps(keys, t.k + c * t.panel);
#pragma GCC unroll 8
    for (int i = 0; i < R; ++i) {
      s[i] = _mm512_fmadd_ps(_mm512_set1_ps(q[i * t.ld + c]), k, s[i]);
    }
  }
#pragma GCC unroll 8
  for (int i = 0; i < R; ++i) {
    _mm512_store_ps(w[r + i], s[i]);
  }
}

// The AVX2 tile's FoldValues with 16 columns in one zmm: each of the R rows
// keeps its own even and odd key chains in key order, through the keys the
// rows share and then alone, so its bits do not depend on its partners.
template <int R>
inline void FoldValues(const AttentionTile& t, int64_t r, const float (*w)[kAttentionTile],
                       const float* alpha) {
  int64_t n[R];
  int64_t shared = t.keys;
  for (int i = 0; i < R; ++i) {
    n[i] = t.Visible(r + i);
    shared = std::min(shared, n[i]);
  }
  for (int64_t c = 0; c < t.d_head; c += 16) {
    const __mmask16 mask = LaneMask(std::min<int64_t>(t.d_head - c, 16));
    const float* v = t.v + c;
    __m512 even[R];
    __m512 odd[R];
#pragma GCC unroll 4
    for (int i = 0; i < R; ++i) {
      even[i] = odd[i] = _mm512_setzero_ps();
    }
    int64_t j = 0;
    for (; j + 2 <= shared; j += 2) {
      const __m512 v0 = _mm512_maskz_loadu_ps(mask, v + j * t.ld);
      const __m512 v1 = _mm512_maskz_loadu_ps(mask, v + (j + 1) * t.ld);
#pragma GCC unroll 4
      for (int i = 0; i < R; ++i) {
        even[i] = _mm512_fmadd_ps(_mm512_set1_ps(w[r + i][j]), v0, even[i]);
        odd[i] = _mm512_fmadd_ps(_mm512_set1_ps(w[r + i][j + 1]), v1, odd[i]);
      }
    }
#pragma GCC unroll 4
    for (int i = 0; i < R; ++i) {
      for (int64_t key = j; key < n[i]; ++key) {
        const __m512 vk = _mm512_maskz_loadu_ps(mask, v + key * t.ld);
        const __m512 wk = _mm512_set1_ps(w[r + i][key]);
        if (key % 2 == 0) {
          even[i] = _mm512_fmadd_ps(wk, vk, even[i]);
        } else {
          odd[i] = _mm512_fmadd_ps(wk, vk, odd[i]);
        }
      }
      float* o = t.out + (r + i) * t.ld + c;
      const __m512 prev = _mm512_maskz_loadu_ps(mask, o);
      _mm512_mask_storeu_ps(o, mask,
                            _mm512_fmadd_ps(prev, _mm512_set1_ps(alpha[r + i]),
                                            _mm512_add_ps(even[i], odd[i])));
    }
  }
}

}  // namespace

std::span<const MicroKernelEntry> Avx512MicroKernelTable() { return kTable; }

void AttentionTileAvx512(const AttentionTile& t) {
  alignas(64) float w[kAttentionQueryBlock][kAttentionTile];  // scores, then weights
  float alpha[kAttentionQueryBlock];
  // Scores eight rows at a time: eight independent chains hide FMA latency.
  const __mmask16 keys = LaneMask(t.keys);
  int64_t r = t.First();
  for (; r + 8 <= t.rows; r += 8) {
    RowScores<8>(t, r, keys, w);
  }
  for (; r < t.rows; ++r) {
    RowScores<1>(t, r, keys, w);
  }

  const __m512 scale = _mm512_set1_ps(t.scale);
  const __m512 neg_inf = _mm512_set1_ps(-INFINITY);
  for (r = t.First(); r < t.rows; ++r) {
    const __mmask16 keep = LaneMask(t.Visible(r));
    const __m512 s =
        _mm512_mask_blend_ps(keep, neg_inf, _mm512_mul_ps(_mm512_load_ps(w[r]), scale));
    const float m_new = std::max(t.m[r], Reduce(s, Max));
    alpha[r] = m_new == t.m[r] ? 1.0f : std::exp(t.m[r] - m_new);
    const __m512 p =
        _mm512_maskz_mov_ps(keep, ExpNonPositive(_mm512_sub_ps(s, _mm512_set1_ps(m_new))));
    _mm512_store_ps(w[r], p);
    t.l[r] = std::fma(t.l[r], alpha[r], Reduce(p, Add));
    t.m[r] = m_new;
  }

  // out = out * alpha + weights x V, four rows at a time (two are latency-bound).
  for (r = t.First(); r + 4 <= t.rows; r += 4) {
    FoldValues<4>(t, r, w, alpha);
  }
  for (; r < t.rows; ++r) {
    FoldValues<1>(t, r, w, alpha);
  }
}

float FmaPeakLoopAvx512(int64_t steps) {
  __m512 acc[kFmaPeakChains];
  const __m512 a = _mm512_set1_ps(0.999f);
  const __m512 b = _mm512_set1_ps(1e-3f);
#pragma GCC unroll 12
  for (int i = 0; i < kFmaPeakChains; ++i) {
    acc[i] = _mm512_set1_ps(static_cast<float>(i));
  }
  for (int64_t s = 0; s < steps; ++s) {
#pragma GCC unroll 12
    for (int i = 0; i < kFmaPeakChains; ++i) {
      acc[i] = _mm512_fmadd_ps(acc[i], a, b);
    }
  }
  __m512 sum = _mm512_setzero_ps();
#pragma GCC unroll 12
  for (int i = 0; i < kFmaPeakChains; ++i) {
    sum = _mm512_add_ps(sum, acc[i]);
  }
  return Reduce(sum, Add);
}

}  // namespace vlora

#else  // !(__AVX512F__ && __FMA__): baseline-ISA build of this file

namespace vlora {

std::span<const MicroKernelEntry> Avx512MicroKernelTable() { return {}; }
void AttentionTileAvx512(const AttentionTile& tile) { AttentionTileAvx2(tile); }
float FmaPeakLoopAvx512(int64_t) { return 0.0f; }

}  // namespace vlora

#endif
