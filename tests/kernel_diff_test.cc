// Differential kernel-test harness (the proof obligation for the SIMD
// compute path).
//
// Every compiled micro-kernel instantiation of every variant is swept over a
// shape grid that exercises full tiles, non-multiple-of-tile edges in each
// dimension, the m = 1 decode shape and rank-sized LoRA shapes. Results are
// compared against a double-precision reference with a hybrid bound — an
// absolute accumulation-error term of k * 3 * eps plus a ULP term — because
// the AVX2 kernels use FMA (one rounding per multiply-add) while the scalar
// kernels round twice, so bitwise equality across variants is not the
// contract. Everything is seeded; every variant is run twice and must be
// bitwise identical to itself.
//
// Attention (transformer_ops.h) gets the same treatment against a
// double-precision two-pass softmax over paged K/V spans at KV block sizes 8,
// 16 and 32, plus the per-row invariant the engine relies on: within a
// variant, a query row's output is bitwise identical whether it is computed
// in a whole prefill, in a chunk after a block-aligned reused prefix, in a
// two-row call across the causal diagonal, or alone as a decode row.

#include <gtest/gtest.h>

#include <algorithm>
#include <cfloat>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <set>
#include <tuple>
#include <vector>

#include "src/common/rng.h"
#include "src/kernels/gemm.h"
#include "src/kernels/kernel_variant.h"
#include "src/kernels/microkernel.h"
#include "src/kernels/transformer_ops.h"
#include "src/tensor/tensor.h"

namespace vlora {
namespace {

constexpr float kEps = 1.1920929e-7f;  // FLT_EPSILON

// C = A * B accumulated in double; the reference every variant is judged by.
std::vector<double> RefGemmDouble(const float* a, const float* b, int64_t m, int64_t n,
                                  int64_t k) {
  std::vector<double> c(static_cast<size_t>(m * n), 0.0);
  for (int64_t i = 0; i < m; ++i) {
    for (int64_t p = 0; p < k; ++p) {
      const double aip = static_cast<double>(a[i * k + p]);
      for (int64_t j = 0; j < n; ++j) {
        c[static_cast<size_t>(i * n + j)] += aip * static_cast<double>(b[p * n + j]);
      }
    }
  }
  return c;
}

// Distance in units-in-the-last-place between two floats (sign-magnitude
// integer ordering, the usual ULP metric).
int64_t UlpDistance(float x, float y) {
  if (x == y) {
    return 0;
  }
  int32_t ix;
  int32_t iy;
  std::memcpy(&ix, &x, sizeof(ix));
  std::memcpy(&iy, &y, sizeof(iy));
  auto key = [](int32_t i) -> int64_t {
    return i < 0 ? static_cast<int64_t>(INT32_MIN) - i : static_cast<int64_t>(i);
  };
  return std::abs(key(ix) - key(iy));
}

// Hybrid accumulation bound: absolute term covering k rounded multiply-adds
// of |a|,|b| <= scale operands, with a small ULP floor for large magnitudes.
void ExpectCloseToReference(const float* actual, const std::vector<double>& ref, int64_t count,
                            int64_t k, float operand_scale, const char* what) {
  const double abs_tol =
      3.0 * static_cast<double>(k) * static_cast<double>(kEps) * operand_scale * operand_scale;
  for (int64_t i = 0; i < count; ++i) {
    const double r = ref[static_cast<size_t>(i)];
    const double err = std::fabs(static_cast<double>(actual[i]) - r);
    const double ulp_tol = 64.0 * static_cast<double>(kEps) * std::fabs(r);
    ASSERT_LE(err, std::max(abs_tol, ulp_tol))
        << what << " element " << i << ": " << actual[i] << " vs " << r;
  }
}

struct DiffShape {
  int64_t m;
  int64_t n;
  int64_t k;
};

// Shape grid: full-tile, edge in each dimension, decode, LoRA-rank shapes.
std::vector<DiffShape> SweepShapes(int mr, int nr) {
  return {
      {mr, nr, 32},                          // exactly one micro-tile
      {3 * mr + 1, 3 * nr + 1, 33},          // edges in m, n and k at once
      {mr - 1, nr - 1, 7},                   // smaller than one tile
      {1, 64, 96},                           // m = 1 decode row
      {1, 16, 512},                          // decode through a down-projection
      {37, 16, 192},                         // prefill x (d -> rank), rank 16
      {37, 192, 16},                         // prefill x (rank -> d)
      {64, 48, 80},                          // none of m/n/k tile-aligned
  };
}

// A tiling config that legally wraps (mr, nr): block sizes are the smallest
// powers of two >= 2x the register tile, so every sweep shape produces both
// interior and edge micro-tiles.
TileConfig WrapConfig(int mr, int nr) {
  TileConfig config;
  config.mr = mr;
  config.nr = nr;
  config.mc = 2 * mr;
  config.nc = 2 * nr;
  config.kc = 32;
  return config;
}

TEST(KernelTableTest, VariantsExposeTheSameInstantiationSet) {
  const auto scalar = MicroKernelShapes(KernelVariant::kScalar);
  EXPECT_FALSE(scalar.empty());
  for (KernelVariant variant : AvailableKernelVariants()) {
    EXPECT_EQ(MicroKernelShapes(variant), scalar) << KernelVariantName(variant);
  }
  // Every entry carries its own variant tag and non-null kernels.
  for (KernelVariant variant : AvailableKernelVariants()) {
    for (const MicroKernelEntry& entry : MicroKernelTable(variant)) {
      EXPECT_EQ(entry.variant, variant);
      EXPECT_NE(entry.full, nullptr);
      EXPECT_NE(entry.edge, nullptr);
    }
  }
}

// The core differential sweep: every variant x every compiled (mr, nr)
// instantiation x every shape, against the double reference.
TEST(KernelDiffTest, EveryMicroKernelMatchesDoubleReference) {
  std::set<std::tuple<std::string, int, int>> covered;
  for (KernelVariant variant : AvailableKernelVariants()) {
    for (const auto& [mr, nr] : MicroKernelShapes(variant)) {
      covered.insert({KernelVariantName(variant), mr, nr});
      const TileConfig config = WrapConfig(mr, nr);
      ASSERT_TRUE(config.Valid()) << config.ToString();
      for (const DiffShape& shape : SweepShapes(mr, nr)) {
        Rng rng(0xD1FFull ^ static_cast<uint64_t>(shape.m * 73 + shape.n * 31 + shape.k));
        Tensor a = Tensor::Random(Shape(shape.m, shape.k), rng, 1.0f);
        Tensor b = Tensor::Random(Shape(shape.k, shape.n), rng, 1.0f);
        Tensor c = Tensor::Zeros(Shape(shape.m, shape.n));
        GemmWorkspace workspace;
        GemmTiled(a.data(), b.data(), c.data(), shape.m, shape.n, shape.k, config, workspace,
                  variant);
        const auto ref = RefGemmDouble(a.data(), b.data(), shape.m, shape.n, shape.k);
        ExpectCloseToReference(c.data(), ref, shape.m * shape.n, shape.k, 1.0f,
                               KernelVariantName(variant));
      }
    }
  }
  // The sweep really covered every compiled instantiation of every variant.
  size_t expected = 0;
  for (KernelVariant variant : AvailableKernelVariants()) {
    expected += MicroKernelTable(variant).size();
  }
  EXPECT_EQ(covered.size(), expected);
}

// AVX2 against scalar directly: same config, same inputs, ULP-bounded (FMA
// contracts one rounding per term, so k * eps absolute + ULP floor).
TEST(KernelDiffTest, Avx2MatchesScalarWithinUlps) {
  if (!Avx2Available()) {
    GTEST_SKIP() << "host has no AVX2 kernels";
  }
  for (const auto& [mr, nr] : MicroKernelShapes(KernelVariant::kAvx2)) {
    const TileConfig config = WrapConfig(mr, nr);
    for (const DiffShape& shape : SweepShapes(mr, nr)) {
      Rng rng(0xFACEull + static_cast<uint64_t>(mr * 100 + nr));
      Tensor a = Tensor::Random(Shape(shape.m, shape.k), rng, 1.0f);
      Tensor b = Tensor::Random(Shape(shape.k, shape.n), rng, 1.0f);
      Tensor c_scalar = Tensor::Zeros(Shape(shape.m, shape.n));
      Tensor c_avx2 = Tensor::Zeros(Shape(shape.m, shape.n));
      GemmWorkspace workspace;
      GemmTiled(a.data(), b.data(), c_scalar.data(), shape.m, shape.n, shape.k, config,
                workspace, KernelVariant::kScalar);
      GemmTiled(a.data(), b.data(), c_avx2.data(), shape.m, shape.n, shape.k, config, workspace,
                KernelVariant::kAvx2);
      const double abs_tol = 3.0 * static_cast<double>(shape.k) * static_cast<double>(kEps);
      for (int64_t i = 0; i < shape.m * shape.n; ++i) {
        const double err =
            std::fabs(static_cast<double>(c_scalar.data()[i]) - c_avx2.data()[i]);
        const bool ok = err <= abs_tol || UlpDistance(c_scalar.data()[i], c_avx2.data()[i]) <= 64;
        ASSERT_TRUE(ok) << mr << "x" << nr << " element " << i << ": scalar "
                        << c_scalar.data()[i] << " avx2 " << c_avx2.data()[i];
      }
    }
  }
}

// A row's GEMM result must not depend on how many rows share the call:
// continuous batching and servebench's solo re-run compare a row computed in
// a batch with the same row computed alone. A call of at most mr rows reads B
// in place when n is a multiple of nr (ReadsBInPlace), and so does a taller
// call while n <= kInPlaceMaxCols; a taller call over a wider B packs it.
// Every path must give the same bits, also across kc blocks (k > kc) and with
// a zero-padded edge panel (n not a multiple of nr, packed on both sides).
TEST(KernelDiffTest, GemmRowsDoNotDependOnTheBPath) {
  // A multiple of every nr, just past the widest B read in place when tall.
  const int64_t wide = (kInPlaceMaxCols / 16 + 1) * 16;
  for (KernelVariant variant : AvailableKernelVariants()) {
    for (const auto& [mr, nr] : MicroKernelShapes(variant)) {
      const TileConfig config = WrapConfig(mr, nr);
      const int64_t m = 3 * mr + 1;
      const int64_t k = 2 * config.kc + 5;
      for (int64_t n : std::initializer_list<int64_t>{4 * nr, 3 * nr + 1, wide}) {
        Rng rng(0x9A7Bull ^ static_cast<uint64_t>(mr * 1000 + nr * 10 + n));
        Tensor a = Tensor::Random(Shape(m, k), rng, 1.0f);
        Tensor b = Tensor::Random(Shape(k, n), rng, 1.0f);
        const Tensor c0 = Tensor::Random(Shape(m, n), rng, 1.0f);
        GemmWorkspace workspace;
        ASSERT_EQ(ReadsBInPlace(m, mr, n, nr), n % nr == 0 && n <= kInPlaceMaxCols);
        Tensor whole = c0.Clone();
        GemmTiled(a.data(), b.data(), whole.data(), m, n, k, config, workspace, variant);
        for (int64_t rows : {int64_t{1}, static_cast<int64_t>(mr)}) {
          Tensor split = c0.Clone();
          for (int64_t r0 = 0; r0 < m; r0 += rows) {
            const int64_t count = std::min(rows, m - r0);
            EXPECT_EQ(ReadsBInPlace(count, mr, n, nr), n % nr == 0);
            GemmTiled(a.data() + r0 * k, b.data(), split.data() + r0 * n, count, n, k, config,
                      workspace, variant);
          }
          ASSERT_EQ(0, std::memcmp(whole.data(), split.data(),
                                   static_cast<size_t>(m * n) * sizeof(float)))
              << KernelVariantName(variant) << " " << mr << "x" << nr << " n " << n
              << " in calls of " << rows << " rows";
        }
      }
    }
  }
}

// Seeded and deterministic: the same call twice is bitwise identical, for
// every variant.
TEST(KernelDiffTest, RunTwiceIsBitwiseIdentical) {
  const int64_t m = 33;
  const int64_t n = 49;
  const int64_t k = 97;
  Rng rng(0x5EEDull);
  Tensor a = Tensor::Random(Shape(m, k), rng, 1.0f);
  Tensor b = Tensor::Random(Shape(k, n), rng, 1.0f);
  const size_t c_bytes = static_cast<size_t>(m * n) * sizeof(float);
  for (KernelVariant variant : AvailableKernelVariants()) {
    Tensor c1 = Tensor::Zeros(Shape(m, n));
    Tensor c2 = Tensor::Zeros(Shape(m, n));
    GemmWorkspace workspace;
    GemmTiled(a.data(), b.data(), c1.data(), m, n, k, TileConfig{}, workspace, variant);
    GemmTiled(a.data(), b.data(), c2.data(), m, n, k, TileConfig{}, workspace, variant);
    EXPECT_EQ(0, std::memcmp(c1.data(), c2.data(), c_bytes)) << KernelVariantName(variant);
  }
}

// --- Attention -------------------------------------------------------------

// KV block sizes the attention suites run at: 8 is what engine_edge_test
// serves, 16 the engine default (one block per key tile), 32 two tiles per
// block.
const int64_t kKvBlocks[] = {8, 16, 32};

// Queries, keys and values for `ctx` positions, with K/V also stored as
// `block`-position pages in a pool in reverse block order, each laid out as
// a KvBlockManager block layer: K as a key panel `block` keys wide (column c
// of key j at [c * block + j]), then V as rows. The kernel reads scattered
// spans in place the way the engine reads KV blocks. The pool starts as NaN,
// so a kernel that folds in a key or value past a ragged page's last row
// fails every comparison.
struct AttentionCase {
  int64_t ctx = 0;
  int64_t block = 0;
  int heads = 0;
  int64_t d_head = 0;
  int64_t ld = 0;
  Tensor q;
  Tensor k;
  Tensor v;
  std::vector<float> pool;

  AttentionCase(int64_t ctx_in, int64_t block_in, int heads_in, int64_t d_head_in, uint64_t seed)
      : ctx(ctx_in), block(block_in), heads(heads_in), d_head(d_head_in), ld(heads_in * d_head_in) {
    Rng rng(seed);
    q = Tensor::Random(Shape(ctx, ld), rng, 1.0f);
    k = Tensor::Random(Shape(ctx, ld), rng, 1.0f);
    v = Tensor::Random(Shape(ctx, ld), rng, 1.0f);
    const int64_t blocks = (ctx + block - 1) / block;
    pool.assign(static_cast<size_t>(blocks * 2 * block * ld),
                std::numeric_limits<float>::quiet_NaN());
    for (int64_t b = 0; b < blocks; ++b) {
      for (int64_t j = 0; j < std::min(block, ctx - b * block); ++j) {
        const int64_t pos = b * block + j;
        for (int64_t c = 0; c < ld; ++c) {
          PageK(b)[c * block + j] = k.data()[pos * ld + c];
        }
        std::memcpy(PageV(b) + j * ld, v.data() + pos * ld,
                    static_cast<size_t>(ld) * sizeof(float));
      }
    }
  }

  float* PageK(int64_t b) {
    const int64_t slot = (ctx + block - 1) / block - 1 - b;
    return pool.data() + slot * 2 * block * ld;
  }
  float* PageV(int64_t b) { return PageK(b) + block * ld; }

  // One span per block over keys [0, keys); the last one may be ragged.
  std::vector<KvSpan> Spans(int64_t keys) {
    std::vector<KvSpan> spans;
    for (int64_t b = 0; b * block < keys; ++b) {
      spans.push_back({PageK(b), PageV(b), std::min(block, keys - b * block)});
    }
    return spans;
  }

  // Query rows [begin, end) against keys [0, keys). The output starts as NaN
  // so a column the kernel leaves unwritten fails every comparison.
  Tensor Run(int64_t begin, int64_t end, int64_t keys, bool causal, KernelVariant variant) {
    const std::vector<KvSpan> spans = Spans(keys);
    Tensor out = Tensor::Full(Shape(end - begin, ld), std::numeric_limits<float>::quiet_NaN());
    AttentionArgs args;
    args.q = q.data() + begin * ld;
    args.out = out.data();
    args.num_rows = end - begin;
    args.first_pos = begin;
    args.spans = spans.data();
    args.num_spans = static_cast<int64_t>(spans.size());
    args.ld = ld;
    args.panel = block;
    args.num_heads = heads;
    args.d_head = d_head;
    args.causal = causal;
    Attention(args, variant);
    return out;
  }

  // Two-pass softmax attention of every row over dense K/V, in double.
  std::vector<double> Reference(bool causal) const {
    std::vector<double> out(static_cast<size_t>(ctx * ld), 0.0);
    std::vector<double> w(static_cast<size_t>(ctx));
    const double scale = 1.0 / std::sqrt(static_cast<double>(d_head));
    for (int64_t i = 0; i < ctx; ++i) {
      const int64_t visible = causal ? i + 1 : ctx;
      for (int h = 0; h < heads; ++h) {
        const int64_t off = h * d_head;
        double max_score = -std::numeric_limits<double>::infinity();
        for (int64_t j = 0; j < visible; ++j) {
          double dot = 0.0;
          for (int64_t c = 0; c < d_head; ++c) {
            dot += static_cast<double>(q.data()[i * ld + off + c]) * k.data()[j * ld + off + c];
          }
          w[static_cast<size_t>(j)] = dot * scale;
          max_score = std::max(max_score, w[static_cast<size_t>(j)]);
        }
        double denom = 0.0;
        for (int64_t j = 0; j < visible; ++j) {
          w[static_cast<size_t>(j)] = std::exp(w[static_cast<size_t>(j)] - max_score);
          denom += w[static_cast<size_t>(j)];
        }
        for (int64_t j = 0; j < visible; ++j) {
          for (int64_t c = 0; c < d_head; ++c) {
            out[static_cast<size_t>(i * ld + off + c)] +=
                w[static_cast<size_t>(j)] / denom * v.data()[j * ld + off + c];
          }
        }
      }
    }
    return out;
  }
};

// Hybrid bound for an attention output: each weight carries the rounding of
// a d_head-term dot product and an exp, and the output sums `visible` of
// them (|v| <= 1); a 64-ULP floor covers large magnitudes.
bool AttentionClose(double actual, double expected, int64_t visible, int64_t d_head) {
  const double abs_tol = 4.0 * static_cast<double>(visible + d_head) * static_cast<double>(kEps);
  const double ulp_tol = 64.0 * static_cast<double>(kEps) * std::fabs(expected);
  return std::fabs(actual - expected) <= std::max(abs_tol, ulp_tol);
}

// Contexts around one block, plus one ending in a ragged block, at every
// block size; 392 (the video prefill) is ragged at block 32.
std::vector<int64_t> AttentionContexts(int64_t block) {
  return {1, block - 1, block, block + 1, 3 * block + 5, 392};
}
// 12 is read under lane masks, 24 and 80 end on a half-width column pass
// (weights x V folds 16 columns at a time).
const int64_t kAttentionHeadDims[] = {8, 12, 16, 24, 80};

TEST(AttentionDiffTest, EveryVariantMatchesDoubleReference) {
  for (KernelVariant variant : AvailableKernelVariants()) {
    for (int64_t block : kKvBlocks) {
      for (int64_t ctx : AttentionContexts(block)) {
        for (int64_t d_head : kAttentionHeadDims) {
          for (bool causal : {true, false}) {
            AttentionCase c(ctx, block, 2, d_head,
                            0xA77Eull ^ static_cast<uint64_t>(ctx * 31 + d_head));
            const Tensor out = c.Run(0, ctx, ctx, causal, variant);
            const std::vector<double> ref = c.Reference(causal);
            for (int64_t i = 0; i < ctx * c.ld; ++i) {
              const int64_t visible = causal ? i / c.ld + 1 : ctx;
              ASSERT_TRUE(
                  AttentionClose(out.data()[i], ref[static_cast<size_t>(i)], visible, d_head))
                  << KernelVariantName(variant) << " block " << block << " ctx " << ctx
                  << " d_head " << d_head << (causal ? " causal" : " bidirectional")
                  << " element " << i << ": " << out.data()[i] << " vs "
                  << ref[static_cast<size_t>(i)];
            }
          }
        }
      }
    }
  }
}

TEST(AttentionDiffTest, Avx2MatchesScalarWithinBound) {
  if (!Avx2Available()) {
    GTEST_SKIP() << "host has no AVX2 kernels";
  }
  for (int64_t block : kKvBlocks) {
    for (int64_t ctx : AttentionContexts(block)) {
      for (int64_t d_head : kAttentionHeadDims) {
        for (bool causal : {true, false}) {
          AttentionCase c(ctx, block, 2, d_head, 0x5CA1Aull + static_cast<uint64_t>(ctx + d_head));
          const Tensor scalar = c.Run(0, ctx, ctx, causal, KernelVariant::kScalar);
          const Tensor avx2 = c.Run(0, ctx, ctx, causal, KernelVariant::kAvx2);
          for (int64_t i = 0; i < ctx * c.ld; ++i) {
            const int64_t visible = causal ? i / c.ld + 1 : ctx;
            ASSERT_TRUE(AttentionClose(avx2.data()[i], scalar.data()[i], visible, d_head))
                << "block " << block << " ctx " << ctx << " d_head " << d_head << " element "
                << i << ": scalar " << scalar.data()[i] << " avx2 " << avx2.data()[i];
          }
        }
      }
    }
  }
}

TEST(AttentionDiffTest, RunTwiceIsBitwiseIdentical) {
  for (KernelVariant variant : AvailableKernelVariants()) {
    for (int64_t block : kKvBlocks) {
      for (bool causal : {true, false}) {
        AttentionCase c(3 * block + 5, block, 3, 12, 0x7E57ull);
        const Tensor first = c.Run(0, c.ctx, c.ctx, causal, variant);
        const Tensor second = c.Run(0, c.ctx, c.ctx, causal, variant);
        EXPECT_EQ(0, std::memcmp(first.data(), second.data(),
                                 static_cast<size_t>(c.ctx * c.ld) * sizeof(float)))
            << KernelVariantName(variant) << " block " << block;
      }
    }
  }
}

// Row p alone (decode), in a whole prefill over [0, n), and in a chunk
// [r, n) after a block-aligned reused prefix: bitwise equal per variant.
TEST(AttentionDiffTest, RowOutputIsIndependentOfChunking) {
  for (KernelVariant variant : AvailableKernelVariants()) {
    for (int64_t block : kKvBlocks) {
      const int64_t n = 4 * block + 9;  // the last block is ragged
      for (int64_t d_head : kAttentionHeadDims) {
        AttentionCase c(n, block, 2, d_head, 0xC4C4ull + static_cast<uint64_t>(d_head));
        const size_t row_bytes = static_cast<size_t>(c.ld) * sizeof(float);
        for (bool causal : {true, false}) {
          const Tensor whole = c.Run(0, n, n, causal, variant);
          for (int64_t reuse : {block, 4 * block}) {
            const Tensor chunk = c.Run(reuse, n, n, causal, variant);
            for (int64_t p = reuse; p < n; ++p) {
              ASSERT_EQ(0, std::memcmp(whole.data() + p * c.ld,
                                       chunk.data() + (p - reuse) * c.ld, row_bytes))
                  << KernelVariantName(variant) << " block " << block << " d_head " << d_head
                  << " reuse " << reuse << " row " << p;
            }
          }
          if (causal) {
            for (int64_t p = 0; p < n; ++p) {
              const Tensor decode = c.Run(p, p + 1, p + 1, true, variant);
              ASSERT_EQ(0, std::memcmp(whole.data() + p * c.ld, decode.data(), row_bytes))
                  << KernelVariantName(variant) << " block " << block << " d_head " << d_head
                  << " decode row " << p;
            }
          }
        }
      }
    }
  }
}

// A two-row call [p, p + 2) folds weights x V for both rows in one pass, and
// on the causal diagonal row p + 1 sees one key more than row p: it carries
// that key on alone, in its own even or odd chain by p's parity. Each row
// must still equal the same row of the whole prefill, bitwise per variant.
TEST(AttentionDiffTest, TwoRowPairAcrossTheDiagonalMatchesItsRows) {
  for (KernelVariant variant : AvailableKernelVariants()) {
    for (int64_t block : kKvBlocks) {
      const int64_t n = 3 * block + 5;
      for (int64_t d_head : kAttentionHeadDims) {
        AttentionCase c(n, block, 2, d_head, 0xD1A6ull + static_cast<uint64_t>(d_head));
        const size_t pair_bytes = static_cast<size_t>(2 * c.ld) * sizeof(float);
        const Tensor whole = c.Run(0, n, n, true, variant);
        for (int64_t p = 0; p + 2 <= n; ++p) {
          const Tensor pair = c.Run(p, p + 2, p + 2, true, variant);
          ASSERT_EQ(0, std::memcmp(whole.data() + p * c.ld, pair.data(), pair_bytes))
              << KernelVariantName(variant) << " block " << block << " d_head " << d_head
              << " rows " << p << "-" << p + 1;
        }
      }
    }
  }
}

// --- SiLU and position embeddings ------------------------------------------

// The AVX2 SiLU against the scalar loop at every length up to 33, so that
// each value lands in the 8-wide body and in every tail length. Within 8 ulps
// of scalar (2.2M random inputs in [-87.3, 87.3] and powers of two down to
// 2^-139 differed by at most 4), except where x < -87.33 clamps e^-|x|: there
// the result is about x * FLT_MIN rather than the even smaller scalar value.
// No value past n is touched.
TEST(SiluDiffTest, Avx2MatchesScalarWithinUlps) {
  if (!Avx2Available()) {
    GTEST_SKIP() << "host has no AVX2 kernels";
  }
  const float kInputs[] = {0.0f,   -0.0f,   1e-40f,  -1e-40f, 1e-45f, -1e-45f, 1e-3f,
                           -1e-3f, 10.0f,   -10.0f,  80.0f,   -80.0f, 100.0f,  -100.0f,
                           0.5f,   -0.5f,   3.0f,    -3.0f,   87.0f,  -87.0f,  -88.0f};
  const size_t num_inputs = sizeof(kInputs) / sizeof(kInputs[0]);
  constexpr float kGuard = 12345.0f;
  for (int64_t n = 0; n <= 33; ++n) {
    for (size_t shift = 0; shift < num_inputs; shift += 5) {
      std::vector<float> scalar(static_cast<size_t>(n) + 1, kGuard);
      for (int64_t i = 0; i < n; ++i) {
        scalar[static_cast<size_t>(i)] = kInputs[(static_cast<size_t>(i) + shift) % num_inputs];
      }
      std::vector<float> avx2 = scalar;
      const std::vector<float> input = scalar;
      SiluInPlace(scalar.data(), n, KernelVariant::kScalar);
      SiluInPlace(avx2.data(), n, KernelVariant::kAvx2);
      ASSERT_EQ(avx2[static_cast<size_t>(n)], kGuard) << "wrote past n = " << n;
      for (int64_t i = 0; i < n; ++i) {
        const float x = input[static_cast<size_t>(i)];
        const float s = scalar[static_cast<size_t>(i)];
        const float a = avx2[static_cast<size_t>(i)];
        const bool ok = UlpDistance(s, a) <= 8 ||
                        (x < -87.33f && std::fabs(a - s) <= 2.0f * std::fabs(x) * FLT_MIN);
        ASSERT_TRUE(ok) << "n " << n << " x " << x << ": scalar " << s << " avx2 " << a;
      }
    }
  }
}

// The table adds, at every position, exactly what AddPositionEmbedding adds:
// to a zeroed row and to a random one, bitwise, across several growths of the
// filled rows (the first call lands mid-table) and past the table's end.
TEST(PositionEmbeddingTest, TableRowsEqualAddPositionEmbedding) {
  const int64_t d = 9;  // odd: the last sine has no cosine partner
  const int64_t max_rows = 40;
  PositionEmbeddingTable table(d, max_rows);
  Rng rng(0x905ull);
  const Tensor random_row = Tensor::Random(Shape(1, d), rng, 1.0f);
  const size_t row_bytes = static_cast<size_t>(d) * sizeof(float);
  auto check = [&](int64_t position) {
    for (const float* start : {static_cast<const float*>(nullptr), random_row.data()}) {
      std::vector<float> expected(static_cast<size_t>(d), 0.0f);
      if (start != nullptr) {
        std::memcpy(expected.data(), start, row_bytes);
      }
      std::vector<float> actual = expected;
      AddPositionEmbedding(expected.data(), d, position);
      table.Add(actual.data(), position);
      ASSERT_EQ(0, std::memcmp(expected.data(), actual.data(), row_bytes))
          << "position " << position << (start == nullptr ? " zeroed row" : " random row");
    }
  };
  check(max_rows / 4);
  EXPECT_EQ(table.filled_rows(), max_rows / 4 + 1);
  for (int64_t position = 0; position <= 2 * max_rows; ++position) {
    check(position);
    EXPECT_EQ(table.filled_rows(), std::clamp(position + 1, max_rows / 4 + 1, max_rows));
  }
}

// Nothing bounds max_rows (a model config from the wire only checks > 0),
// so a huge one must cost no more than the rows reached.
TEST(PositionEmbeddingTest, HugeMaxRowsFillsOnlyTheRowsReached) {
  const int64_t d = 8;
  const size_t row_bytes = static_cast<size_t>(d) * sizeof(float);
  PositionEmbeddingTable table(d, std::numeric_limits<int64_t>::max());
  for (int64_t position : {int64_t{5}, int64_t{0}, int64_t{70}}) {
    std::vector<float> expected(static_cast<size_t>(d), 0.0f);
    std::vector<float> actual = expected;
    AddPositionEmbedding(expected.data(), d, position);
    table.Add(actual.data(), position);
    ASSERT_EQ(0, std::memcmp(expected.data(), actual.data(), row_bytes)) << "position " << position;
  }
  EXPECT_EQ(table.filled_rows(), 71);
}

}  // namespace
}  // namespace vlora
