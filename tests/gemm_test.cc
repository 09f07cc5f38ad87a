#include <gtest/gtest.h>

#include <tuple>

#include "bench/bench_tiling_search.h"
#include "src/kernels/gemm.h"
#include "src/kernels/tile_config.h"
#include "src/tensor/tensor.h"

namespace vlora {
namespace {

float RunAndCompare(int64_t m, int64_t n, int64_t k, const TileConfig& config) {
  Rng rng(static_cast<uint64_t>(m * 1000003 + n * 1009 + k));
  Tensor a = Tensor::Random(Shape(m, k), rng, 1.0f);
  Tensor b = Tensor::Random(Shape(k, n), rng, 1.0f);
  Tensor c = Tensor::Zeros(Shape(m, n));
  GemmWorkspace workspace;
  GemmTiled(a, b, c, config, workspace);
  Tensor ref = MatMulReference(a, b);
  return Tensor::MaxAbsDiff(c, ref);
}

TEST(TileConfigTest, ValidityRules) {
  EXPECT_TRUE((TileConfig{64, 64, 128, 8, 8}.Valid()));
  EXPECT_TRUE((TileConfig{16, 16, 32, 4, 4}.Valid()));
  EXPECT_FALSE((TileConfig{63, 64, 128, 8, 8}.Valid()));   // not power of two
  EXPECT_FALSE((TileConfig{8, 64, 128, 16, 8}.Valid()));   // mc < mr
  EXPECT_FALSE((TileConfig{64, 64, 128, 2, 8}.Valid()));   // mr too small
  EXPECT_FALSE((TileConfig{64, 64, 128, 32, 8}.Valid()));  // mr too large
}

TEST(TileConfigTest, WorkspaceIsDoubleBuffered) {
  TileConfig config{64, 32, 128, 8, 8};
  EXPECT_EQ(config.WorkspaceFloats(), 2 * (64 * 128 + 128 * 32));
}

TEST(TileConfigTest, CanonicalConfigsValid) {
  EXPECT_TRUE(PunicaStaticConfig().Valid());
  EXPECT_TRUE(SloraStaticConfig().Valid());
  EXPECT_TRUE(TableConfig1().Valid());
  EXPECT_TRUE(TableConfig2().Valid());
}

TEST(GemmTest, MicroKernelTableCoversCandidates) {
  for (const TileConfig& config : bench::DefaultCandidateConfigs()) {
    EXPECT_TRUE(HasMicroKernel(config.mr, config.nr)) << config.ToString();
  }
  EXPECT_FALSE(HasMicroKernel(32, 32));
}

TEST(GemmTest, NaiveMatchesReference) {
  Rng rng(77);
  Tensor a = Tensor::Random(Shape(13, 17), rng, 1.0f);
  Tensor b = Tensor::Random(Shape(17, 9), rng, 1.0f);
  Tensor c = Tensor::Zeros(Shape(13, 9));
  GemmNaive(a.data(), b.data(), c.data(), 13, 9, 17);
  EXPECT_LT(Tensor::MaxAbsDiff(c, MatMulReference(a, b)), 1e-4f);
}

TEST(GemmTest, AccumulatesIntoC) {
  Rng rng(78);
  Tensor a = Tensor::Random(Shape(8, 8), rng, 1.0f);
  Tensor b = Tensor::Random(Shape(8, 8), rng, 1.0f);
  Tensor c = Tensor::Full(Shape(8, 8), 1.0f);
  GemmWorkspace workspace;
  GemmTiled(a, b, c, TileConfig{16, 16, 32, 4, 4}, workspace);
  Tensor expected = MatMulReference(a, b);
  expected.AddInPlace(Tensor::Full(Shape(8, 8), 1.0f));
  EXPECT_LT(Tensor::MaxAbsDiff(c, expected), 1e-4f);
}

// Parameterised sweep: shape x config. Shapes include LoRA-realistic skinny
// matrices (rank 16-128 outputs), odd sizes hitting every edge path, and
// sizes larger than any tile.
using GemmParam = std::tuple<int64_t, int64_t, int64_t, TileConfig>;

class GemmShapeConfigTest : public ::testing::TestWithParam<GemmParam> {};

TEST_P(GemmShapeConfigTest, MatchesReference) {
  const auto& [m, n, k, config] = GetParam();
  EXPECT_LT(RunAndCompare(m, n, k, config), 1e-3f)
      << "m=" << m << " n=" << n << " k=" << k << " config=" << config.ToString();
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, GemmShapeConfigTest,
    ::testing::Combine(::testing::Values<int64_t>(1, 7, 16, 33, 100, 256),
                       ::testing::Values<int64_t>(1, 5, 32, 64, 130),
                       ::testing::Values<int64_t>(1, 8, 64, 129),
                       ::testing::Values(TileConfig{16, 16, 32, 4, 4},
                                         TileConfig{64, 64, 64, 8, 8},
                                         TileConfig{128, 32, 128, 8, 16},
                                         PunicaStaticConfig(), SloraStaticConfig())));

TEST(GemmTest, WorkspaceReusedAcrossDifferentConfigs) {
  GemmWorkspace workspace;
  Rng rng(79);
  Tensor a = Tensor::Random(Shape(40, 40), rng, 1.0f);
  Tensor b = Tensor::Random(Shape(40, 40), rng, 1.0f);
  Tensor ref = MatMulReference(a, b);
  for (const TileConfig& config :
       {TileConfig{16, 16, 32, 4, 4}, TileConfig{128, 128, 256, 8, 8}}) {
    Tensor c = Tensor::Zeros(Shape(40, 40));
    GemmTiled(a, b, c, config, workspace);
    EXPECT_LT(Tensor::MaxAbsDiff(c, ref), 1e-3f);
  }
}

}  // namespace
}  // namespace vlora
