#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <vector>

#include "bench/bench_operator_common.h"
#include "bench/bench_tiling_search.h"
#include "src/kernels/atmm.h"
#include "src/tensor/tensor.h"

namespace vlora {
namespace {

TEST(AtmmDispatcherTest, HeuristicAlwaysValid) {
  for (int64_t m : {1, 3, 8, 32, 511, 4096, 100000}) {
    for (int64_t n : {1, 4, 32, 64, 4096}) {
      for (int64_t k : {1, 16, 64, 4096}) {
        const TileConfig config =
            AtmmDispatcher::HeuristicConfig(m, n, k, KernelVariant::kScalar);
        EXPECT_TRUE(config.Valid()) << m << "x" << n << "x" << k << " -> " << config.ToString();
        EXPECT_TRUE(HasMicroKernel(config.mr, config.nr)) << config.ToString();
        const TileConfig avx2 =
            AtmmDispatcher::HeuristicConfig(m, n, k, KernelVariant::kAvx2);
        EXPECT_TRUE(avx2.Valid()) << m << "x" << n << "x" << k << " -> " << avx2.ToString();
        EXPECT_TRUE(HasMicroKernel(avx2.mr, avx2.nr)) << avx2.ToString();
        // AVX-512 runs AVX2's config: the same kc keeps its outputs bitwise
        // AVX2's, and the same (mr, nr) its ReadsBInPlace decisions.
        EXPECT_EQ(AtmmDispatcher::HeuristicConfig(m, n, k, KernelVariant::kAvx512), avx2)
            << m << "x" << n << "x" << k;
      }
    }
  }
}

TEST(AtmmDispatcherTest, ExecuteMatchesReference) {
  AtmmDispatcher dispatcher;
  Rng rng(31);
  for (auto [m, n, k] : {std::tuple<int64_t, int64_t, int64_t>{5, 7, 9},
                         {64, 32, 128},
                         {130, 64, 64},
                         {1, 64, 64}}) {
    Tensor a = Tensor::Random(Shape(m, k), rng, 1.0f);
    Tensor b = Tensor::Random(Shape(k, n), rng, 1.0f);
    Tensor c = Tensor::Zeros(Shape(m, n));
    dispatcher.Execute(a, b, c);
    EXPECT_LT(Tensor::MaxAbsDiff(c, MatMulReference(a, b)), 1e-3f);
  }
}

// The paper benches' shape table (bench/bench_tiling_search.h).
TEST(TileTableTest, ExactHit) {
  bench::TileTable table;
  const TileConfig config{32, 32, 64, 8, 8};
  table.Register(128, 64, 256, config);
  EXPECT_EQ(table.Select(128, 64, 256), config);
  EXPECT_EQ(table.size(), 1);
}

TEST(TileTableTest, SnapsMToGrid) {
  bench::TileTable table;
  const TileConfig config{64, 32, 64, 8, 8};
  table.Register(64, 64, 256, config);
  // m = 50 rounds up to 64 on the 32-step grid.
  EXPECT_EQ(table.Select(50, 64, 256), config);
  // m = 70 rounds up to 96 (miss), then down to 64 (hit).
  EXPECT_EQ(table.Select(70, 64, 256), config);
}

TEST(TileTableTest, FallsBackToHeuristic) {
  bench::TileTable table;
  table.Register(64, 64, 256, TileConfig{64, 32, 64, 8, 8});
  EXPECT_EQ(table.Select(100, 100, 100),
            AtmmDispatcher::HeuristicConfig(100, 100, 100, ActiveKernelVariant()));
}

TEST(TilingSearchTest, PopulatesTable) {
  bench::TileTable table;
  bench::TilingSearchOptions options;
  options.nk_pairs = {{32, 128}, {128, 32}};
  options.m_min = 32;
  options.m_max = 96;
  options.repetitions = 1;
  // Small candidate set keeps the test fast.
  options.candidates = {TileConfig{16, 16, 32, 4, 4}, TileConfig{64, 32, 64, 8, 8},
                        TileConfig{32, 32, 64, 8, 8}};
  const bench::TilingSearchResult result = bench::RunTilingSearch(options, table);
  // 3 m-values x 2 nk pairs.
  EXPECT_EQ(result.shapes_profiled, 6);
  EXPECT_EQ(table.size(), 6);
  EXPECT_GT(result.configs_tried, 0);
  // Each shape records a candidate or the serving rule's tile, which is
  // timed beside them.
  for (int64_t m : {32, 64, 96}) {
    const TileConfig selected = table.Select(m, 32, 128);
    EXPECT_TRUE(std::find(options.candidates.begin(), options.candidates.end(), selected) !=
                    options.candidates.end() ||
                selected == AtmmDispatcher::HeuristicConfig(m, 32, 128, ActiveKernelVariant()))
        << selected.ToString();
  }
}

// The Fig 17/18 ATMM operator runs the tiles the table records: its output is
// bitwise the two GEMMs run with those tiles, and not the serving rule's
// (the registered kc splits each sum where the rule's does not).
TEST(TilingSearchTest, RegisteredConfigIsUsedAtRuntime) {
  const int64_t rows = 64;
  const int64_t d = 128;
  const int64_t rank = 32;
  const TileConfig shrink{32, 32, 32, 8, 8};
  const TileConfig expand{64, 64, 16, 8, 8};
  const KernelVariant variant = ActiveKernelVariant();
  const TileConfig rule_shrink = AtmmDispatcher::HeuristicConfig(rows, rank, d, variant);
  const TileConfig rule_expand = AtmmDispatcher::HeuristicConfig(rows, d, rank, variant);
  ASSERT_EQ(rule_shrink.kc, d);
  ASSERT_EQ(rule_expand.kc, rank);
  bench::TileTable table;
  table.Register(rows, rank, d, shrink);
  table.Register(rows, d, rank, expand);

  Rng rng(33);
  const Tensor x = Tensor::Random(Shape(rows, d), rng, 1.0f);
  const Tensor down = Tensor::Random(Shape(d, rank), rng, 0.3f);
  const Tensor up = Tensor::Random(Shape(rank, d), rng, 0.3f);
  auto two_gemms = [&](const TileConfig& shrink_tile, const TileConfig& expand_tile) {
    Tensor mid = Tensor::Zeros(Shape(rows, rank));
    Tensor out = Tensor::Zeros(Shape(rows, d));
    GemmWorkspace workspace;
    GemmTiled(x, down, mid, shrink_tile, workspace);
    GemmTiled(mid, up, out, expand_tile, workspace);
    return out;
  };
  const Tensor tabled = two_gemms(shrink, expand);
  const Tensor ruled = two_gemms(rule_shrink, rule_expand);

  std::vector<std::unique_ptr<LoraBatchOperator>> operators = bench::MakeOperators(table);
  ASSERT_EQ(operators[0]->name(), "ATMM");
  Tensor y = Tensor::Zeros(Shape(rows, d));
  operators[0]->Run(x, {LoraSegment{0, rows, 0}},
                    {AdapterWeightsView{.down = &down, .up = &up, .scaling = 1.0f}}, y);
  EXPECT_TRUE(std::equal(y.data(), y.data() + rows * d, tabled.data()));
  EXPECT_FALSE(std::equal(y.data(), y.data() + rows * d, ruled.data()));
  EXPECT_LT(Tensor::MaxAbsDiff(y, MatMulReference(MatMulReference(x, down), up)), 1e-3f);
}

TEST(TilingSearchTest, PrunesOversizedWorkspace) {
  bench::TileTable table;
  bench::TilingSearchOptions options;
  options.nk_pairs = {{32, 128}};
  options.m_min = 512;
  options.m_max = 512;
  options.repetitions = 1;
  // Within 4x of every matrix dimension, so only the workspace cap prunes it.
  const TileConfig oversized{2048, 64, 512, 8, 8};
  ASSERT_GT(oversized.WorkspaceFloats(), bench::kMaxWorkspaceFloats);
  options.candidates = {oversized};
  const bench::TilingSearchResult result = bench::RunTilingSearch(options, table);
  EXPECT_EQ(result.configs_tried, 0);
  // The shape records the serving rule's tile, which an empty table serves.
  EXPECT_EQ(table.size(), 1);
  EXPECT_EQ(table.Select(512, 32, 128),
            AtmmDispatcher::HeuristicConfig(512, 32, 128, ActiveKernelVariant()));
}

}  // namespace
}  // namespace vlora
