#include <gtest/gtest.h>

#include <algorithm>

#include "src/kernels/atmm.h"
#include "src/kernels/tiling_search.h"
#include "src/tensor/tensor.h"

namespace vlora {
namespace {

TEST(ShapeKeyTest, PackedIsInjectiveOnRange) {
  ShapeKey a{256, 64, 4096};
  ShapeKey b{256, 64, 4097};
  ShapeKey c{257, 64, 4096};
  EXPECT_NE(a.Packed(), b.Packed());
  EXPECT_NE(a.Packed(), c.Packed());
  EXPECT_EQ(a.Packed(), (ShapeKey{256, 64, 4096}.Packed()));
}

TEST(AtmmDispatcherTest, ExactHit) {
  AtmmDispatcher dispatcher;
  TileConfig config{32, 32, 64, 8, 8};
  dispatcher.Register(ShapeKey{128, 64, 256}, config);
  EXPECT_EQ(dispatcher.Select(128, 64, 256), config);
  EXPECT_EQ(dispatcher.TableSize(), 1);
}

TEST(AtmmDispatcherTest, SnapsMToGrid) {
  AtmmDispatcher dispatcher;
  TileConfig config{64, 32, 64, 8, 8};
  dispatcher.Register(ShapeKey{64, 64, 256}, config);
  // m = 50 rounds up to 64 on the 32-step grid.
  EXPECT_EQ(dispatcher.Select(50, 64, 256), config);
  // m = 70 rounds up to 96 (miss), then down to 64 (hit).
  EXPECT_EQ(dispatcher.Select(70, 64, 256), config);
}

TEST(AtmmDispatcherTest, FallsBackToHeuristic) {
  AtmmDispatcher dispatcher;
  const TileConfig config = dispatcher.Select(100, 100, 100);
  EXPECT_TRUE(config.Valid());
}

TEST(AtmmDispatcherTest, HeuristicAlwaysValid) {
  for (int64_t m : {1, 3, 8, 32, 511, 4096, 100000}) {
    for (int64_t n : {1, 4, 32, 64, 4096}) {
      for (int64_t k : {1, 16, 64, 4096}) {
        const TileConfig config = AtmmDispatcher::HeuristicConfig(m, n, k);
        EXPECT_TRUE(config.Valid()) << m << "x" << n << "x" << k << " -> " << config.ToString();
        EXPECT_TRUE(HasMicroKernel(config.mr, config.nr)) << config.ToString();
        const TileConfig avx2 =
            AtmmDispatcher::HeuristicConfig(m, n, k, KernelVariant::kAvx2);
        EXPECT_TRUE(avx2.Valid()) << m << "x" << n << "x" << k << " -> " << avx2.ToString();
        EXPECT_TRUE(HasMicroKernel(avx2.mr, avx2.nr)) << avx2.ToString();
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

TEST(TilingSearchTest, PopulatesTable) {
  AtmmDispatcher dispatcher;
  TilingSearchOptions options;
  options.nk_pairs = {{32, 128}, {128, 32}};
  options.m_min = 32;
  options.m_max = 96;
  options.m_stride_multiplier = 1;
  options.repetitions = 1;
  // Small candidate set keeps the test fast.
  options.candidates = {TileConfig{16, 16, 32, 4, 4}, TileConfig{64, 32, 64, 8, 8},
                        TileConfig{32, 32, 64, 8, 8}};
  const TilingSearchResult result = RunTilingSearch(options, dispatcher);
  // 3 m-values x 2 nk pairs.
  EXPECT_EQ(result.shapes_profiled, 6);
  EXPECT_EQ(dispatcher.TableSize(), 6);
  EXPECT_GT(result.configs_tried, 0);
}

TEST(TilingSearchTest, RegisteredConfigIsUsedAtRuntime) {
  AtmmDispatcher dispatcher;
  TilingSearchOptions options;
  options.nk_pairs = {{32, 128}};
  options.m_min = 64;
  options.m_max = 64;
  options.m_stride_multiplier = 1;
  options.repetitions = 1;
  options.candidates = {TileConfig{16, 16, 32, 4, 4}, TileConfig{64, 32, 64, 8, 8}};
  RunTilingSearch(options, dispatcher);
  const TileConfig selected = dispatcher.Select(64, 32, 128);
  const bool is_candidate = selected == options.candidates[0] || selected == options.candidates[1];
  EXPECT_TRUE(is_candidate) << selected.ToString();
  // Execution with the selected config stays correct.
  Rng rng(33);
  Tensor a = Tensor::Random(Shape(64, 128), rng, 1.0f);
  Tensor b = Tensor::Random(Shape(128, 32), rng, 1.0f);
  Tensor c = Tensor::Zeros(Shape(64, 32));
  dispatcher.Execute(a, b, c);
  EXPECT_LT(Tensor::MaxAbsDiff(c, MatMulReference(a, b)), 1e-3f);
}

// The per-variant tables are isolated: an entry registered for one variant
// is never served to another, in either direction.
TEST(AtmmDispatcherTest, PerVariantTablesAreIsolated) {
  AtmmDispatcher dispatcher;
  const ShapeKey key{128, 64, 256};
  const TileConfig scalar_cfg{16, 16, 32, 4, 4};
  const TileConfig avx2_cfg{32, 64, 64, 16, 16};
  dispatcher.Register(key, scalar_cfg, KernelVariant::kScalar);
  dispatcher.Register(key, avx2_cfg, KernelVariant::kAvx2);

  // Each variant sees exactly its own entry.
  EXPECT_EQ(dispatcher.Select(128, 64, 256, KernelVariant::kScalar), scalar_cfg);
  EXPECT_EQ(dispatcher.Select(128, 64, 256, KernelVariant::kAvx2), avx2_cfg);

  EXPECT_EQ(dispatcher.TableSize(), 2);
  EXPECT_EQ(dispatcher.TableSize(KernelVariant::kScalar), 1);
  EXPECT_EQ(dispatcher.TableSize(KernelVariant::kAvx2), 1);
}

// Scalar-profiled configs are never served to AVX2 selections and vice versa,
// even when only one side of the table is populated.
TEST(AtmmDispatcherTest, ScalarEntriesNeverLeakToAvx2) {
  AtmmDispatcher dispatcher;
  const TileConfig scalar_only{16, 16, 32, 4, 4};
  for (int64_t m = 32; m <= 256; m += 32) {
    dispatcher.Register(ShapeKey{m, 64, 256}, scalar_only, KernelVariant::kScalar);
  }
  // Exact hits and grid-snapped lookups on the AVX2 side miss everything and
  // fall through to the (variant-aware) heuristic.
  for (int64_t m : {32, 50, 128, 256}) {
    EXPECT_EQ(dispatcher.Select(m, 64, 256, KernelVariant::kAvx2),
              AtmmDispatcher::HeuristicConfig(m, 64, 256, KernelVariant::kAvx2))
        << "m=" << m;
  }
  // And the mirror image: an AVX2-only entry is invisible to scalar.
  AtmmDispatcher mirror;
  const TileConfig avx2_only{64, 64, 128, 16, 16};
  mirror.Register(ShapeKey{64, 64, 256}, avx2_only, KernelVariant::kAvx2);
  EXPECT_EQ(mirror.Select(64, 64, 256, KernelVariant::kScalar),
            AtmmDispatcher::HeuristicConfig(64, 64, 256));
}

// Searching multiple variants populates separate tables, one winner per
// (shape, variant).
TEST(TilingSearchTest, PerVariantSearchPopulatesSeparateTables) {
  AtmmDispatcher dispatcher;
  TilingSearchOptions options;
  options.nk_pairs = {{32, 128}};
  options.m_min = 64;
  options.m_max = 64;
  options.m_stride_multiplier = 1;
  options.repetitions = 1;
  options.candidates = {TileConfig{16, 16, 32, 4, 4}, TileConfig{64, 32, 64, 8, 8}};
  options.variants = AvailableKernelVariants();
  const TilingSearchResult result = RunTilingSearch(options, dispatcher);

  const int64_t variants = static_cast<int64_t>(AvailableKernelVariants().size());
  EXPECT_EQ(result.variants_profiled, variants);
  // 1 shape per variant pass.
  EXPECT_EQ(dispatcher.TableSize(), variants);
  for (KernelVariant variant : AvailableKernelVariants()) {
    EXPECT_EQ(dispatcher.TableSize(variant), 1) << KernelVariantName(variant);
  }
}

// Requesting AVX2 on a host that cannot run it is skipped with a warning —
// the table never contains entries for a variant the host cannot execute.
TEST(TilingSearchTest, SkipsUnavailableVariants) {
  if (Avx2Available()) {
    GTEST_SKIP() << "host executes AVX2; the skip path is unreachable";
  }
  AtmmDispatcher dispatcher;
  TilingSearchOptions options;
  options.nk_pairs = {{32, 64}};
  options.m_min = 32;
  options.m_max = 32;
  options.m_stride_multiplier = 1;
  options.repetitions = 1;
  options.candidates = {TileConfig{16, 16, 32, 4, 4}};
  options.variants = {KernelVariant::kScalar, KernelVariant::kAvx2};
  RunTilingSearch(options, dispatcher);
  EXPECT_EQ(dispatcher.TableSize(KernelVariant::kAvx2), 0);
  EXPECT_EQ(dispatcher.TableSize(KernelVariant::kScalar), 1);
}

TEST(TilingSearchTest, PrunesOversizedWorkspace) {
  AtmmDispatcher dispatcher;
  TilingSearchOptions options;
  options.nk_pairs = {{32, 64}};
  options.m_min = 32;
  options.m_max = 32;
  options.m_stride_multiplier = 1;
  options.repetitions = 1;
  options.max_workspace_floats = 1;  // prunes every candidate
  options.candidates = {TileConfig{64, 64, 64, 8, 8}};
  const TilingSearchResult result = RunTilingSearch(options, dispatcher);
  EXPECT_EQ(result.configs_tried, 0);
  // Falls back to the searched variant's own heuristic, which is what an
  // empty table would have served, and still registers an entry.
  EXPECT_EQ(dispatcher.TableSize(), 1);
  EXPECT_EQ(dispatcher.Select(32, 32, 64),
            AtmmDispatcher::HeuristicConfig(32, 32, 64, ActiveKernelVariant()));
}

}  // namespace
}  // namespace vlora
