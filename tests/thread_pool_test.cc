#include <gtest/gtest.h>

#include <atomic>
#include <numeric>
#include <thread>
#include <type_traits>

#include "src/common/sync.h"
#include "src/common/thread_pool.h"
#include "src/kernels/gemm.h"
#include "src/tensor/tensor.h"

namespace vlora {
namespace {

// Negative compile-time test for the thread-safety analysis. Building
//   clang++ -DVLORA_THREAD_SAFETY=ON ... -DVLORA_EXPECT_TS_ERROR
// must FAIL: the probe reads a guarded member without holding its mutex,
// which -Werror=thread-safety rejects. Normal builds never compile this
// block; it exists so the analysis itself can be smoke-tested (an ON build
// that accepts it means the annotations are wired up wrong).
#ifdef VLORA_EXPECT_TS_ERROR
struct TsNegativeProbe {
  Mutex mu{Rank::kLeaf, "TsNegativeProbe::mu"};
  int guarded VLORA_GUARDED_BY(mu) = 0;
  int ReadWithoutLock() { return guarded; }  // thread-safety error here
};
#endif

TEST(ThreadPoolTest, RunsEveryIndexExactlyOnce) {
  ThreadPool pool(4);
  EXPECT_EQ(pool.num_threads(), 4);
  std::vector<std::atomic<int>> hits(100);
  pool.ParallelFor(0, 100, [&](int64_t i) { ++hits[static_cast<size_t>(i)]; });
  for (const auto& hit : hits) {
    EXPECT_EQ(hit.load(), 1);
  }
}

TEST(ThreadPoolTest, EmptyRangeIsNoop) {
  ThreadPool pool(2);
  bool ran = false;
  pool.ParallelFor(5, 5, [&](int64_t) { ran = true; });
  EXPECT_FALSE(ran);
}

TEST(ThreadPoolTest, SingleIndexRunsInline) {
  ThreadPool pool(2);
  const std::thread::id caller = std::this_thread::get_id();
  std::thread::id executed;
  pool.ParallelFor(3, 4, [&](int64_t i) {
    EXPECT_EQ(i, 3);
    executed = std::this_thread::get_id();
  });
  EXPECT_EQ(executed, caller);
}

TEST(ThreadPoolTest, SequentialParallelForsReuseWorkers) {
  ThreadPool pool(3);
  std::atomic<int64_t> sum{0};
  for (int round = 0; round < 20; ++round) {
    pool.ParallelFor(0, 50, [&](int64_t i) { sum += i; });
  }
  EXPECT_EQ(sum.load(), 20 * (49 * 50 / 2));
}

TEST(ThreadPoolTest, DefaultUsesHardwareConcurrency) {
  ThreadPool pool;
  EXPECT_GE(pool.num_threads(), 1);
}

// The atomic wrappers in src/common/sync.h: the memory order lives in the
// type, so no conversion, assignment or copy may reach the std::atomic
// inside, and the wrapper costs no space over it.
static_assert(!std::is_convertible_v<int64_t, RelaxedAtomic<int64_t>>);
static_assert(!std::is_convertible_v<RelaxedAtomic<int64_t>, int64_t>);
static_assert(!std::is_assignable_v<RelaxedAtomic<int64_t>&, int64_t>);
static_assert(!std::is_copy_constructible_v<RelaxedAtomic<int64_t>>);
static_assert(!std::is_copy_assignable_v<RelaxedAtomic<int64_t>>);
static_assert(sizeof(RelaxedAtomic<int64_t>) == sizeof(std::atomic<int64_t>));
static_assert(!std::is_convertible_v<bool, PublishedAtomic<bool>>);
static_assert(!std::is_convertible_v<PublishedAtomic<bool>, bool>);
static_assert(!std::is_assignable_v<PublishedAtomic<bool>&, bool>);
static_assert(!std::is_copy_constructible_v<PublishedAtomic<bool>>);
static_assert(!std::is_copy_assignable_v<PublishedAtomic<bool>>);
static_assert(sizeof(PublishedAtomic<bool>) == sizeof(std::atomic<bool>));

// Namespace-scope instances initialized before any static initializer runs,
// as g_level, g_active and g_socket_sequence are.
constinit RelaxedAtomic<int64_t> g_relaxed_probe{7};
constinit PublishedAtomic<int> g_published_probe{-1};

TEST(AtomicWrapperTest, OperationsReturnWhatStdAtomicReturns) {
  EXPECT_EQ(g_relaxed_probe.Load(), 7);
  EXPECT_EQ(g_relaxed_probe.FetchAdd(3), 7);
  EXPECT_EQ(g_relaxed_probe.Exchange(20), 10);
  g_relaxed_probe.Store(5);
  EXPECT_EQ(g_relaxed_probe.Load(), 5);

  EXPECT_EQ(g_published_probe.Load(), -1);
  g_published_probe.Publish(4);
  EXPECT_EQ(g_published_probe.FetchAdd(2), 4);
  EXPECT_EQ(g_published_probe.Load(), 6);
}

// A writer fills a plain payload, then publishes a flag; the reader spins on
// the flag and reads the payload before joining. Only Publish's release and
// Load's acquire order the two accesses: with a relaxed publish TSan reports
// the payload read as a race.
TEST(AtomicWrapperTest, PublishOrdersThePayloadBeforeTheFlag) {
  for (int round = 0; round < 100; ++round) {
    int64_t payload = 0;
    PublishedAtomic<bool> ready{false};
    std::thread writer([&payload, &ready, round] {
      payload = 1000 + round;
      ready.Publish(true);
    });
    while (!ready.Load()) {
      std::this_thread::yield();
    }
    EXPECT_EQ(payload, 1000 + round);
    writer.join();
  }
}

TEST(GemmParallelTest, BitwiseMatchesSerial) {
  ThreadPool pool(4);
  Rng rng(1234);
  for (auto [m, n, k] : {std::tuple<int64_t, int64_t, int64_t>{7, 5, 9},
                         {64, 32, 128},
                         {300, 64, 96},
                         {1, 16, 16}}) {
    Tensor a = Tensor::Random(Shape(m, k), rng, 1.0f);
    Tensor b = Tensor::Random(Shape(k, n), rng, 1.0f);
    for (const TileConfig& config :
         {TileConfig{16, 16, 32, 4, 4}, TileConfig{64, 32, 64, 8, 8},
          TileConfig{128, 64, 128, 8, 8}}) {
      Tensor serial = Tensor::Zeros(Shape(m, n));
      Tensor parallel = Tensor::Zeros(Shape(m, n));
      GemmWorkspace ws1;
      GemmWorkspace ws2;
      GemmTiled(a, b, serial, config, ws1);
      GemmTiledParallel(a.data(), b.data(), parallel.data(), m, n, k, config, ws2, pool);
      // Disjoint C tiles with identical per-tile arithmetic: bitwise equal.
      EXPECT_EQ(Tensor::MaxAbsDiff(serial, parallel), 0.0f)
          << m << "x" << n << "x" << k << " " << config.ToString();
    }
  }
}

TEST(GemmParallelTest, DeterministicAcrossRuns) {
  ThreadPool pool(8);
  Rng rng(77);
  const int64_t m = 250;
  const int64_t n = 48;
  const int64_t k = 80;
  Tensor a = Tensor::Random(Shape(m, k), rng, 1.0f);
  Tensor b = Tensor::Random(Shape(k, n), rng, 1.0f);
  const TileConfig config{32, 32, 64, 8, 8};
  Tensor first = Tensor::Zeros(Shape(m, n));
  GemmWorkspace ws;
  GemmTiledParallel(a.data(), b.data(), first.data(), m, n, k, config, ws, pool);
  for (int run = 0; run < 5; ++run) {
    Tensor again = Tensor::Zeros(Shape(m, n));
    GemmTiledParallel(a.data(), b.data(), again.data(), m, n, k, config, ws, pool);
    EXPECT_EQ(Tensor::MaxAbsDiff(first, again), 0.0f);
  }
}

}  // namespace
}  // namespace vlora
