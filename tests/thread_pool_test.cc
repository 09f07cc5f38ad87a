#include <gtest/gtest.h>

#include <pthread.h>
#include <sched.h>
#include <signal.h>
#include <time.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <numeric>
#include <thread>
#include <type_traits>

#include "src/common/compute_group.h"
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

TEST(ComputeGroupTest, RunsEveryIndexExactlyOnce) {
  ComputeGroup group(4);
  EXPECT_EQ(group.size(), 4);
  std::vector<std::atomic<int>> hits(100);
  group.Run(100, group.size(), [&](int64_t i, int) { ++hits[static_cast<size_t>(i)]; });
  for (const auto& hit : hits) {
    EXPECT_EQ(hit.load(), 1);
  }
}

TEST(ComputeGroupTest, EmptyRangeIsNoop) {
  ComputeGroup group(2);
  bool ran = false;
  group.Run(0, group.size(), [&](int64_t, int) { ran = true; });
  EXPECT_FALSE(ran);
}

TEST(ComputeGroupTest, SingleIndexRunsInline) {
  ComputeGroup group(2);
  const std::thread::id caller = std::this_thread::get_id();
  std::thread::id executed;
  group.Run(1, group.size(), [&](int64_t i, int worker) {
    EXPECT_EQ(i, 0);
    EXPECT_EQ(worker, 0);
    executed = std::this_thread::get_id();
  });
  EXPECT_EQ(executed, caller);
}

TEST(ComputeGroupTest, SequentialRunsReuseWorkers) {
  ComputeGroup group(3);
  std::atomic<int64_t> sum{0};
  for (int round = 0; round < 20; ++round) {
    group.Run(50, group.size(), [&](int64_t i, int) { sum += i; });
  }
  EXPECT_EQ(sum.load(), 20 * (49 * 50 / 2));
}

TEST(ThreadPoolTest, DefaultUsesHardwareConcurrency) {
  ThreadPool pool;
  EXPECT_GE(pool.num_threads(), 1);
}

// Worker w is one thread for the whole Run, worker 0 the caller, and no more
// than `workers` threads take part, so per-worker state needs no lock.
TEST(ComputeGroupTest, WorkersAreDistinctThreadsWithinTheBound) {
  ComputeGroup group(4);
  const std::thread::id caller = std::this_thread::get_id();
  for (int workers : {1, 2, 4, 9}) {
    std::vector<std::thread::id> owner(static_cast<size_t>(group.size()));
    std::vector<std::atomic<int>> used(static_cast<size_t>(group.size()));
    std::atomic<bool> consistent{true};
    group.Run(64, workers, [&](int64_t, int worker) {
      ASSERT_GE(worker, 0);
      ASSERT_LT(worker, std::min(workers, group.size()));
      if (used[static_cast<size_t>(worker)]++ == 0) {
        owner[static_cast<size_t>(worker)] = std::this_thread::get_id();
      } else if (owner[static_cast<size_t>(worker)] != std::this_thread::get_id()) {
        consistent = false;
      }
      if (worker == 0 && std::this_thread::get_id() != caller) {
        consistent = false;
      }
    });
    EXPECT_TRUE(consistent.load()) << workers;
  }
}

// A helper that found no job for kSpinMicros parks on its condition
// variable; the next Run must wake it, and lose no index.
TEST(ComputeGroupTest, JoinsAfterHelpersHaveParked) {
  ComputeGroup group(3);
  for (int round = 0; round < 3; ++round) {
    while (group.ParkedHelpers() < group.size() - 1) {
      std::this_thread::yield();
    }
    std::vector<std::atomic<int>> hits(37);
    group.Run(37, group.size(), [&](int64_t i, int) { ++hits[static_cast<size_t>(i)]; });
    for (const auto& hit : hits) {
      EXPECT_EQ(hit.load(), 1);
    }
  }
}

// A pin that cannot take (a CPU outside every affinity mask) leaves the
// helper unpinned and the group working.
TEST(ComputeGroupTest, FailedPinFallsBackToUnpinned) {
  ComputeGroup group(2);
  EXPECT_EQ(group.Pin({CPU_SETSIZE - 1}), 0);
  EXPECT_EQ(group.Pin({-1}), 0);
  std::atomic<int64_t> sum{0};
  group.Run(10, group.size(), [&](int64_t i, int) { sum += i; });
  EXPECT_EQ(sum.load(), 45);
}

// Holds the thread it interrupts until g_release is set: a stand-in for a
// helper that never gets its CPU.
std::atomic<bool> g_frozen{false};
std::atomic<bool> g_release{false};

void FreezeHandler(int) {
  const int saved_errno = errno;
  g_frozen.store(true);
  while (!g_release.load()) {
    const timespec pause{0, 100'000};
    nanosleep(&pause, nullptr);
  }
  errno = saved_errno;
}

// Two indices that each wait until both have started, so both workers take
// one; returns the helper's thread.
pthread_t RunOnBothWorkers(ComputeGroup& group) {
  std::atomic<int> started{0};
  pthread_t helper{};
  group.Run(2, 2, [&](int64_t, int worker) {
    ++started;
    while (started.load() < 2) {
      std::this_thread::yield();
    }
    if (worker == 1) {
      helper = pthread_self();
    }
  });
  return helper;
}

// A posted helper that has not started when the caller runs out of indices
// is withdrawn: the join returns without it, every index having run on the
// caller. The helper here is held in a signal handler while parked; a helper
// pinned to a CPU that stays busy is held the same way. Once released, it
// takes part again.
TEST(ComputeGroupTest, JoinReturnsWithoutAHelperThatNeverStarts) {
  g_frozen = false;
  g_release = false;
  ComputeGroup group(2);
  const pthread_t helper = RunOnBothWorkers(group);
  struct sigaction freeze = {};
  freeze.sa_handler = FreezeHandler;
  sigemptyset(&freeze.sa_mask);
  struct sigaction previous = {};
  ASSERT_EQ(sigaction(SIGUSR1, &freeze, &previous), 0);
  while (group.ParkedHelpers() < 1) {
    std::this_thread::yield();
  }
  ASSERT_EQ(pthread_kill(helper, SIGUSR1), 0);
  while (!g_frozen.load()) {
    std::this_thread::yield();
  }

  for (int round = 0; round < 3; ++round) {
    std::vector<std::atomic<int>> hits(16);
    std::atomic<int> on_helper{0};
    group.Run(16, 2, [&](int64_t i, int worker) {
      ++hits[static_cast<size_t>(i)];
      on_helper += worker != 0 ? 1 : 0;
    });
    EXPECT_EQ(on_helper.load(), 0);
    for (const auto& hit : hits) {
      EXPECT_EQ(hit.load(), 1);
    }
  }

  g_release = true;
  EXPECT_TRUE(pthread_equal(RunOnBothWorkers(group), helper));
  ASSERT_EQ(sigaction(SIGUSR1, &previous, nullptr), 0);
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
  int expected = 5;
  EXPECT_FALSE(g_published_probe.CompareExchange(expected, 9));
  EXPECT_EQ(expected, 6);
  EXPECT_TRUE(g_published_probe.CompareExchange(expected, 9));
  EXPECT_EQ(g_published_probe.Load(), 9);
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
  ComputeGroup group(4);
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
      GemmTiledParallel(a.data(), b.data(), parallel.data(), m, n, k, config, ws2, group);
      // Disjoint C tiles with identical per-tile arithmetic: bitwise equal.
      EXPECT_EQ(Tensor::MaxAbsDiff(serial, parallel), 0.0f)
          << m << "x" << n << "x" << k << " " << config.ToString();
    }
  }
}

TEST(GemmParallelTest, DeterministicAcrossRuns) {
  ComputeGroup group(8);
  Rng rng(77);
  const int64_t m = 250;
  const int64_t n = 48;
  const int64_t k = 80;
  Tensor a = Tensor::Random(Shape(m, k), rng, 1.0f);
  Tensor b = Tensor::Random(Shape(k, n), rng, 1.0f);
  const TileConfig config{32, 32, 64, 8, 8};
  Tensor first = Tensor::Zeros(Shape(m, n));
  GemmWorkspace ws;
  GemmTiledParallel(a.data(), b.data(), first.data(), m, n, k, config, ws, group);
  for (int run = 0; run < 5; ++run) {
    Tensor again = Tensor::Zeros(Shape(m, n));
    GemmTiledParallel(a.data(), b.data(), again.data(), m, n, k, config, ws, group);
    EXPECT_EQ(Tensor::MaxAbsDiff(first, again), 0.0f);
  }
}

}  // namespace
}  // namespace vlora
