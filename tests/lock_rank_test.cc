// Death tests for the debug deadlock detector in src/common/sync.h.
//
// This TU is compiled with VLORA_LOCK_RANK_CHECKS=1 (set per-target in
// tests/CMakeLists.txt) even in release trees: the detector is header-only
// (inline thread_local), so enabling it here instruments exactly the mutexes
// this file creates without rebuilding any library. Each EXPECT_DEATH body
// constructs its own mutexes inside the forked child so the parent's
// thread-local held stack stays empty.

#include <gtest/gtest.h>

#include "src/common/sync.h"

namespace vlora {
namespace {

class LockRankTest : public ::testing::Test {
 protected:
  void SetUp() override {
    // Death tests fork; "threadsafe" re-execs the binary so the child is not
    // a clone of a multi-threaded parent.
    ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  }
};

TEST_F(LockRankTest, CorrectDecreasingNestingIsSilent) {
  Mutex outer(Rank::kCluster, "test::outer");
  Mutex middle(Rank::kReplicaIngress, "test::middle");
  Mutex inner(Rank::kLeaf, "test::inner");
  {
    MutexLock a(&outer);
    MutexLock b(&middle);
    MutexLock c(&inner);
    EXPECT_EQ(lock_debug::HeldCount(), 3);
  }
  EXPECT_EQ(lock_debug::HeldCount(), 0);
}

TEST_F(LockRankTest, ReacquiringAfterFullReleaseIsSilent) {
  Mutex low(Rank::kLeaf, "test::low");
  Mutex high(Rank::kCluster, "test::high");
  // low then high is fine sequentially — only *nested* ascent is an error.
  { MutexLock a(&low); }
  { MutexLock b(&high); }
  { MutexLock c(&low); }
  EXPECT_EQ(lock_debug::HeldCount(), 0);
}

TEST_F(LockRankTest, InvertedAcquisitionAborts) {
  EXPECT_DEATH(
      {
        Mutex low(Rank::kLeaf, "test::low");
        Mutex high(Rank::kCluster, "test::high");
        MutexLock a(&low);
        MutexLock b(&high);
      },
      "lock-rank violation: acquiring 'test::high' \\(kCluster/60\\) while "
      "holding 'test::low' \\(kLeaf/10\\)");
}

TEST_F(LockRankTest, SameRankAcquisitionAborts) {
  // Equal rank counts as a violation: two same-rank locks taken in opposite
  // orders by two threads deadlock just as surely as an inversion.
  EXPECT_DEATH(
      {
        Mutex a(Rank::kPool, "test::a");
        Mutex b(Rank::kPool, "test::b");
        MutexLock la(&a);
        MutexLock lb(&b);
      },
      "lock-rank violation: acquiring 'test::b' \\(kPool/20\\) while holding "
      "'test::a' \\(kPool/20\\)");
}

TEST_F(LockRankTest, SelfRelockAbortsWithSelfDeadlockTag) {
  EXPECT_DEATH(
      {
        Mutex mu(Rank::kLeaf, "test::mu");
        MutexLock a(&mu);
        MutexLock b(&mu);
      },
      "same mutex: self-deadlock");
}

TEST_F(LockRankTest, TryLockJoinsTheHeldStack) {
  // A successful TryLock is held to the same discipline — the later blocking
  // acquisition above it must still abort.
  EXPECT_DEATH(
      {
        Mutex low(Rank::kLeaf, "test::low");
        Mutex high(Rank::kReplicaIngress, "test::high");
        ASSERT_TRUE(low.TryLock());
        MutexLock b(&high);
      },
      "acquiring 'test::high' \\(kReplicaIngress/40\\) while holding "
      "'test::low' \\(kLeaf/10\\)");
}

TEST_F(LockRankTest, DiagnosticListsTheFullHeldStack) {
  EXPECT_DEATH(
      {
        Mutex outer(Rank::kCluster, "test::outer");
        Mutex inner(Rank::kPool, "test::inner");
        MutexLock a(&outer);
        MutexLock b(&inner);
        Mutex bad(Rank::kReplicaIngress, "test::bad");
        MutexLock c(&bad);
      },
      "held locks \\(oldest first\\):\n  0: 'test::outer' \\(kCluster/60\\)\n"
      "  1: 'test::inner' \\(kPool/20\\)");
}

TEST_F(LockRankTest, BlockingWhileHoldingAnotherLockAborts) {
  // Waiting on `inner` while also holding `outer` (rank kPool, above the
  // default kLogging threshold) must abort: the wait can stall indefinitely
  // with a real lock pinned.
  EXPECT_DEATH(
      {
        Mutex outer(Rank::kPool, "test::outer");
        Mutex inner(Rank::kLeaf, "test::inner");
        CondVar cv;
        MutexLock a(&outer);
        MutexLock b(&inner);
        cv.WaitForMs(inner, 1.0);
      },
      "lock-rank violation: blocking in CondVar::WaitForMs while holding "
      "'test::outer' \\(kPool/20\\) above the blocking threshold "
      "\\(kLogging/0\\)");
}

TEST_F(LockRankTest, WaitingOnTheSoleHeldLockIsSilent) {
  Mutex mu(Rank::kReplicaIngress, "test::mu");
  CondVar cv;
  MutexLock lock(&mu);
  // Times out after 1ms; the point is that OnBlock does not abort when the
  // only held lock is the one the wait releases.
  EXPECT_FALSE(cv.WaitForMs(mu, 1.0));
}

TEST_F(LockRankTest, RaisedBlockingThresholdPermitsTheWait) {
  const Rank previous = lock_debug::SetMaxBlockingHeldRank(Rank::kCluster);
  EXPECT_EQ(previous, Rank::kLogging);
  {
    Mutex outer(Rank::kPool, "test::outer");
    Mutex inner(Rank::kLeaf, "test::inner");
    CondVar cv;
    MutexLock a(&outer);
    MutexLock b(&inner);
    EXPECT_FALSE(cv.WaitForMs(inner, 1.0));
  }
  EXPECT_EQ(lock_debug::SetMaxBlockingHeldRank(previous), Rank::kCluster);
}

TEST_F(LockRankTest, RankAndNameAccessorsSurvive) {
  Mutex mu(Rank::kTrace, "test::named");
  EXPECT_EQ(mu.rank(), Rank::kTrace);
  EXPECT_STREQ(mu.name(), "test::named");
  Mutex anonymous(Rank::kLeaf);
  EXPECT_STREQ(anonymous.name(), "kLeaf");
}

}  // namespace
}  // namespace vlora
