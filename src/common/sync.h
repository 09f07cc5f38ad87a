// Annotated, rank-checked synchronization primitives and the two atomic
// types — the only place under src/ allowed to touch <mutex> /
// <condition_variable> / <atomic> directly (vlora_lint's raw-mutex and
// raw-atomic rules enforce it).
//
// vlora::Mutex, MutexLock and CondVar are thin wrappers over the std
// primitives that carry (1) the Clang thread-safety attributes from
// annotations.h, so every guarded member and every REQUIRES-taking helper in
// the concurrent subsystems is checked at compile time under
// -Werror=thread-safety, and (2) a mandatory lock *rank* from the repo's lock
// hierarchy. The Rank enum below plus each Mutex's declaration are the only
// statement of that hierarchy: the runtime checker reads the ranks from the
// Mutex objects, and the vlora_lint lock-order pass reads the enum and the
// declarations from the source.
//
// Rank discipline (debug / sanitizer builds, -DVLORA_LOCK_RANK_CHECKS):
//   * A thread may only acquire a mutex whose rank is strictly LOWER than
//     every rank it already holds. Acquiring a rank >= one already held —
//     including re-acquiring the same mutex — aborts with both lock names,
//     the thread's full acquisition stack and (where glibc provides it) a
//     backtrace of the offending acquisition.
//   * Blocking while holding: a CondVar wait, ThreadPool::WaitIdle /
//     ParallelFor barrier, or a blocking Replica/ClusterServer submit aborts
//     when the thread holds any lock (other than the one it is waiting on)
//     whose rank is above the configured threshold
//     (lock_debug::SetMaxBlockingHeldRank, default Rank::kLogging — i.e. no
//     real lock may be held across a block).
// Release builds compile every check out; a Mutex then adds only the
// (unread) rank/name fields over a raw std::mutex.
//
// Condition waits: the analysis cannot see through lambda predicates (a
// lambda body is analysed as a separate function with no capability context),
// so CondVar deliberately has no predicate-taking Wait. Callers write the
// explicit loop, which keeps every guarded read inside the annotated scope:
//
//   MutexLock lock(&mutex_);
//   while (!ready_) {          // ready_ is VLORA_GUARDED_BY(mutex_)
//     cv_.Wait(mutex_);        // VLORA_REQUIRES(mutex_)
//   }

#ifndef VLORA_SRC_COMMON_SYNC_H_
#define VLORA_SRC_COMMON_SYNC_H_

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <mutex>

#if defined(VLORA_LOCK_RANK_CHECKS)
#include <cstdio>
#include <cstdlib>
#if defined(__has_include)
#if __has_include(<execinfo.h>)
#include <execinfo.h>
#define VLORA_HAVE_EXECINFO 1
#endif
#endif
#endif  // VLORA_LOCK_RANK_CHECKS

#include "src/common/annotations.h"

namespace vlora {

// The two atomic types. Each fixes its memory order in its type, so a call
// site cannot pick one and no operation is seq_cst:
//
//   RelaxedAtomic<T>    every operation is relaxed: statistics, tuning knobs
//                       and sequence numbers that order nothing around them.
//   PublishedAtomic<T>  Publish and FetchAdd are release, Load is acquire: a
//                       thread that loads a value another thread published
//                       also sees every write the publisher made before it.
//
// Neither converts to or from T, has operators or copies. The constructor is
// constexpr, so a namespace-scope instance declared constinit is initialized
// before any static initializer can read it. DESIGN.md §14 lists every
// atomic under src/ with the threads that publish and read it.
template <typename T>
class RelaxedAtomic {
 public:
  constexpr explicit RelaxedAtomic(T initial) noexcept : value_(initial) {}

  RelaxedAtomic(const RelaxedAtomic&) = delete;
  RelaxedAtomic& operator=(const RelaxedAtomic&) = delete;

  T Load() const { return value_.load(std::memory_order_relaxed); }
  void Store(T value) { value_.store(value, std::memory_order_relaxed); }
  T FetchAdd(T delta) { return value_.fetch_add(delta, std::memory_order_relaxed); }
  T Exchange(T value) { return value_.exchange(value, std::memory_order_relaxed); }

 private:
  std::atomic<T> value_;
};

template <typename T>
class PublishedAtomic {
 public:
  constexpr explicit PublishedAtomic(T initial) noexcept : value_(initial) {}

  PublishedAtomic(const PublishedAtomic&) = delete;
  PublishedAtomic& operator=(const PublishedAtomic&) = delete;

  T Load() const { return value_.load(std::memory_order_acquire); }
  void Publish(T value) { value_.store(value, std::memory_order_release); }
  T FetchAdd(T delta) { return value_.fetch_add(delta, std::memory_order_release); }

 private:
  std::atomic<T> value_;
};

// The lock hierarchy: a thread acquires ranks in strictly decreasing order.
// Only state that two threads share takes a lock; DESIGN.md §9 lists each
// lock with the threads that take it. Values leave gaps so a future layer can
// slot in without renumbering.
enum class Rank : int {
  kLogging = 0,          // logging g_emit_mutex; any thread may log under any lock
  kTrace = 5,            // tracer/metrics registries; cold paths of src/common/trace.h
  kLeaf = 10,            // terminal locks that never call out (fault, channel, child)
  kPool = 20,            // ThreadPool::mutex_
  kReplicaIngress = 40,  // Replica::mutex_ (ingress queue, worker state)
  kCluster = 60,         // ClusterServer::mutex_ (routing, pending table)
};

constexpr const char* RankName(Rank rank) {
  switch (rank) {
    case Rank::kLogging:
      return "kLogging";
    case Rank::kTrace:
      return "kTrace";
    case Rank::kLeaf:
      return "kLeaf";
    case Rank::kPool:
      return "kPool";
    case Rank::kReplicaIngress:
      return "kReplicaIngress";
    case Rank::kCluster:
      return "kCluster";
  }
  return "kUnknown";
}

#if defined(VLORA_LOCK_RANK_CHECKS)

// Debug-only deadlock detector: a thread-local stack of held (mutex, rank,
// name) entries, checked on every acquisition and every blocking point. The
// machinery is header-only (inline thread_local) so a single TU compiled with
// VLORA_LOCK_RANK_CHECKS — e.g. the death tests in a release tree — gets a
// fully working detector without rebuilding the libraries.
namespace lock_debug {

struct HeldEntry {
  const void* mu = nullptr;
  int rank = 0;
  const char* name = nullptr;
};

inline constexpr int kMaxHeld = 32;

struct HeldStack {
  HeldEntry entries[kMaxHeld];
  int depth = 0;
};

inline thread_local HeldStack g_held;

// Blocking while holding any OTHER lock with rank > this aborts. Default: a
// thread must hold nothing but the waited mutex (and at most the logging
// leaf) when it blocks. The value only tunes a debug check; it publishes
// nothing.
inline constinit RelaxedAtomic<int> g_max_blocking_held_rank{static_cast<int>(Rank::kLogging)};

inline Rank SetMaxBlockingHeldRank(Rank rank) {
  return static_cast<Rank>(g_max_blocking_held_rank.Exchange(static_cast<int>(rank)));
}

inline int HeldCount() { return g_held.depth; }

inline void DumpHeldAndAbort() {
  std::fprintf(stderr, "held locks (oldest first):\n");
  for (int i = 0; i < g_held.depth; ++i) {
    std::fprintf(stderr, "  %d: '%s' (%s/%d)\n", i, g_held.entries[i].name,
                 RankName(static_cast<Rank>(g_held.entries[i].rank)), g_held.entries[i].rank);
  }
#if defined(VLORA_HAVE_EXECINFO)
  void* frames[32];
  const int count = backtrace(frames, 32);
  std::fprintf(stderr, "acquisition backtrace (%d frames):\n", count);
  backtrace_symbols_fd(frames, count, 2);
#endif
  std::abort();
}

inline void OnAcquire(const void* mu, int rank, const char* name) {
  for (int i = 0; i < g_held.depth; ++i) {
    const HeldEntry& held = g_held.entries[i];
    if (rank >= held.rank) {
      std::fprintf(stderr,
                   "vlora lock-rank violation: acquiring '%s' (%s/%d) while holding "
                   "'%s' (%s/%d)%s\n",
                   name, RankName(static_cast<Rank>(rank)), rank, held.name,
                   RankName(static_cast<Rank>(held.rank)), held.rank,
                   mu == held.mu ? " [same mutex: self-deadlock]" : "");
      DumpHeldAndAbort();
    }
  }
  if (g_held.depth >= kMaxHeld) {
    std::fprintf(stderr, "vlora lock-rank: held-lock stack overflow acquiring '%s'\n", name);
    DumpHeldAndAbort();
  }
  g_held.entries[g_held.depth++] = HeldEntry{mu, rank, name};
}

inline void OnRelease(const void* mu) {
  // Search from the top; tolerate a miss (a lock acquired in a TU built
  // without checks) rather than desyncing the stack.
  for (int i = g_held.depth - 1; i >= 0; --i) {
    if (g_held.entries[i].mu == mu) {
      for (int j = i; j + 1 < g_held.depth; ++j) {
        g_held.entries[j] = g_held.entries[j + 1];
      }
      --g_held.depth;
      return;
    }
  }
}

// `waited` is the mutex the blocking primitive atomically releases (null for
// blocking entry points that take no lock of their own yet).
inline void OnBlock(const void* waited, const char* what) {
  const int limit = g_max_blocking_held_rank.Load();
  for (int i = 0; i < g_held.depth; ++i) {
    const HeldEntry& held = g_held.entries[i];
    if (held.mu != waited && held.rank > limit) {
      std::fprintf(stderr,
                   "vlora lock-rank violation: blocking in %s while holding '%s' (%s/%d) "
                   "above the blocking threshold (%s/%d)\n",
                   what, held.name, RankName(static_cast<Rank>(held.rank)), held.rank,
                   RankName(static_cast<Rank>(limit)), limit);
      DumpHeldAndAbort();
    }
  }
}

}  // namespace lock_debug

#define VLORA_RANK_ON_ACQUIRE(mu, rank, name) ::vlora::lock_debug::OnAcquire(mu, rank, name)
#define VLORA_RANK_ON_RELEASE(mu) ::vlora::lock_debug::OnRelease(mu)
#define VLORA_BLOCKING_REGION(waited, what) ::vlora::lock_debug::OnBlock(waited, what)

#else  // !VLORA_LOCK_RANK_CHECKS

#define VLORA_RANK_ON_ACQUIRE(mu, rank, name) ((void)0)
#define VLORA_RANK_ON_RELEASE(mu) ((void)0)
#define VLORA_BLOCKING_REGION(waited, what) ((void)0)

#endif  // VLORA_LOCK_RANK_CHECKS

class VLORA_CAPABILITY("mutex") Mutex {
 public:
  // Every mutex declares its place in the lock hierarchy; there is no default
  // constructor on purpose. `name` appears in lock-rank diagnostics; pass the
  // qualified member name (e.g. "Replica::mutex_"), defaulting to the rank's
  // name when omitted.
  explicit Mutex(Rank rank, const char* name = nullptr)
      : rank_(rank), name_(name != nullptr ? name : RankName(rank)) {}

  Mutex(const Mutex&) = delete;
  Mutex& operator=(const Mutex&) = delete;

  void Lock() VLORA_ACQUIRE() {
    VLORA_RANK_ON_ACQUIRE(this, static_cast<int>(rank_), name_);
    mu_.lock();
  }
  void Unlock() VLORA_RELEASE() {
    mu_.unlock();
    VLORA_RANK_ON_RELEASE(this);
  }
  bool TryLock() VLORA_TRY_ACQUIRE(true) {
    if (!mu_.try_lock()) {
      return false;
    }
    // A successful try-acquire still joins the held stack — and is held to
    // the same ordering discipline; an out-of-order TryLock is a latent
    // inversion even though this particular call could not block.
    VLORA_RANK_ON_ACQUIRE(this, static_cast<int>(rank_), name_);
    return true;
  }

  Rank rank() const { return rank_; }
  const char* name() const { return name_; }

  // For CondVar only: the raw handle the std wait primitives need.
  std::mutex& native_handle() { return mu_; }

 private:
  const Rank rank_;
  const char* const name_;
  std::mutex mu_;
};

// RAII lock; the annotated replacement for std::lock_guard / the
// non-predicate uses of std::unique_lock. Always name the guard — a
// `MutexLock(&mu);` temporary unlocks at the end of the full expression
// (vlora_lint's mutexlock-temporary rule catches the mistake).
class VLORA_SCOPED_CAPABILITY MutexLock {
 public:
  explicit MutexLock(Mutex* mu) VLORA_ACQUIRE(mu) : mu_(mu) { mu_->Lock(); }
  ~MutexLock() VLORA_RELEASE() { mu_->Unlock(); }

  MutexLock(const MutexLock&) = delete;
  MutexLock& operator=(const MutexLock&) = delete;

 private:
  Mutex* const mu_;
};

class CondVar {
 public:
  CondVar() = default;

  CondVar(const CondVar&) = delete;
  CondVar& operator=(const CondVar&) = delete;

  // Atomically releases `mu`, blocks, and reacquires `mu` before returning.
  // Spurious wakeups happen; callers loop on their predicate (see header
  // comment). The adopt/release dance hands the already-held mutex to the
  // std wait call and takes it back without a second lock round-trip.
  void Wait(Mutex& mu) VLORA_REQUIRES(mu) {
    VLORA_BLOCKING_REGION(&mu, "CondVar::Wait");  // vlora-lint: allow(hot-path-blocking) this is the wait; each hot caller justifies its own Wait call
    std::unique_lock<std::mutex> lock(mu.native_handle(), std::adopt_lock);
    cv_.wait(lock);
    lock.release();
  }

  // Timed wait; returns false when `timeout_ms` elapsed without a notify
  // (callers still re-check their predicate either way).
  bool WaitForMs(Mutex& mu, double timeout_ms) VLORA_REQUIRES(mu) {
    VLORA_BLOCKING_REGION(&mu, "CondVar::WaitForMs");
    std::unique_lock<std::mutex> lock(mu.native_handle(), std::adopt_lock);
    const std::cv_status status =
        cv_.wait_for(lock, std::chrono::duration<double, std::milli>(timeout_ms));
    lock.release();
    return status == std::cv_status::no_timeout;
  }

  void NotifyOne() { cv_.notify_one(); }
  void NotifyAll() { cv_.notify_all(); }

 private:
  std::condition_variable cv_;
};

}  // namespace vlora

#endif  // VLORA_SRC_COMMON_SYNC_H_
