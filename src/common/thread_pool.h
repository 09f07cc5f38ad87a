// Fixed-size thread pool that hosts long-running loops: the cluster posts
// each replica's worker or reader loop on one. Parallel loops over data run
// on a ComputeGroup (compute_group.h) instead.

#ifndef VLORA_SRC_COMMON_THREAD_POOL_H_
#define VLORA_SRC_COMMON_THREAD_POOL_H_

#include <cstdint>
#include <functional>
#include <queue>
#include <thread>
#include <vector>

#include "src/common/sync.h"

namespace vlora {

class ThreadPool {
 public:
  // threads == 0 uses the hardware concurrency (at least 1).
  explicit ThreadPool(int threads = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  int num_threads() const { return static_cast<int>(workers_.size()); }

  // Enqueues one task and returns immediately. Used by the cluster layer to
  // host long-running replica worker loops. Tasks must not throw.
  void Post(std::function<void()> fn) VLORA_EXCLUDES(mutex_);

  // Blocks until every posted task has completed.
  void WaitIdle() VLORA_EXCLUDES(mutex_);

 private:
  void WorkerLoop() VLORA_EXCLUDES(mutex_);

  std::vector<std::thread> workers_;
  Mutex mutex_{Rank::kPool, "ThreadPool::mutex_"};
  CondVar work_cv_;  // wakes workers: new task or shutdown
  CondVar done_cv_;  // wakes waiters: in_flight_ hit zero
  std::queue<std::function<void()>> tasks_ VLORA_GUARDED_BY(mutex_);
  int64_t in_flight_ VLORA_GUARDED_BY(mutex_) = 0;
  bool shutdown_ VLORA_GUARDED_BY(mutex_) = false;
};

}  // namespace vlora

#endif  // VLORA_SRC_COMMON_THREAD_POOL_H_
