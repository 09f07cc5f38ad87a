#include "src/common/thread_pool.h"

#include <algorithm>

#include "src/common/status.h"

namespace vlora {

ThreadPool::ThreadPool(int threads) {
  if (threads <= 0) {
    threads = std::max(1u, std::thread::hardware_concurrency());
  }
  workers_.reserve(static_cast<size_t>(threads));
  for (int i = 0; i < threads; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    MutexLock lock(&mutex_);
    shutdown_ = true;
  }
  work_cv_.NotifyAll();
  for (std::thread& worker : workers_) {
    worker.join();
  }
}

void ThreadPool::WorkerLoop() {
  while (true) {
    std::function<void()> task;
    {
      MutexLock lock(&mutex_);
      while (!shutdown_ && tasks_.empty()) {
        work_cv_.Wait(mutex_);
      }
      if (shutdown_ && tasks_.empty()) {
        return;
      }
      task = std::move(tasks_.front());
      tasks_.pop();
    }
    task();
    {
      MutexLock lock(&mutex_);
      --in_flight_;
      if (in_flight_ == 0) {
        done_cv_.NotifyAll();
      }
    }
  }
}

void ThreadPool::Post(std::function<void()> fn) {
  {
    MutexLock lock(&mutex_);
    VLORA_CHECK(!shutdown_);
    ++in_flight_;
    tasks_.push(std::move(fn));
  }
  work_cv_.NotifyOne();
}

void ThreadPool::WaitIdle() {
  VLORA_BLOCKING_REGION(nullptr, "ThreadPool::WaitIdle");
  MutexLock lock(&mutex_);
  while (in_flight_ != 0) {
    done_cv_.Wait(mutex_);
  }
}

}  // namespace vlora
