#include "src/common/compute_group.h"

#include <algorithm>
#include <chrono>
#include <limits>
#include <thread>

#if defined(__linux__)
#include <pthread.h>
#include <sched.h>
#endif

#include "src/common/status.h"

namespace vlora {

namespace {

// A helper's slot holds the generation of the job the owner posted to it
// last, shifted left by two, and where that job stands in the low two bits:
// the owner posts it, then either the helper claims it (running, then done)
// or the owner withdraws it first (cancelled). Each transition out of
// kPosted is a compare-exchange, so exactly one of the two happens.
enum SlotState : uint64_t { kPosted = 0, kRunning = 1, kCancelled = 2, kDone = 3 };

constexpr uint64_t Slot(uint64_t generation, SlotState state) { return generation << 2 | state; }

// The slot value that tells a helper to exit.
constexpr uint64_t kStop = std::numeric_limits<uint64_t>::max();

// One iteration of a spin-wait: `pause` lets the sibling hyperthread run and
// keeps the spin from flooding the memory system.
inline void CpuRelax() {
#if defined(__x86_64__) || defined(__i386__)
  __builtin_ia32_pause();
#endif
}

}  // namespace

struct alignas(64) ComputeGroup::Helper {
  // Slot(generation, state) of the job the owner posted last, or kStop.
  PublishedAtomic<uint64_t> slot{0};
  Mutex mutex{Rank::kLeaf, "ComputeGroup::Helper::mutex"};
  CondVar cv;  // wakes the helper from its park
  bool parked VLORA_GUARDED_BY(mutex) = false;
  std::thread thread;  // last: runs HelperLoop over the members above
};

ComputeGroup::ComputeGroup(int threads) {
  VLORA_CHECK(threads >= 1);
  helpers_.reserve(static_cast<size_t>(threads - 1));
  for (int worker = 1; worker < threads; ++worker) {
    helpers_.push_back(std::make_unique<Helper>());
    Helper* helper = helpers_.back().get();
    helper->thread = std::thread([this, helper, worker] { HelperLoop(*helper, worker); });
  }
}

ComputeGroup::~ComputeGroup() {
  for (const auto& helper : helpers_) {
    MutexLock lock(&helper->mutex);
    helper->slot.Publish(kStop);
    helper->cv.NotifyOne();
  }
  for (const auto& helper : helpers_) {
    helper->thread.join();
  }
}

int ComputeGroup::Pin(const std::vector<int>& cpus) {
  int pinned = 0;
#if defined(__linux__)
  for (size_t i = 0; i < helpers_.size() && i < cpus.size(); ++i) {
    if (cpus[i] < 0 || cpus[i] >= CPU_SETSIZE) {
      continue;
    }
    cpu_set_t set;
    CPU_ZERO(&set);
    CPU_SET(cpus[i], &set);
    if (pthread_setaffinity_np(helpers_[i]->thread.native_handle(), sizeof(set), &set) == 0) {
      ++pinned;
    }
  }
#else
  (void)cpus;
#endif
  return pinned;
}

int ComputeGroup::ParkedHelpers() {
  int parked = 0;
  for (const auto& helper : helpers_) {
    MutexLock lock(&helper->mutex);
    parked += helper->parked ? 1 : 0;
  }
  return parked;
}

void ComputeGroup::RunJob(const Job& job, int workers) {
  VLORA_CHECK(job.count >= 0 && workers >= 1);
  const int helpers =
      static_cast<int>(std::min<int64_t>({job.count, workers, size()})) - 1;
  if (helpers <= 0) {
    for (int64_t index = 0; index < job.count; ++index) {
      job.call(job.fn, index, 0);
    }
    return;
  }
  VLORA_BLOCKING_REGION(nullptr, "ComputeGroup::Run");
  job_ = job;
  next_.Store(0);
  ++generation_;
  const uint64_t posted = Slot(generation_, kPosted);
  for (int h = 0; h < helpers; ++h) {
    Helper& helper = *helpers_[static_cast<size_t>(h)];
    // Under the helper's mutex, so a helper about to park sees the new
    // generation or is parked when the notify comes.
    MutexLock lock(&helper.mutex);
    helper.slot.Publish(posted);
    if (helper.parked) {
      helper.cv.NotifyOne();
    }
  }
  Work(0);
  // Every index is claimed. Withdraw the helpers that have not started, so
  // one that is still waiting for its CPU costs the join nothing, then wait
  // for the ones that did. Yield, never spin bare: a helper still waiting
  // for a CPU may be queued on this one.
  for (int h = 0; h < helpers; ++h) {
    uint64_t expected = posted;
    (void)helpers_[static_cast<size_t>(h)]->slot.CompareExchange(
        expected, Slot(generation_, kCancelled));
  }
  for (int h = 0; h < helpers; ++h) {
    while (helpers_[static_cast<size_t>(h)]->slot.Load() == Slot(generation_, kRunning)) {
      std::this_thread::yield();
    }
  }
}

void ComputeGroup::Work(int worker) {
  for (int64_t index = next_.FetchAdd(1); index < job_.count; index = next_.FetchAdd(1)) {
    job_.call(job_.fn, index, worker);
  }
}

void ComputeGroup::HelperLoop(Helper& helper, int worker) {
  using Clock = std::chrono::steady_clock;
  uint64_t seen = 0;  // the slot value this helper acted on last
  for (;;) {
    uint64_t slot = helper.slot.Load();
    if (slot == seen) {
      const Clock::time_point deadline = Clock::now() + std::chrono::microseconds(kSpinMicros);
      for (int spins = 1; (slot = helper.slot.Load()) == seen; ++spins) {
        CpuRelax();
        if (spins % 64 == 0 && Clock::now() > deadline) {
          break;
        }
      }
    }
    if (slot == seen) {
      MutexLock lock(&helper.mutex);
      while ((slot = helper.slot.Load()) == seen) {
        helper.parked = true;
        helper.cv.Wait(helper.mutex);
        helper.parked = false;
      }
    }
    if (slot == kStop) {
      return;
    }
    seen = slot;
    const uint64_t generation = slot >> 2;
    // Claim the job before reading it; a failed claim means the owner
    // withdrew it (or has posted since), and the loop reloads the slot.
    if ((slot & 3) != kPosted || !helper.slot.CompareExchange(slot, Slot(generation, kRunning))) {
      continue;
    }
    Work(worker);
    seen = Slot(generation, kDone);
    helper.slot.Publish(seen);
  }
}

}  // namespace vlora
