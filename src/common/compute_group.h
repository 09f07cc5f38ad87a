// A fixed group of compute threads: the thread that calls Run plus helper
// threads the group owns. Run hands out the indices of one parallel loop from
// a shared counter and returns when every index has run; a Run costs no heap
// allocation and no task queue. The engine splits a long step's rows and
// attention heads over its group, and GemmTiledParallel its block tiles, the
// CPU analog of thread blocks scheduling onto SMs: a loop with fewer indices
// than threads leaves threads idle, Table 1's "low SM utilisation".
//
// Wake protocol (DESIGN.md §16 has the measurements behind it). Run posts a
// generation to each helper it needs, waking the ones that parked, and runs
// indices itself until none is left. It then withdraws every posted helper
// that has not started, so a helper that is slow to get its CPU never holds
// up the join, and yields until the helpers that did start have reported.
// The caller never spins bare: a helper woken by a spinning caller on a
// shared CPU started about one scheduler tick late. A helper spins with
// `pause` for kSpinMicros after each job, which covers the gaps inside one
// engine step, and then parks on its condition variable. Pin binds helpers
// to CPUs; a helper whose pin fails runs unpinned, which changes timing
// only.

#ifndef VLORA_SRC_COMMON_COMPUTE_GROUP_H_
#define VLORA_SRC_COMMON_COMPUTE_GROUP_H_

#include <cstdint>
#include <memory>
#include <type_traits>
#include <vector>

#include "src/common/sync.h"

namespace vlora {

class ComputeGroup {
 public:
  // How long a helper spins for its next job before it parks.
  static constexpr int64_t kSpinMicros = 250;

  // threads >= 1: the calling thread plus threads - 1 helpers.
  explicit ComputeGroup(int threads);
  ~ComputeGroup();

  ComputeGroup(const ComputeGroup&) = delete;
  ComputeGroup& operator=(const ComputeGroup&) = delete;

  int size() const { return static_cast<int>(helpers_.size()) + 1; }

  // Pins helper w (worker w, 1 <= w < size()) to CPU cpus[w - 1] and returns
  // how many pins took. A helper with no entry, or whose pin fails, stays
  // unpinned. Owner thread only.
  int Pin(const std::vector<int>& cpus);

  // Runs fn(index, worker) for every index in [0, count) on at most
  // `workers` threads, worker 0 being the caller and worker w >= 1 helper w,
  // and returns once every call has returned. Which worker runs an index is
  // unspecified, and a helper that has not started by the time the caller
  // runs out of indices runs none: callers key per-thread state by worker
  // and outputs by index. Owner thread only; fn must not throw or call Run.
  template <typename Fn>
  void Run(int64_t count, int workers, Fn&& fn) {
    using Body = std::remove_reference_t<Fn>;
    RunJob(Job{.fn = const_cast<void*>(static_cast<const void*>(&fn)),
               .call = [](void* body, int64_t index, int worker) {
                 (*static_cast<Body*>(body))(index, worker);
               },
               .count = count},
           workers);
  }

  // Helpers parked on their condition variable right now (tests).
  int ParkedHelpers();

 private:
  struct Job {
    void* fn = nullptr;
    void (*call)(void* fn, int64_t index, int worker) = nullptr;
    int64_t count = 0;
  };
  struct Helper;

  void RunJob(const Job& job, int workers);
  // Claims and runs indices of job_ until none is left.
  void Work(int worker);
  void HelperLoop(Helper& helper, int worker);

  // The current job; the owner writes it before posting a generation, and a
  // helper reads it only once it has claimed that generation's slot.
  Job job_;
  alignas(64) RelaxedAtomic<int64_t> next_{0};  // next unclaimed index of job_
  uint64_t generation_ = 0;  // jobs run with helpers (owner only)
  std::vector<std::unique_ptr<Helper>> helpers_;
};

}  // namespace vlora

#endif  // VLORA_SRC_COMMON_COMPUTE_GROUP_H_
