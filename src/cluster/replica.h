// The replica contract: one front end, two ways to run a dequeued request.
//
// `Replica` is the surface the ClusterServer drives, and it implements the
// whole front end once: admission (kBlock/kReject, `never_block`), the
// ingress queue, the in-service set, the Depth/dead/HeartbeatMs health
// signals, the counters and results buffer, StealIngress, WaitDrained,
// TakeResults, Snapshot, one completion path and one fail-over path. A
// backend only decides how a dequeued request runs:
//
//   ThreadReplica   (here)      a VloraServer stepped by a worker loop in
//                               this process — the default and the test
//                               backend.
//   ProcessReplica  (process_replica.h)  a forked executor fed over the
//                               src/net wire protocol through an inflight
//                               window; real SIGKILLs instead of simulated
//                               ones.
//
// Threading model: router threads call Enqueue; one service thread per
// replica (ThreadReplica's worker, ProcessReplica's reader) moves requests
// into service and reports their outcome through Complete / FailInService /
// FailOver; the supervisor reads the health signals and calls StealIngress
// on quarantine. All front-end state sits under one mutex. Completion,
// failure and handoff handlers run with no replica lock held. The backend's
// own state (ThreadReplica's VloraServer) belongs to the service thread
// alone; it reaches the front end only through Complete.
//
// Backpressure: `queue_capacity` bounds *outstanding* requests (queued + in
// service). kBlock makes Enqueue wait for space — the caller slows to the
// replica's service rate; kReject makes it fail fast and count the reject.
// Either way a saturating trace cannot grow replica memory without bound.
//
// Failure semantics: nothing a replica accepted is silently dropped. Every
// request ends in exactly one of completed, handoffs, failed, cancelled or
// stolen. RequestStop cancels queued requests with Status::Cancelled (rather
// than serving a possibly long queue during shutdown); the backend finishes
// only what is already in service. A replica that dies (an injected kill,
// a lost executor) fails over everything it holds through the failure
// handler, in ascending request-id order, so the cluster's recovery layer
// retries it on survivors. A heartbeat stamped by the service thread lets
// the health checker tell a stalled replica (work held, stale heartbeat)
// from an idle one.

#ifndef VLORA_SRC_CLUSTER_REPLICA_H_
#define VLORA_SRC_CLUSTER_REPLICA_H_

#include <cstdint>
#include <deque>
#include <functional>
#include <set>
#include <span>
#include <vector>

#include "src/common/fault.h"
#include "src/common/status.h"
#include "src/common/stopwatch.h"
#include "src/common/sync.h"
#include "src/common/thread_pool.h"
#include "src/core/server.h"

namespace vlora {

enum class AdmissionPolicy {
  kBlock,   // Enqueue waits for queue space (lossless, caller-paced)
  kReject,  // Enqueue returns kFull when full (lossy, bounded latency)
};

enum class EnqueueResult {
  kAccepted,  // request queued
  kFull,      // admission rejected it (kReject, or a non-blocking attempt)
  kRefused,   // replica is dead or stopping; try another replica
};

// Which Replica implementation a cluster hosts.
enum class ReplicaBackend {
  kThread,   // in-process worker thread (default; deterministic tests)
  kProcess,  // forked executor process over the wire protocol
};

constexpr const char* ReplicaBackendName(ReplicaBackend backend) {
  switch (backend) {
    case ReplicaBackend::kThread:
      return "thread";
    case ReplicaBackend::kProcess:
      return "process";
  }
  return "?";
}

// Options every backend takes; ProcessReplicaOptions adds the wire tuning.
struct ReplicaOptions {
  ServerOptions server;
  int64_t queue_capacity = 64;  // bound on outstanding requests
  AdmissionPolicy admission = AdmissionPolicy::kBlock;
  FaultInjector* fault = nullptr;  // not owned; consulted by the service side
};

// A replica's counters. The replica counts into one of these under its
// mutex, and Snapshot returns a copy of it.
struct ReplicaSnapshot {
  int index = 0;
  const char* backend = "thread";
  bool dead = false;
  int64_t submitted = 0;
  int64_t completed = 0;
  int64_t rejected = 0;
  int64_t cancelled = 0;  // queued requests cancelled at shutdown
  int64_t failed = 0;     // injected request failures + failed over on death
  int64_t stolen = 0;     // queued requests reclaimed by the health checker
  int64_t stalls = 0;     // injected worker stalls served
  int64_t handoffs = 0;   // prefill-only results diverted to the handoff handler
  int64_t peak_depth = 0;
  ServerStats server;  // Alg-1 iteration and swap counters (thread backend only)
};

// A replica driven by the ClusterServer. All public methods are called from
// the master process: Enqueue from router threads, StealIngress and the
// health-signal getters from the supervisor, the rest from the setup /
// shutdown path.
class Replica {
 public:
  using CompletionHandler = std::function<void(int replica, int64_t request_id)>;
  using FailureHandler = std::function<void(int replica, int64_t request_id, const Status&)>;
  // Receives prefill-only results carrying a KvHandle (disaggregated mode).
  // Invoked from the replica's service thread with no replica lock held; the
  // result does NOT flow through TakeResults or the completion handler.
  using HandoffHandler = std::function<void(int replica, EngineResult result)>;

  Replica(int index, ReplicaBackend backend, const ReplicaOptions& options);
  virtual ~Replica() = default;

  Replica(const Replica&) = delete;
  Replica& operator=(const Replica&) = delete;

  int index() const { return index_; }

  // Setup phase (before Start): register an adapter copy / pre-warm the
  // placement's home set onto the device. AddAdapter returns the id the
  // replica assigned (identical across replicas for identical call order).
  virtual int AddAdapter(const LoraAdapter& adapter) = 0;
  virtual void Prewarm(const std::vector<int>& adapter_ids) = 0;

  // Optional recovery wiring; may be left unset for standalone use. Both
  // handlers must be set before Start and be safe to invoke from the
  // replica's service thread.
  void SetHandlers(CompletionHandler on_complete, FailureHandler on_failure)
      VLORA_EXCLUDES(mutex_);

  // Optional, disaggregated mode only; set before Start. When unset,
  // handle-carrying results take the ordinary completion path (the executor
  // relies on this to ship handles back over the wire).
  void SetHandoffHandler(HandoffHandler on_handoff) VLORA_EXCLUDES(mutex_);

  // Posts the replica's service loop; the pool must dedicate a thread to it.
  virtual void Start(ThreadPool* pool) = 0;

  // Router-thread entry. `never_block` turns a kBlock replica into fail-fast
  // for this one call (the supervisor's retry path must never block).
  [[nodiscard]] EnqueueResult Enqueue(EngineRequest request, bool never_block = false)
      VLORA_EXCLUDES(mutex_);

  // Outstanding requests (queued + in service). Lock-free; the router's load
  // signal.
  int64_t Depth() const { return depth_.Load(); }

  // True once the replica is permanently gone (injected kill, executor
  // death); it accepts nothing more. A clean stop is not a death.
  bool dead() const { return dead_.Load(); }

  // Service-loop liveness stamp. Advances while the replica makes progress;
  // stops during a stall and after death. Paired with Depth() it is the
  // health checker's stall signal.
  double HeartbeatMs() const { return heartbeat_ms_.Load(); }

  // Reclaims queued-but-unstarted requests (quarantine spill); the caller
  // re-routes them. Requests already in service cannot be reclaimed. A
  // replica whose service side was lost is convicted here (FailOver).
  [[nodiscard]] std::vector<EngineRequest> StealIngress() VLORA_EXCLUDES(mutex_);

  // Blocks until every accepted request has finished (or failed over).
  void WaitDrained() VLORA_EXCLUDES(mutex_);

  // Cancels queued requests, then opens the fault gate and lets the backend
  // wind down once in-service requests finish; wakes blocked submitters.
  // Idempotent.
  void RequestStop() VLORA_EXCLUDES(mutex_);

  // Moves out results accumulated since the last call.
  [[nodiscard]] std::vector<EngineResult> TakeResults() VLORA_EXCLUDES(mutex_);

  // Consistent copy of the counters; safe while the replica serves.
  [[nodiscard]] ReplicaSnapshot Snapshot() VLORA_EXCLUDES(mutex_);

 protected:
  // Backend hooks, each called with no replica lock held.
  // After Enqueue queued a request: move queued work toward execution.
  virtual void PumpIngress() = 0;
  // After RequestStop cancelled the queue: wind the service side down.
  virtual void OnStopRequested() = 0;

  // Setup/lifecycle checks: CHECK-fails once the replica started serving.
  void CheckSetupPhase() VLORA_EXCLUDES(mutex_);
  void BeginServing() VLORA_EXCLUDES(mutex_);

  // Service side. Moves queued requests into the in-service set, oldest
  // first, until `max_in_service` are in service; appends them to `out`.
  void TakeIngressLocked(int64_t max_in_service, std::vector<EngineRequest>* out)
      VLORA_REQUIRES(mutex_);
  // The completion path: takes each result's request out of service. A
  // handle-carrying result goes to the handoff handler when one is set (a
  // KV handoff is not a completion); every other result is a terminal
  // completion, buffered for TakeResults. Results whose request is no longer
  // in service (a late duplicate after a fail-over) are dropped.
  // `server_stats` (an in-process engine's counters, else null) becomes
  // Snapshot's copy in the same critical section, so it is final by the time
  // WaitDrained returns. Returns completions + handoffs so far, the fault
  // scripts' key.
  int64_t Complete(std::span<EngineResult> results, const ServerStats* server_stats = nullptr)
      VLORA_EXCLUDES(mutex_);
  // Takes one in-service request out as failed and reports it.
  void FailInService(int64_t request_id, const Status& status) VLORA_EXCLUDES(mutex_);
  // The fail-over path: the service side is gone. Unless a stop was
  // requested the replica is marked dead; everything it holds (queued and in
  // service) fails over through the failure handler — Unavailable("replica
  // <i> <reason>"), or Cancelled when stopping. Runs at most once.
  void FailOver(const char* reason) VLORA_EXCLUDES(mutex_);
  // Stamps the liveness heartbeat.
  void Beat() { heartbeat_ms_.Store(clock_.ElapsedMillis()); }

  int64_t DepthLocked() const VLORA_REQUIRES(mutex_) {
    return static_cast<int64_t>(ingress_.size() + in_service_.size());
  }

  const int index_;
  const int64_t queue_capacity_;
  FaultInjector* const fault_;  // may be null

  Mutex mutex_{Rank::kReplicaIngress, "Replica::mutex_"};
  CondVar space_cv_;  // wakes blocked submitters
  bool stop_requested_ VLORA_GUARDED_BY(mutex_) = false;
  bool running_ VLORA_GUARDED_BY(mutex_) = false;  // serving, not yet failed over
  // The service side became unreachable (ProcessReplica's lost connection)
  // but the replica is not yet convicted: Enqueue refuses, and the next
  // StealIngress convicts.
  bool lost_ VLORA_GUARDED_BY(mutex_) = false;
  // Every counter; `server` as of the last Complete. `dead` is read from
  // dead_ at Snapshot time.
  ReplicaSnapshot stats_ VLORA_GUARDED_BY(mutex_);

 private:
  // Reports `ids` through the failure handler in ascending order.
  void ReportFailures(std::vector<int64_t> ids, const Status& status);

  const AdmissionPolicy admission_;
  Stopwatch clock_;
  CompletionHandler on_complete_;
  FailureHandler on_failure_;
  HandoffHandler on_handoff_;
  // Service-thread scratch for Complete (one service thread per replica):
  // this call's terminal completions, reported after the lock drops.
  std::vector<int64_t> completed_ids_;

  CondVar drained_cv_;  // wakes WaitDrained
  std::deque<EngineRequest> ingress_ VLORA_GUARDED_BY(mutex_);
  std::set<int64_t> in_service_ VLORA_GUARDED_BY(mutex_);  // ids the service side runs
  std::vector<EngineResult> results_ VLORA_GUARDED_BY(mutex_);

  // depth_ and heartbeat_ms_ are monitoring reads with nothing ordered
  // through them; FailOver publishes dead_ after the final counters.
  RelaxedAtomic<int64_t> depth_{0};
  PublishedAtomic<bool> dead_{false};
  RelaxedAtomic<double> heartbeat_ms_{0.0};
};

// CPUs for the replicas' compute groups (EngineOptions::compute_threads).
// The replicas split the CPUs this process may run on (its affinity mask)
// evenly: each engine gets ComputeThreadsPerReplica(replicas) =
// max(1, allowed / replicas) threads, and replica `index` pins its
// threads - 1 helpers to HelperCpus(index, threads), allowed CPUs
// index * threads + 1 onwards, so no two replicas' helpers share a CPU. The
// thread that steps replica `index`'s engine is not pinned:
// KeepOffHelperCpus(index, threads) keeps it off that replica's own helper
// CPUs and leaves it every other allowed CPU. A stepping thread woken onto
// its own helper's CPU ran the helper's rows after its own, slower than one
// thread; one kept to the CPUs no replica's helper uses shared them with
// the other replica's stepping thread and the client threads (DESIGN.md §16).
int ComputeThreadsPerReplica(int replicas);
std::vector<int> HelperCpus(int index, int threads);
void KeepOffHelperCpus(int index, int threads);

// The in-process backend: a worker loop steps a VloraServer over the
// requests it takes from the front end, consulting an optional
// FaultInjector each iteration (gate, kill, stall, per-request failure).
// Once started, only the worker touches the server; it hands the server's
// stats to the front end through Complete each iteration. The constructor
// pins the engine's compute helpers to HelperCpus(index, ...).
class ThreadReplica : public Replica {
 public:
  ThreadReplica(int index, const ModelConfig& config, const ReplicaOptions& options);
  ~ThreadReplica() override;

  int AddAdapter(const LoraAdapter& adapter) override;
  void Prewarm(const std::vector<int>& adapter_ids) override;
  void Start(ThreadPool* pool) override;

 private:
  void PumpIngress() override { work_cv_.NotifyOne(); }
  void OnStopRequested() override { work_cv_.NotifyAll(); }
  void WorkerLoop() VLORA_EXCLUDES(mutex_) VLORA_HOT;

  VloraServer server_;  // worker thread only, after Start
  CondVar work_cv_;     // wakes the worker
};

}  // namespace vlora

#endif  // VLORA_SRC_CLUSTER_REPLICA_H_
