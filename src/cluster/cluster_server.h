// ClusterServer: N VloraServer replicas behind an adapter-affinity router.
//
// The real-engine counterpart of the simulator's multi-device dispatch
// (Table 3): every replica owns a full engine + adapter set and is driven by
// its own worker thread on a shared ThreadPool; a Router assigns each
// submitted request to a replica — round-robin (the paper's setup),
// least-loaded, or adapter-affinity over an InfiniLoRA-style AdapterPlacement
// (replicated hot set, partitioned cold tail). Bounded per-replica queues
// give the cluster backpressure: a saturating trace either blocks the
// submitter or sheds load, it never grows memory without bound.
//
// Failure recovery: every accepted request is tracked in a pending table
// (with a copy for replay) until a replica completes or definitively fails
// it. A supervisor thread (a) re-dispatches failed requests to surviving
// replicas with bounded exponential-backoff retries, (b) enforces optional
// per-request deadlines, and (c) health-checks the fleet — a replica whose
// worker heartbeat goes stale while it holds work is quarantined (marked
// unroutable, its queued requests stolen and re-routed) and readmitted when
// the heartbeat resumes; a dead replica is permanently removed from routing
// and its partitioned cold-tail adapters are re-homed onto survivors via
// AdapterPlacement::Rebalance. Faults are injected deterministically through
// an optional FaultInjector (src/common/fault.h); without one the recovery
// layer is dormant apart from the supervisor's idle heartbeat scan.

#ifndef VLORA_SRC_CLUSTER_CLUSTER_SERVER_H_
#define VLORA_SRC_CLUSTER_CLUSTER_SERVER_H_

#include <functional>
#include <memory>
#include <thread>
#include <unordered_map>
#include <vector>

#include "src/cluster/placement.h"
#include "src/cluster/process_replica.h"
#include "src/cluster/replica.h"
#include "src/cluster/router.h"
#include "src/common/fault.h"
#include "src/common/sync.h"
#include "src/workload/request.h"

namespace vlora {

struct RecoveryOptions {
  // Total enqueue attempts per request (first dispatch included) before it is
  // failed with the last replica-reported status.
  int max_attempts = 3;
  // Retry delay after the Nth failed attempt: backoff_base_ms * 2^(N-1).
  double backoff_base_ms = 2.0;
  // Submit-to-completion budget; a request that cannot be completed within it
  // fails with DEADLINE_EXCEEDED. 0 disables deadlines. Enforced at failure/
  // retry decision points — a request already executing is never interrupted.
  double request_deadline_ms = 0.0;
  // Supervisor tick: health checks + due-retry dispatch.
  double health_period_ms = 5.0;
  // A replica with queued work whose worker heartbeat has not advanced for
  // this long is quarantined. 0 disables stall detection.
  double stall_quarantine_ms = 250.0;
};

// Disaggregated prefill/decode serving (DESIGN.md §15). When enabled the
// replica fleet is split into two pools: replicas [0, num_prefill) run only
// prefill chunks (prefill_only requests) and hand their paged KV state to the
// master, which re-routes each request into the decode pool
// [num_prefill, num_replicas) with the KvHandle attached. Adapters are homed
// per pool (independent AdapterPlacements), and the two SLO knobs act on
// their natural pool: ttft_slo_ms bounds admission by prefill-pool depth,
// tpot_slo_ms caps the decode replicas' batch size.
struct DisaggOptions {
  bool enabled = false;
  int num_prefill = 1;  // prefill pool size; decode pool gets the rest
  // TTFT admission: reject a Submit when every live prefill replica already
  // queues >= max(1, ttft_slo_ms / est_prefill_ms) requests. 0 disables.
  double ttft_slo_ms = 0.0;
  double est_prefill_ms = 5.0;
  // TPOT batching: cap decode replicas' max_batch_size at
  // clamp(tpot_slo_ms / est_decode_step_ms, 1, configured). 0 disables.
  double tpot_slo_ms = 0.0;
  double est_decode_step_ms = 1.0;
};

struct ClusterOptions {
  int num_replicas = 2;
  ServerOptions server;  // applied to every replica
  RoutePolicy policy = RoutePolicy::kAdapterAffinity;
  AdmissionPolicy admission = AdmissionPolicy::kBlock;
  // kThread hosts every replica in this process (default); kProcess forks a
  // vlora_executor per replica and drives it over the wire protocol. The
  // recovery machinery (quarantine, retries, rebalance) is identical either
  // way — with kProcess an executor death is a real process death.
  ReplicaBackend backend = ReplicaBackend::kThread;
  // kProcess wire tuning (executor path, transport, inflight window,
  // heartbeat period); the admission, queue bound, server options and fault
  // injector here apply to both backends.
  ProcessReplicaOptions process;
  int64_t replica_queue_capacity = 64;
  PlacementOptions placement;
  RecoveryOptions recovery;
  DisaggOptions disagg;
  FaultInjector* fault = nullptr;  // not owned; must outlive the cluster
};

// A request the recovery layer gave up on, with its final status.
struct FailedRequest {
  int64_t request_id = 0;
  Status status;
  int attempts = 0;
};

struct ClusterStats {
  std::vector<ReplicaSnapshot> replicas;
  int64_t submitted = 0;
  int64_t completed = 0;
  int64_t rejected = 0;
  int64_t affinity_hits = 0;    // routed to a home replica of the adapter
  int64_t affinity_spills = 0;  // home overloaded, fell back to least-loaded
  int64_t adapter_swap_ins = 0;     // summed over replicas
  int64_t adapter_evictions = 0;    // summed over replicas
  double visible_swap_ms = 0.0;     // summed over replicas
  double wall_ms = 0.0;             // first Submit -> last Drain
  double throughput_rps = 0.0;      // completed / wall
  LatencyRecorder latency;          // wall-clock submit -> completion, merged
  // Recovery counters (cluster-level; per-replica views in `replicas`).
  int64_t retries = 0;            // failed requests re-dispatched
  int64_t rerouted = 0;           // queued requests stolen off a quarantined replica
  int64_t failed = 0;             // requests that exhausted recovery
  int64_t cancelled = 0;          // requests cancelled at shutdown
  int64_t deadline_failures = 0;  // subset of `failed` that hit the deadline
  int64_t replica_deaths = 0;
  int64_t quarantines = 0;
  int64_t readmissions = 0;
  // Disaggregated mode (zero in unified mode).
  // Each handoff hands the master one KvHandle, released exactly once.
  int64_t handoffs = 0;          // prefill results diverted to the handoff path
  int64_t handles_released = 0;  // KvHandles released (completion or final failure)
};

class ClusterServer {
 public:
  explicit ClusterServer(const ModelConfig& config, const ClusterOptions& options = {});
  ~ClusterServer();

  ClusterServer(const ClusterServer&) = delete;
  ClusterServer& operator=(const ClusterServer&) = delete;

  int num_replicas() const { return static_cast<int>(replicas_.size()); }

  // Registers a copy of the adapter on every replica so any replica can serve
  // any request; returns the cluster-wide adapter id (identical on each
  // replica). Setup phase only.
  int AddAdapter(const LoraAdapter& adapter) VLORA_EXCLUDES(mutex_);

  // Computes the placement from per-adapter request shares (AdapterShares()
  // over the expected trace) and pre-warms each replica's home set onto its
  // device. Without this call affinity routing degenerates to least-loaded.
  // Setup phase only: no other thread exists yet, so deliberately unchecked.
  void PlaceAdapters(const std::vector<double>& shares) VLORA_NO_THREAD_SAFETY_ANALYSIS;
  // Pool 0's placement: the whole fleet in unified mode, the prefill pool in
  // disaggregated mode (the decode pool keeps its own). Setup-phase /
  // quiescent-only by contract, so deliberately unchecked.
  const AdapterPlacement& placement() const VLORA_NO_THREAD_SAFETY_ANALYSIS {
    return pools_[0].placement;
  }

  // Invoked (from a replica worker thread) whenever a request completes, with
  // the cluster-clock completion time; benches use it to build recovery
  // timelines. Set before the first Submit.
  void SetCompletionObserver(std::function<void(int64_t request_id, double completed_ms)> observer)
      VLORA_EXCLUDES(mutex_);

  // Routes the request to a replica (skipping dead/quarantined ones) and
  // tracks it for recovery. Returns false when no replica accepted it —
  // admission rejection under kReject, or no live replica at all. Blocks
  // under kBlock admission while the chosen target is full. Starts the
  // worker threads and the supervisor on first use. EngineRequest::id must
  // be unique across the cluster's lifetime.
  [[nodiscard]] bool Submit(EngineRequest request) VLORA_EXCLUDES(mutex_) VLORA_HOT;

  // Waits until every accepted request has completed or definitively failed;
  // returns the results accumulated since the previous Drain, in completion
  // order per replica.
  [[nodiscard]] std::vector<EngineResult> Drain() VLORA_EXCLUDES(mutex_);

  // Moves out the requests the recovery layer gave up on since the last call.
  [[nodiscard]] std::vector<FailedRequest> TakeFailures() VLORA_EXCLUDES(mutex_);

  // Blocks until the health checker has recorded at least `count`
  // readmissions, or `timeout_ms` elapsed (returns false). The deterministic
  // replacement for sleep-polling Stats() in tests and benches that observe
  // recovery progress.
  [[nodiscard]] bool WaitForReadmissions(int64_t count, double timeout_ms)
      VLORA_EXCLUDES(mutex_);

  // Same contract for recorded replica deaths. A replica's own fail-over runs
  // before its orphans complete, but the supervisor's health tick *records*
  // the death slightly later — tests that assert on replica_deaths wait here
  // instead of racing Drain against that tick.
  [[nodiscard]] bool WaitForReplicaDeaths(int64_t count, double timeout_ms)
      VLORA_EXCLUDES(mutex_);

  // Stops the supervisor and the replicas, cancelling queued-but-unstarted
  // work with Status::Cancelled (reported through TakeFailures / Stats).
  // Idempotent; the destructor calls it. Stats/TakeFailures remain valid
  // afterwards.
  void Shutdown() VLORA_EXCLUDES(mutex_);

  // Aggregated counters; cheap and safe while serving. Each replica's
  // snapshot takes only Replica::mutex_ and reads the engine stats its worker
  // handed over in the last Complete, so it never waits for a step.
  [[nodiscard]] ClusterStats Stats() VLORA_EXCLUDES(mutex_);

  Replica& replica(int index) { return *replicas_[static_cast<size_t>(index)]; }

 private:
  enum class PendingState {
    kEnqueued,      // on some replica's queue or inside its engine
    kWaitingRetry,  // failed; waiting out the backoff before re-dispatch
  };
  struct Pending {
    EngineRequest request;  // replay copy for retries (no stage flags attached)
    PendingState state = PendingState::kEnqueued;
    // The KvHandle the prefill pool produced; set exactly when a
    // disaggregated request reaches its decode stage. Retries re-route the
    // same handle; released (counted) when the pending entry dies.
    std::shared_ptr<KvHandle> handle;
    int attempts = 1;
    double deadline_ms = 0.0;   // cluster clock; +inf when disabled
    double retry_due_ms = 0.0;  // kWaitingRetry only
  };
  struct HealthState {
    double last_heartbeat = -1.0;
    double last_change_ms = 0.0;          // cluster clock of last heartbeat change
    double heartbeat_at_quarantine = 0.0;
    int64_t last_depth = 0;               // depth at the previous health tick
    bool quarantined = false;
    bool death_handled = false;
  };
  enum class RouteOutcome { kAccepted, kFull, kUnavailable };
  // One routing domain: the whole fleet in unified mode; the prefill pool
  // (kPrefillPool) or the decode pool (kDecodePool) in disaggregated mode.
  // The placement and the router use pool-local indices; members maps them
  // to global replica indices.
  struct Pool {
    std::vector<int> members;  // ascending
    AdapterPlacement placement;
    std::unique_ptr<Router> router;  // reads `placement`
    std::vector<int64_t> depths;     // routing scratch, one per member
  };
  static constexpr size_t kPrefillPool = 0;
  static constexpr size_t kDecodePool = 1;
  // Where a replica routes from: its pool and its index inside it.
  struct PoolSlot {
    size_t pool = 0;
    int local = 0;
  };

  // First-Submit initialisation: starts the replica workers, the hosting
  // pool and the supervisor. Holding mutex_ while starting is part of the
  // documented lock order (ClusterServer::mutex_ before Replica::mutex_ /
  // ThreadPool::mutex_; see DESIGN.md "Static concurrency invariants").
  void EnsureStartedLocked() VLORA_REQUIRES(mutex_);
  // Picks a live replica of the request's pool and enqueues; probes other
  // live members when the target refuses (dead/stopping). A first dispatch
  // (from Submit) may block on a full target and counts affinity; a
  // re-dispatch does neither. Never holds mutex_ across an Enqueue.
  RouteOutcome RouteAndEnqueue(EngineRequest request, bool first_dispatch)
      VLORA_EXCLUDES(mutex_);
  // Re-dispatches a pending request (retry or quarantine spill); on failure
  // schedules another backoff round or finalises. Supervisor thread only.
  void DispatchPending(EngineRequest request) VLORA_EXCLUDES(mutex_);
  void SupervisorLoop() VLORA_EXCLUDES(mutex_);
  void HealthCheck(double now_ms) VLORA_EXCLUDES(mutex_);
  // Replica worker callbacks (invoked without any replica lock held).
  void OnReplicaComplete(int replica, int64_t request_id) VLORA_EXCLUDES(mutex_);
  void OnReplicaFailure(int replica, int64_t request_id, const Status& status)
      VLORA_EXCLUDES(mutex_);
  // Handoff callback (disaggregated mode): takes ownership of the KvHandle,
  // which moves the pending entry to its decode stage, and dispatches it
  // into the decode pool. Duplicate handoffs (a stalled prefill replica
  // completing after its request was already re-run) are dropped.
  void OnReplicaHandoff(int replica, EngineResult result) VLORA_EXCLUDES(mutex_);
  // The request to put on the wire for `pending`'s current stage: a replay
  // copy with prefill_only / resume_handle attached as the stage demands.
  EngineRequest BuildDispatchRequestLocked(const Pending& pending) const
      VLORA_REQUIRES(mutex_);
  // Waits on health_cv_ until both recorded counts reach their targets.
  [[nodiscard]] bool WaitForHealthCounts(int64_t readmissions, int64_t deaths,
                                         double timeout_ms) VLORA_EXCLUDES(mutex_);
  // Returns true when the pending table drained; caller notifies drained_cv_.
  bool FinalizeFailureLocked(std::unordered_map<int64_t, Pending>::iterator it,
                             const Status& status, bool deadline) VLORA_REQUIRES(mutex_);
  double BackoffMs(int attempts) const;

  ClusterOptions options_;
  std::vector<std::unique_ptr<Replica>> replicas_;
  // Replica index -> its pool slot. Const after the ctor.
  std::vector<PoolSlot> slots_;
  std::unique_ptr<ThreadPool> pool_;  // after replicas_: destroyed (joined) first
  Stopwatch clock_;  // deadlines, backoff and health tracking; read-only after ctor

  // Router/placement decisions, pending table, counters. Top of the lock
  // hierarchy: held across Replica::Start in EnsureStartedLocked, never
  // acquired while any lower lock is held.
  Mutex mutex_{Rank::kCluster, "ClusterServer::mutex_"};
  CondVar drained_cv_;     // pending table emptied
  CondVar supervisor_cv_;  // retry due / stop
  CondVar health_cv_;      // quarantine / readmission / death recorded
  // Started once under mutex_, joined by Shutdown; the handle itself is only
  // touched by the single start/shutdown lifecycle.
  std::thread supervisor_;
  bool started_ VLORA_GUARDED_BY(mutex_) = false;
  bool shut_down_ VLORA_GUARDED_BY(mutex_) = false;
  Stopwatch wall_ VLORA_GUARDED_BY(mutex_);
  bool wall_started_ VLORA_GUARDED_BY(mutex_) = false;
  double wall_ms_ VLORA_GUARDED_BY(mutex_) = 0.0;
  bool supervisor_stop_ VLORA_GUARDED_BY(mutex_) = false;
  // One pool in unified mode, two in disaggregated mode. Sized once in the
  // ctor, before any router takes the address of its pool's placement;
  // routing, Rebalance and SetReplicaAlive then run under mutex_.
  std::vector<Pool> pools_ VLORA_GUARDED_BY(mutex_);
  std::unordered_map<int64_t, Pending> pending_ VLORA_GUARDED_BY(mutex_);
  std::vector<HealthState> health_ VLORA_GUARDED_BY(mutex_);
  std::vector<FailedRequest> failures_ VLORA_GUARDED_BY(mutex_);
  std::function<void(int64_t, double)> completion_observer_ VLORA_GUARDED_BY(mutex_);
  int64_t affinity_hits_ VLORA_GUARDED_BY(mutex_) = 0;
  int64_t affinity_spills_ VLORA_GUARDED_BY(mutex_) = 0;
  int64_t rejected_ VLORA_GUARDED_BY(mutex_) = 0;
  int64_t retries_ VLORA_GUARDED_BY(mutex_) = 0;
  int64_t failed_ VLORA_GUARDED_BY(mutex_) = 0;
  int64_t cancelled_ VLORA_GUARDED_BY(mutex_) = 0;
  int64_t deadline_failures_ VLORA_GUARDED_BY(mutex_) = 0;
  int64_t replica_deaths_ VLORA_GUARDED_BY(mutex_) = 0;
  int64_t quarantines_ VLORA_GUARDED_BY(mutex_) = 0;
  int64_t readmissions_ VLORA_GUARDED_BY(mutex_) = 0;
  int64_t handoffs_ VLORA_GUARDED_BY(mutex_) = 0;
  int64_t handles_released_ VLORA_GUARDED_BY(mutex_) = 0;
};

// Maps a synthetic workload request onto the mini engine: a deterministic
// prompt derived from the request id and token counts scaled down by
// `token_scale` (paper-size prompts do not fit a tiny CPU model), with at
// least 4 prompt tokens and 1 new token. Every request decodes through the LM
// head; a caller that wants a task-head answer sets `use_task_head` on the
// result. Shared by the cluster bench, test and example so they serve the
// same requests the simulator costs.
struct TraceMapOptions {
  int64_t token_scale = 16;       // divide trace token counts by this
  int64_t max_prompt_tokens = 64;
  int64_t max_new_tokens = 16;
};

EngineRequest EngineRequestFromTrace(const Request& request, const ModelConfig& config,
                                     const TraceMapOptions& options = {});

}  // namespace vlora

#endif  // VLORA_SRC_CLUSTER_CLUSTER_SERVER_H_
