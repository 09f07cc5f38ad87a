#include "src/cluster/cluster_server.h"

#include <algorithm>
#include <chrono>
#include <limits>
#include <utility>

#include "src/common/rng.h"
#include "src/common/status.h"
#include "src/common/trace.h"

namespace vlora {

ClusterServer::ClusterServer(const ModelConfig& config, const ClusterOptions& options)
    : options_(options) {
  VLORA_CHECK(options_.num_replicas >= 1);
  VLORA_CHECK(options_.recovery.max_attempts >= 1);
  const bool disagg = options_.disagg.enabled;
  if (disagg) {
    // Both pools need at least one replica.
    VLORA_CHECK(options_.disagg.num_prefill >= 1);
    VLORA_CHECK(options_.disagg.num_prefill < options_.num_replicas);
  }
  // Home-replica depth at which affinity routing spills to least-loaded.
  const int64_t spill_depth = std::max<int64_t>(1, options_.replica_queue_capacity / 2);
  // Replicas [0, num_prefill) form the prefill pool, the rest the decode
  // pool; unified mode has one pool of every replica.
  pools_.resize(disagg ? 2 : 1);
  slots_.resize(static_cast<size_t>(options_.num_replicas));
  for (int i = 0; i < options_.num_replicas; ++i) {
    PoolSlot& slot = slots_[static_cast<size_t>(i)];
    slot.pool = disagg && i >= options_.disagg.num_prefill ? kDecodePool : kPrefillPool;
    slot.local = static_cast<int>(pools_[slot.pool].members.size());
    pools_[slot.pool].members.push_back(i);
  }
  for (Pool& pool : pools_) {
    pool.router = std::make_unique<Router>(options_.policy, &pool.placement,
                                           static_cast<int>(pool.members.size()), spill_depth);
    pool.depths.resize(pool.members.size());
  }
  // TPOT batching: a decode step over B sequences costs ~B * est_decode_step_ms
  // of per-token latency for everyone in the batch, so the SLO bounds B.
  ServerOptions decode_server = options_.server;
  if (options_.disagg.tpot_slo_ms > 0.0) {
    const int cap = static_cast<int>(options_.disagg.tpot_slo_ms /
                                     std::max(1e-9, options_.disagg.est_decode_step_ms));
    decode_server.max_batch_size = std::clamp(cap, 1, decode_server.max_batch_size);
  }
  replicas_.reserve(static_cast<size_t>(options_.num_replicas));
  ReplicaOptions replica_options;
  replica_options.queue_capacity = options_.replica_queue_capacity;
  replica_options.admission = options_.admission;
  replica_options.fault = options_.fault;
  // Every replica's engine splits long steps over an equal share of the CPUs.
  const int compute_threads = ComputeThreadsPerReplica(options_.num_replicas);
  for (int i = 0; i < options_.num_replicas; ++i) {
    replica_options.server =
        slots_[static_cast<size_t>(i)].pool == kDecodePool ? decode_server : options_.server;
    replica_options.server.engine.compute_threads = compute_threads;
    if (options_.backend == ReplicaBackend::kProcess) {
      replicas_.push_back(
          std::make_unique<ProcessReplica>(i, config, replica_options, options_.process));
    } else {
      replicas_.push_back(std::make_unique<ThreadReplica>(i, config, replica_options));
    }
  }
  for (auto& replica : replicas_) {
    replica->SetHandlers(
        [this](int index, int64_t request_id) { OnReplicaComplete(index, request_id); },
        [this](int index, int64_t request_id, const Status& status) {
          OnReplicaFailure(index, request_id, status);
        });
    if (disagg) {
      // Decode replicas never produce prefill_only results, so wiring the
      // handler everywhere is harmless and keeps the replica contract uniform.
      replica->SetHandoffHandler(
          [this](int index, EngineResult result) { OnReplicaHandoff(index, std::move(result)); });
    }
  }
  health_.assign(static_cast<size_t>(options_.num_replicas), HealthState{});
}

ClusterServer::~ClusterServer() { Shutdown(); }

int ClusterServer::AddAdapter(const LoraAdapter& adapter) {
  {
    // Released before the replica calls: a process replica's AddAdapter
    // waits on the wire for its Ack.
    MutexLock lock(&mutex_);
    VLORA_CHECK(!started_);
  }
  int id = -1;
  for (auto& replica : replicas_) {
    const int replica_id = replica->AddAdapter(adapter);
    VLORA_CHECK(id == -1 || replica_id == id);
    id = replica_id;
  }
  return id;
}

void ClusterServer::PlaceAdapters(const std::vector<double>& shares) {
  VLORA_CHECK(!started_);
  // Each pool gets an independent placement over its own (pool-local)
  // replica indices: every adapter keeps >= 1 live home in every pool.
  for (Pool& pool : pools_) {
    pool.placement = AdapterPlacement::Compute(shares, static_cast<int>(pool.members.size()),
                                               options_.placement);
    for (size_t local = 0; local < pool.members.size(); ++local) {
      replicas_[static_cast<size_t>(pool.members[local])]->Prewarm(
          pool.placement.AdaptersOf(static_cast<int>(local)));
    }
  }
}

void ClusterServer::SetCompletionObserver(
    std::function<void(int64_t request_id, double completed_ms)> observer) {
  MutexLock lock(&mutex_);
  completion_observer_ = std::move(observer);
}

void ClusterServer::EnsureStartedLocked() {
  if (started_) {
    return;
  }
  started_ = true;
  wall_.Reset();
  wall_started_ = true;
  pool_ = std::make_unique<ThreadPool>(num_replicas());
  for (auto& replica : replicas_) {
    replica->Start(pool_.get());
  }
  // The supervisor blocks on mutex_ immediately, so it only runs once the
  // caller's critical section ends.
  supervisor_ = std::thread([this] { SupervisorLoop(); });
}

double ClusterServer::BackoffMs(int attempts) const {
  const int exponent = std::min(std::max(attempts - 1, 0), 20);
  return options_.recovery.backoff_base_ms * static_cast<double>(int64_t{1} << exponent);
}

bool ClusterServer::Submit(EngineRequest request) {
  if (options_.admission == AdmissionPolicy::kBlock) {
    VLORA_BLOCKING_REGION(nullptr, "ClusterServer::Submit(kBlock)");  // vlora-lint: allow(hot-path-blocking) kBlock admission is backpressure by design
  }
  const int64_t id = request.id;
  {
    MutexLock lock(&mutex_);
    EnsureStartedLocked();
    if (options_.disagg.enabled && options_.disagg.ttft_slo_ms > 0.0) {
      // TTFT admission: a request admitted behind `threshold` queued prefills
      // on its best-case replica cannot start inside the SLO, so shed it now
      // rather than let it rot in a prefill queue.
      const int64_t threshold = std::max<int64_t>(
          1, static_cast<int64_t>(options_.disagg.ttft_slo_ms /
                                  std::max(1e-9, options_.disagg.est_prefill_ms)));
      const Pool& prefill = pools_[kPrefillPool];
      int64_t min_depth = std::numeric_limits<int64_t>::max();
      for (size_t local = 0; local < prefill.members.size(); ++local) {
        if (prefill.router->IsReplicaAlive(static_cast<int>(local))) {
          min_depth = std::min(
              min_depth, replicas_[static_cast<size_t>(prefill.members[local])]->Depth());
        }
      }
      if (min_depth >= threshold) {  // also covers "no live prefill replica"
        ++stats_.rejected;
        return false;
      }
    }
    Pending pending;
    pending.request = request;
    pending.submit_ms = clock_.ElapsedMillis();
    pending.deadline_ms = options_.recovery.request_deadline_ms > 0.0
                              ? pending.submit_ms + options_.recovery.request_deadline_ms
                              : std::numeric_limits<double>::infinity();
    const bool inserted =
        pending_.emplace(id, std::move(pending)).second;  // vlora-lint: allow(hot-path-alloc) recovery map bounded by in-flight budget; arena planned with ROADMAP item 5
    VLORA_CHECK(inserted);  // recovery tracking needs unique request ids
  }
  trace::EmitRequestAdmitted(id, request.adapter_id);
  if (options_.disagg.enabled) {
    request.prefill_only = true;  // stage 1 of the two-stage lifecycle
  }
  const RouteOutcome outcome = RouteAndEnqueue(std::move(request), /*first_dispatch=*/true);
  if (outcome == RouteOutcome::kAccepted) {
    return true;
  }
  // Never dispatched: untrack it. An admission reject keeps the historical
  // Submit() == false contract; no-live-replica additionally surfaces as a
  // failure so callers that only look at TakeFailures() still see it.
  bool drained = false;
  {
    MutexLock lock(&mutex_);
    auto it = pending_.find(id);
    if (it != pending_.end()) {
      if (outcome == RouteOutcome::kUnavailable) {
        drained = FinalizeFailureLocked(it, Status::Unavailable("no live replica"),
                                        /*deadline=*/false);
      } else {
        pending_.erase(it);
        drained = pending_.empty();
      }
    }
    ++stats_.rejected;
  }
  if (drained) {
    drained_cv_.NotifyAll();
  }
  return false;
}

ClusterServer::RouteOutcome ClusterServer::RouteAndEnqueue(EngineRequest request,
                                                           bool first_dispatch) {
  // A resume handle routes into the decode pool; everything else routes into
  // pool 0, which in unified mode is the whole fleet in index order, so
  // unified routing is byte-for-byte the historical behavior. Router
  // decisions, depths and `tried` are pool-local.
  const bool decode_stage =
      options_.disagg.enabled && !request.prefill_only && request.resume_handle != nullptr;
  const size_t p = decode_stage ? kDecodePool : kPrefillPool;
  // Members that refused the request. Empty, and never allocated, until the
  // first refusal.
  std::vector<char> tried;
  auto was_tried = [&tried](size_t local) { return !tried.empty() && tried[local] != 0; };
  for (size_t round = 0;; ++round) {
    int local = -1;
    int target = -1;
    bool affinity_hit = false;
    bool spilled = false;
    {
      MutexLock lock(&mutex_);
      Pool& pool = pools_[p];
      const size_t pool_size = pool.members.size();
      if (round == pool_size) {
        return RouteOutcome::kUnavailable;  // every member refused
      }
      std::vector<int64_t>& depths = pool.depths;
      for (size_t i = 0; i < pool_size; ++i) {
        depths[i] = replicas_[static_cast<size_t>(pool.members[i])]->Depth();
      }
      const RouteDecision decision = pool.router->Pick(request.adapter_id, depths);
      if (decision.replica >= 0 && !was_tried(static_cast<size_t>(decision.replica))) {
        local = decision.replica;
        affinity_hit = decision.affinity_hit;
        spilled = decision.spilled;
        if (first_dispatch && round == 0) {
          if (decision.affinity_hit) {
            ++stats_.affinity_hits;
          }
          if (decision.spilled) {
            ++stats_.affinity_spills;
          }
        }
      } else {
        // The router repeated a pick that already refused us (it learns of a
        // death only at the next health tick): probe the least-loaded live
        // member we have not tried yet.
        for (size_t i = 0; i < pool_size; ++i) {
          if (was_tried(i) || !pool.router->IsReplicaAlive(static_cast<int>(i))) {
            continue;
          }
          if (local < 0 || depths[i] < depths[static_cast<size_t>(local)]) {
            local = static_cast<int>(i);
          }
        }
      }
      if (local < 0) {
        return RouteOutcome::kUnavailable;
      }
      target = pool.members[static_cast<size_t>(local)];
    }
    if (decode_stage) {
      trace::EmitDecodeRouted(request.id, request.adapter_id, target, affinity_hit, spilled);
    } else {
      trace::EmitRouted(request.id, request.adapter_id, target, affinity_hit, spilled);
    }
    const EnqueueResult result =
        replicas_[static_cast<size_t>(target)]->Enqueue(request, /*never_block=*/!first_dispatch);
    if (result == EnqueueResult::kAccepted) {
      // kDecodeEnqueued is emitted by the replica itself, ordered before the
      // worker can observe the request (kCompleted must not precede it).
      return RouteOutcome::kAccepted;
    }
    if (result == EnqueueResult::kFull) {
      return RouteOutcome::kFull;  // admission verdict, not a liveness one
    }
    // Refused: the target is dead or stopping.
    tried.resize(replicas_.size());  // vlora-lint: allow(hot-path-alloc) first refusal only; a live replica never refuses
    tried[static_cast<size_t>(local)] = 1;
  }
}

void ClusterServer::DispatchPending(EngineRequest request) {
  const int64_t id = request.id;
  const RouteOutcome outcome = RouteAndEnqueue(std::move(request), /*first_dispatch=*/false);
  if (outcome == RouteOutcome::kAccepted) {
    return;
  }
  bool drained = false;
  {
    MutexLock lock(&mutex_);
    auto it = pending_.find(id);
    if (it == pending_.end()) {
      return;
    }
    Pending& pending = it->second;
    if (pending.attempts >= options_.recovery.max_attempts) {
      drained = FinalizeFailureLocked(it, Status::Unavailable("no replica accepted the retry"),
                                      /*deadline=*/false);
    } else {
      pending.state = PendingState::kWaitingRetry;
      pending.retry_due_ms = clock_.ElapsedMillis() + BackoffMs(pending.attempts);
    }
  }
  if (drained) {
    drained_cv_.NotifyAll();
  }
}

void ClusterServer::SupervisorLoop() {
  const double period_ms = std::max(1.0, options_.recovery.health_period_ms);
  for (;;) {
    // Collect this tick's work under the lock, then act on it outside the
    // lock — no lock juggling across the dispatch/health-check calls.
    bool drained = false;
    double now = 0.0;
    std::vector<EngineRequest> to_dispatch;
    {
      MutexLock lock(&mutex_);
      if (!supervisor_stop_) {
        supervisor_cv_.WaitForMs(mutex_, period_ms);
      }
      if (supervisor_stop_) {
        return;
      }
      now = clock_.ElapsedMillis();

      // Deadlines first: a request whose budget elapsed while it waited out a
      // backoff fails now rather than burning another attempt.
      std::vector<int64_t> expired;
      for (const auto& entry : pending_) {
        if (entry.second.state == PendingState::kWaitingRetry && now > entry.second.deadline_ms) {
          expired.push_back(entry.first);
        }
      }
      std::sort(expired.begin(), expired.end());
      for (int64_t id : expired) {
        FinalizeFailureLocked(pending_.find(id),
                              Status::DeadlineExceeded("request deadline elapsed"),
                              /*deadline=*/true);
      }
      drained = !expired.empty() && pending_.empty();

      // Due retries: mark them in-flight under the lock, dispatch outside it.
      for (auto& entry : pending_) {
        Pending& pending = entry.second;
        if (pending.state == PendingState::kWaitingRetry && now >= pending.retry_due_ms) {
          pending.state = PendingState::kEnqueued;
          ++pending.attempts;
          ++stats_.retries;
          trace::EmitRetry(entry.first, pending.request.adapter_id, pending.attempts);
          to_dispatch.push_back(BuildDispatchRequestLocked(pending));
        }
      }
      std::sort(to_dispatch.begin(), to_dispatch.end(),
                [](const EngineRequest& a, const EngineRequest& b) { return a.id < b.id; });
    }
    if (drained) {
      drained_cv_.NotifyAll();
    }
    for (EngineRequest& request : to_dispatch) {
      DispatchPending(std::move(request));
    }
    HealthCheck(now);
  }
}

void ClusterServer::HealthCheck(double now_ms) {
  for (int r = 0; r < num_replicas(); ++r) {
    Replica& replica = *replicas_[static_cast<size_t>(r)];
    const bool is_dead = replica.dead();
    const double heartbeat = replica.HeartbeatMs();
    const int64_t depth = replica.Depth();
    bool steal = false;
    bool health_event = false;
    {
      MutexLock lock(&mutex_);
      HealthState& health = health_[static_cast<size_t>(r)];
      if (heartbeat != health.last_heartbeat) {
        health.last_heartbeat = heartbeat;
        health.last_change_ms = now_ms;
      }
      // An idle worker parks without beating, so its heartbeat is
      // legitimately frozen. The stall clock therefore arms when work
      // arrives (depth 0 -> N), never from the stale idle timestamp —
      // otherwise a long-idle replica is convicted (and its queue stolen)
      // the instant it is handed its first request, before its worker has
      // had a single chance to run.
      if (depth > 0 && health.last_depth == 0) {
        health.last_change_ms = now_ms;
      }
      health.last_depth = depth;
      // Liveness flips and deaths land in the replica's own pool, under its
      // pool-local index.
      const PoolSlot& slot = slots_[static_cast<size_t>(r)];
      Pool& pool = pools_[slot.pool];
      if (is_dead) {
        if (!health.death_handled) {
          // The replica failed over its own queue when it died; here we stop
          // routing to it and give its orphaned adapters new homes.
          health.death_handled = true;
          health.quarantined = false;
          ++stats_.replica_deaths;
          health_event = true;
          pool.router->SetReplicaAlive(slot.local, false);
          pool.placement.Rebalance(slot.local);
        }
      } else if (!health.quarantined) {
        if (options_.recovery.stall_quarantine_ms > 0.0 && depth > 0 &&
            now_ms - health.last_change_ms > options_.recovery.stall_quarantine_ms) {
          health.quarantined = true;
          health.heartbeat_at_quarantine = heartbeat;
          ++stats_.quarantines;
          health_event = true;
          trace::EmitQuarantine(r);
          pool.router->SetReplicaAlive(slot.local, false);
          steal = true;
        }
      } else if (heartbeat != health.heartbeat_at_quarantine) {
        // The worker moved again: readmit. Whatever it still holds in-engine
        // it will finish itself; new traffic may route to it immediately.
        health.quarantined = false;
        ++stats_.readmissions;
        health_event = true;
        trace::EmitReadmit(r);
        pool.router->SetReplicaAlive(slot.local, true);
      }
    }
    if (health_event) {
      health_cv_.NotifyAll();
    }
    if (steal) {
      std::vector<EngineRequest> stolen = replica.StealIngress();
      std::sort(stolen.begin(), stolen.end(),
                [](const EngineRequest& a, const EngineRequest& b) { return a.id < b.id; });
      for (EngineRequest& request : stolen) {
        DispatchPending(std::move(request));
      }
    }
  }
}

void ClusterServer::OnReplicaComplete(int replica, int64_t request_id) {
  (void)replica;
  bool drained = false;
  double now = 0.0;
  std::function<void(int64_t, double)> observer;
  {
    MutexLock lock(&mutex_);
    now = clock_.ElapsedMillis();
    auto it = pending_.find(request_id);
    if (it != pending_.end()) {
      stats_.latency.Add(now - it->second.submit_ms);
      if (it->second.handle != nullptr) {
        ++stats_.handles_released;  // decode finished; the KV pages die with the entry
      }
      pending_.erase(it);
    }
    drained = pending_.empty();
    observer = completion_observer_;
  }
  if (observer) {
    observer(request_id, now);
  }
  if (drained) {
    drained_cv_.NotifyAll();
  }
}

void ClusterServer::OnReplicaFailure(int replica, int64_t request_id, const Status& status) {
  (void)replica;
  bool drained = false;
  bool scheduled = false;
  {
    MutexLock lock(&mutex_);
    auto it = pending_.find(request_id);
    if (it == pending_.end()) {
      return;  // already finalised (e.g. by the deadline scan)
    }
    Pending& pending = it->second;
    const double now = clock_.ElapsedMillis();
    if (status.code() == StatusCode::kCancelled) {
      drained = FinalizeFailureLocked(it, status, /*deadline=*/false);
    } else if (now > pending.deadline_ms) {
      drained = FinalizeFailureLocked(it, Status::DeadlineExceeded("request deadline elapsed"),
                                      /*deadline=*/true);
    } else if (pending.attempts >= options_.recovery.max_attempts) {
      drained = FinalizeFailureLocked(it, status, /*deadline=*/false);
    } else {
      pending.state = PendingState::kWaitingRetry;
      pending.retry_due_ms = now + BackoffMs(pending.attempts);
      scheduled = true;
    }
  }
  if (drained) {
    drained_cv_.NotifyAll();
  }
  if (scheduled) {
    supervisor_cv_.NotifyAll();
  }
}

EngineRequest ClusterServer::BuildDispatchRequestLocked(const Pending& pending) const {
  // pending.request is the clean replay copy; the stage flags are re-attached
  // at dispatch time so a retried prefill re-runs prefill and a retried
  // decode re-routes the same handle.
  EngineRequest request = pending.request;
  request.prefill_only = options_.disagg.enabled && pending.handle == nullptr;
  request.resume_handle = pending.handle;
  return request;
}

void ClusterServer::OnReplicaHandoff(int replica, EngineResult result) {
  std::shared_ptr<KvHandle> handle = std::move(result.handle);
  VLORA_CHECK(handle != nullptr);  // only handle-carrying results are diverted
  EngineRequest to_dispatch;
  {
    MutexLock lock(&mutex_);
    auto it = pending_.find(result.request_id);
    if (it == pending_.end()) {
      return;  // finalised while the prefill ran (deadline/shutdown); drop the handle
    }
    Pending& pending = it->second;
    if (pending.handle != nullptr) {
      // Duplicate: a stalled/replayed prefill completed after its request was
      // already handed off. The first handle won; drop this one uncounted.
      return;
    }
    trace::EmitKvHandoff(result.request_id, pending.request.adapter_id, replica,
                         static_cast<int64_t>(handle->pages.size()), handle->TotalFloats());
    ++stats_.handoffs;
    pending.handle = std::move(handle);
    pending.state = PendingState::kEnqueued;
    to_dispatch = BuildDispatchRequestLocked(pending);
  }
  // Same non-blocking dispatch as a retry: a refusal schedules a backoff
  // round instead of blocking the prefill replica's worker thread.
  DispatchPending(std::move(to_dispatch));
}

bool ClusterServer::FinalizeFailureLocked(std::unordered_map<int64_t, Pending>::iterator it,
                                          const Status& status, bool deadline) {
  VLORA_CHECK(it != pending_.end());
  // Terminal failure: the successful path emits its kCompleted{kOk} from the
  // finishing replica's worker, so the two never double-report.
  trace::EmitCompleted(it->first, it->second.request.adapter_id, /*replica=*/-1, status.code());
  if (it->second.handle != nullptr) {
    ++stats_.handles_released;  // give up the KV pages along with the request
  }
  failures_.push_back(FailedRequest{it->first, status, it->second.attempts});
  if (status.code() == StatusCode::kCancelled) {
    ++stats_.cancelled;
  } else {
    ++stats_.failed;
  }
  if (deadline) {
    ++stats_.deadline_failures;
  }
  pending_.erase(it);
  return pending_.empty();
}

std::vector<EngineResult> ClusterServer::Drain() {
  VLORA_BLOCKING_REGION(nullptr, "ClusterServer::Drain");
  std::vector<EngineResult> results;
  {
    MutexLock lock(&mutex_);
    if (!started_) {
      return results;
    }
    while (!pending_.empty()) {
      drained_cv_.Wait(mutex_);
    }
  }
  for (auto& replica : replicas_) {
    replica->WaitDrained();
  }
  {
    MutexLock lock(&mutex_);
    stats_.wall_ms = wall_.ElapsedMillis();
  }
  for (auto& replica : replicas_) {
    std::vector<EngineResult> part = replica->TakeResults();
    results.insert(results.end(), std::make_move_iterator(part.begin()),
                   std::make_move_iterator(part.end()));
  }
  return results;
}

std::vector<FailedRequest> ClusterServer::TakeFailures() {
  MutexLock lock(&mutex_);
  std::vector<FailedRequest> out;
  out.swap(failures_);
  return out;
}

bool ClusterServer::WaitForReadmissions(int64_t count, double timeout_ms) {
  return WaitForHealthCounts(count, /*deaths=*/0, timeout_ms);
}

bool ClusterServer::WaitForReplicaDeaths(int64_t count, double timeout_ms) {
  return WaitForHealthCounts(/*readmissions=*/0, count, timeout_ms);
}

bool ClusterServer::WaitForHealthCounts(int64_t readmissions, int64_t deaths,
                                        double timeout_ms) {
  const double deadline_ms = clock_.ElapsedMillis() + timeout_ms;
  MutexLock lock(&mutex_);
  while (stats_.readmissions < readmissions || stats_.replica_deaths < deaths) {
    const double remaining_ms = deadline_ms - clock_.ElapsedMillis();
    if (remaining_ms <= 0.0) {
      return false;
    }
    health_cv_.WaitForMs(mutex_, remaining_ms);
  }
  return true;
}

void ClusterServer::Shutdown() {
  {
    MutexLock lock(&mutex_);
    if (shut_down_) {
      return;
    }
    shut_down_ = true;
    supervisor_stop_ = true;
  }
  supervisor_cv_.NotifyAll();
  if (supervisor_.joinable()) {
    supervisor_.join();
  }
  for (auto& replica : replicas_) {
    replica->RequestStop();
  }
  if (pool_ != nullptr) {
    pool_->WaitIdle();
  }
  // RequestStop cancelled each replica's queue (reported through
  // OnReplicaFailure); anything left in the table was waiting out a retry
  // backoff the supervisor will never serve. Cancel it too.
  {
    MutexLock lock(&mutex_);
    std::vector<int64_t> ids;
    ids.reserve(pending_.size());
    for (const auto& entry : pending_) {
      ids.push_back(entry.first);
    }
    std::sort(ids.begin(), ids.end());
    for (int64_t id : ids) {
      FinalizeFailureLocked(pending_.find(id), Status::Cancelled("cluster shutdown"),
                            /*deadline=*/false);
    }
  }
  drained_cv_.NotifyAll();
}

ClusterStats ClusterServer::Stats() {
  // Replicas first, then the cluster block: a quarantine is counted before
  // its steal, so `rerouted` never runs ahead of `quarantines`.
  std::vector<ReplicaSnapshot> replicas;
  for (auto& replica : replicas_) {
    replicas.push_back(replica->Snapshot());
  }
  ClusterStats stats;
  {
    MutexLock lock(&mutex_);
    stats = stats_;
    if (stats.wall_ms == 0.0 && wall_started_) {
      stats.wall_ms = wall_.ElapsedMillis();  // not drained yet: the wall clock so far
    }
  }
  for (const ReplicaSnapshot& snapshot : replicas) {
    stats.submitted += snapshot.submitted;
    stats.completed += snapshot.completed;
    stats.adapter_swap_ins += snapshot.server.adapter_swap_ins;
    stats.adapter_evictions += snapshot.server.adapter_evictions;
    stats.visible_swap_ms += snapshot.server.visible_swap_ms;
    stats.rerouted += snapshot.stolen;  // only the health checker steals
  }
  stats.replicas = std::move(replicas);
  if (stats.wall_ms > 0.0) {
    stats.throughput_rps = static_cast<double>(stats.completed) / (stats.wall_ms / 1e3);
  }
  return stats;
}

EngineRequest EngineRequestFromTrace(const Request& request, const ModelConfig& config,
                                     const TraceMapOptions& options) {
  constexpr int64_t kMinPromptTokens = 4;
  constexpr int64_t kMinNewTokens = 1;
  EngineRequest engine_request;
  engine_request.id = request.id;
  engine_request.adapter_id = request.adapter_id;
  const int64_t prompt_len =
      std::clamp(request.input_tokens / options.token_scale, kMinPromptTokens,
                 options.max_prompt_tokens);
  // Deterministic per-request prompt: the same trace maps to the same engine
  // requests on every replica count, which is what makes cluster results
  // comparable as multisets.
  Rng rng(0x5eedu + static_cast<uint64_t>(request.id) * 7919u);
  engine_request.prompt_tokens.reserve(static_cast<size_t>(prompt_len));
  for (int64_t i = 0; i < prompt_len; ++i) {
    engine_request.prompt_tokens.push_back(
        static_cast<int32_t>(rng.NextInt(2, config.vocab_size - 1)));
  }
  engine_request.max_new_tokens = static_cast<int>(std::clamp(
      request.output_tokens / options.token_scale, kMinNewTokens, options.max_new_tokens));
  engine_request.eos_token = -1;  // fixed-length decode keeps runs comparable
  return engine_request;
}

}  // namespace vlora
