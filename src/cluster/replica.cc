#include "src/cluster/replica.h"

#include <algorithm>
#include <chrono>
#include <string>
#include <thread>
#include <utility>

#include "src/common/trace.h"

namespace vlora {

Replica::Replica(int index, ReplicaBackend backend, const ReplicaOptions& options)
    : index_(index),
      queue_capacity_(options.queue_capacity),
      fault_(options.fault),
      backend_(ReplicaBackendName(backend)),
      admission_(options.admission) {
  VLORA_CHECK(queue_capacity_ >= 1);
}

void Replica::CheckSetupPhase() {
  MutexLock lock(&mutex_);
  VLORA_CHECK(!running_);
}

void Replica::BeginServing() {
  MutexLock lock(&mutex_);
  VLORA_CHECK(!running_);
  running_ = true;
}

void Replica::SetHandlers(CompletionHandler on_complete, FailureHandler on_failure) {
  CheckSetupPhase();
  on_complete_ = std::move(on_complete);
  on_failure_ = std::move(on_failure);
}

void Replica::SetHandoffHandler(HandoffHandler on_handoff) {
  CheckSetupPhase();
  on_handoff_ = std::move(on_handoff);
}

EnqueueResult Replica::Enqueue(EngineRequest request, bool never_block) {
  if (admission_ == AdmissionPolicy::kBlock && !never_block) {
    // This call may park on space_cv_; a caller holding any real lock here
    // would stall the whole cluster behind one full queue.
    VLORA_BLOCKING_REGION(nullptr, "Replica::Enqueue(kBlock)");  // vlora-lint: allow(hot-path-blocking) kBlock admission is backpressure by design
  }
  const int64_t request_id = request.id;
  const int adapter_id = request.adapter_id;
  const bool decode_stage = request.resume_handle != nullptr;
  {
    MutexLock lock(&mutex_);
    const auto refusing = [this]() VLORA_REQUIRES(mutex_) {
      return stop_requested_ || lost_ || dead();
    };
    if (refusing()) {
      return EnqueueResult::kRefused;
    }
    if (admission_ == AdmissionPolicy::kReject || never_block) {
      if (DepthLocked() >= queue_capacity_) {
        if (admission_ == AdmissionPolicy::kReject) {
          ++rejected_;
        }
        return EnqueueResult::kFull;
      }
    } else {
      while (!refusing() && DepthLocked() >= queue_capacity_) {
        space_cv_.Wait(mutex_);  // vlora-lint: allow(hot-path-blocking) kBlock admission is backpressure by design
      }
      if (refusing()) {
        return EnqueueResult::kRefused;
      }
    }
    ingress_.push_back(  // vlora-lint: allow(hot-path-alloc) deque growth bounded by queue_capacity_; reaches steady state
        Ingress{std::move(request), clock_.ElapsedMillis()});
    ++submitted_;
    const int64_t new_depth = DepthLocked();
    peak_depth_ = std::max(peak_depth_, new_depth);
    depth_.Store(new_depth);
  }
  // Both enqueue events fire before the service side can see this request,
  // so a decode-stage completion can never precede its kDecodeEnqueued.
  trace::EmitEnqueued(request_id, adapter_id, index_);
  if (decode_stage) {
    trace::EmitDecodeEnqueued(request_id, adapter_id, index_);
  }
  // Explicit receiver: the call-graph passes fan a virtual call out to every
  // backend's override only through a member call.
  this->PumpIngress();
  return EnqueueResult::kAccepted;
}

void Replica::TakeIngressLocked(int64_t max_in_service, std::vector<EngineRequest>* out) {
  while (!ingress_.empty() && static_cast<int64_t>(in_service_.size()) < max_in_service) {
    Ingress& item = ingress_.front();
    in_service_.emplace(item.request.id, item.enqueue_ms);  // vlora-lint: allow(hot-path-alloc) one node per outstanding request; bounded by queue_capacity_
    out->push_back(std::move(item.request));  // vlora-lint: allow(hot-path-alloc) amortized: caller's scratch capacity is hoisted out of its loop
    ingress_.pop_front();
  }
  depth_.Store(DepthLocked());
}

int64_t Replica::Complete(std::span<EngineResult> results, const ServerStats* server_stats) {
  static Counter* const completions = MetricsRegistry::Global().counter("replica.completions");
  const double now_ms = clock_.ElapsedMillis();
  completed_ids_.clear();
  int64_t served = 0;
  {
    MutexLock lock(&mutex_);
    for (EngineResult& result : results) {
      auto it = in_service_.find(result.request_id);
      if (it == in_service_.end()) {
        result.handle.reset();  // late duplicate after a fail-over; the retry owns it now
        continue;
      }
      latency_.Record(now_ms - it->second);  // a handoff records its prefill-stage latency
      in_service_.erase(it);
      if (result.handle != nullptr && on_handoff_) {
        ++handoffs_;  // the request's life continues on a decode replica
      } else {
        ++completed_;
        completed_ids_.push_back(result.request_id);  // vlora-lint: allow(hot-path-alloc) amortized: service-thread scratch keeps its capacity across calls
        results_.push_back(std::move(result));  // vlora-lint: allow(hot-path-alloc) completion accumulator drained by TakeResults; bounded by in-flight budget
      }
    }
    served = completed_ + handoffs_;
    if (server_stats != nullptr) {
      server_stats_ = *server_stats;
    }
    depth_.Store(DepthLocked());
    if (DepthLocked() == 0) {
      drained_cv_.NotifyAll();
    }
  }
  if (!results.empty()) {
    space_cv_.NotifyAll();
  }
  if (!completed_ids_.empty()) {
    completions->Add(static_cast<int64_t>(completed_ids_.size()));
    for (int64_t id : completed_ids_) {
      trace::EmitCompleted(id, /*adapter=*/-1, index_, StatusCode::kOk);
    }
    if (on_complete_) {
      for (int64_t id : completed_ids_) {
        on_complete_(index_, id);
      }
    }
  }
  // Terminal results were moved out above, leaving null handles: whatever
  // still carries one is a handoff.
  for (EngineResult& result : results) {
    if (result.handle != nullptr) {
      on_handoff_(index_, std::move(result));
    }
  }
  return served;
}

void Replica::FailInService(int64_t request_id, const Status& status) {
  {
    MutexLock lock(&mutex_);
    if (in_service_.erase(request_id) == 0) {
      return;  // already failed over
    }
    ++failed_;
    depth_.Store(DepthLocked());
    if (DepthLocked() == 0) {
      drained_cv_.NotifyAll();
    }
  }
  space_cv_.NotifyAll();
  if (on_failure_) {
    on_failure_(index_, request_id, status);
  }
}

void Replica::FailOver(const char* reason) {
  std::vector<int64_t> ids;
  bool stopping = false;
  {
    MutexLock lock(&mutex_);
    if (!running_) {
      return;  // already failed over, or the service side exited cleanly
    }
    running_ = false;
    stopping = stop_requested_;
    if (!stopping) {
      // A clean shutdown is not a death: dead() stays false.
      dead_.Publish(true);
    }
    for (Ingress& item : ingress_) {
      ids.push_back(item.request.id);
    }
    ingress_.clear();
    for (const auto& [id, enqueue_ms] : in_service_) {
      (void)enqueue_ms;
      ids.push_back(id);
    }
    in_service_.clear();
    (stopping ? cancelled_ : failed_) += static_cast<int64_t>(ids.size());
    depth_.Store(0);
  }
  space_cv_.NotifyAll();
  drained_cv_.NotifyAll();
  ReportFailures(std::move(ids),
                 stopping ? Status::Cancelled("replica stopping")
                          : Status::Unavailable("replica " + std::to_string(index_) + " " +
                                                reason));
}

void Replica::ReportFailures(std::vector<int64_t> ids, const Status& status) {
  std::sort(ids.begin(), ids.end());
  if (on_failure_) {
    for (int64_t id : ids) {
      on_failure_(index_, id, status);
    }
  }
}

std::vector<EngineRequest> Replica::StealIngress() {
  std::vector<EngineRequest> stolen;
  bool convict = false;
  {
    MutexLock lock(&mutex_);
    for (Ingress& item : ingress_) {
      stolen.push_back(std::move(item.request));
    }
    ingress_.clear();
    stolen_ += static_cast<int64_t>(stolen.size());
    depth_.Store(DepthLocked());
    if (DepthLocked() == 0) {
      drained_cv_.NotifyAll();
    }
    // The quarantine spill doubles as the conviction point for a lost
    // service side: the queue is reclaimed, so fail over what is in service
    // and let the retry machinery take it from here.
    convict = lost_;
  }
  space_cv_.NotifyAll();
  if (convict) {
    FailOver("lost");
  }
  return stolen;
}

void Replica::WaitDrained() {
  VLORA_BLOCKING_REGION(nullptr, "Replica::WaitDrained");
  MutexLock lock(&mutex_);
  while (DepthLocked() != 0) {
    drained_cv_.Wait(mutex_);
  }
}

void Replica::RequestStop() {
  std::vector<int64_t> ids;
  {
    MutexLock lock(&mutex_);
    if (stop_requested_) {
      return;  // idempotent: the destructor calls it again after Shutdown
    }
    stop_requested_ = true;
    for (Ingress& item : ingress_) {
      ids.push_back(item.request.id);
    }
    ingress_.clear();
    cancelled_ += static_cast<int64_t>(ids.size());
    depth_.Store(DepthLocked());
  }
  space_cv_.NotifyAll();
  drained_cv_.NotifyAll();
  ReportFailures(std::move(ids), Status::Cancelled("replica stopping"));
  if (fault_ != nullptr) {
    fault_->OpenGate();  // a gated service loop must be able to observe the stop
  }
  OnStopRequested();
}

std::vector<EngineResult> Replica::TakeResults() {
  MutexLock lock(&mutex_);
  std::vector<EngineResult> out;
  out.swap(results_);
  return out;
}

ReplicaSnapshot Replica::Snapshot() {
  ReplicaSnapshot snapshot;
  snapshot.index = index_;
  snapshot.backend = backend_;
  MutexLock lock(&mutex_);
  snapshot.dead = dead();
  snapshot.submitted = submitted_;
  snapshot.completed = completed_;
  snapshot.rejected = rejected_;
  snapshot.cancelled = cancelled_;
  snapshot.failed = failed_;
  snapshot.stolen = stolen_;
  snapshot.stalls = stalls_;
  snapshot.handoffs = handoffs_;
  snapshot.peak_depth = peak_depth_;
  snapshot.latency = latency_;
  snapshot.server = server_stats_;
  return snapshot;
}

ThreadReplica::ThreadReplica(int index, const ModelConfig& config,
                             const ReplicaOptions& options)
    : Replica(index, ReplicaBackend::kThread, options), server_(config, options.server) {}

ThreadReplica::~ThreadReplica() {
  RequestStop();
  // The hosting pool joins the worker; by the time the pool is destroyed the
  // loop has observed stop_requested_ and returned.
}

int ThreadReplica::AddAdapter(const LoraAdapter& adapter) {
  CheckSetupPhase();
  return server_.AddAdapter(std::make_unique<LoraAdapter>(adapter));
}

void ThreadReplica::Prewarm(const std::vector<int>& adapter_ids) {
  CheckSetupPhase();
  for (int id : adapter_ids) {
    server_.PrewarmAdapter(id);
  }
}

void ThreadReplica::Start(ThreadPool* pool) {
  VLORA_CHECK(pool != nullptr);
  BeginServing();
  pool->Post([this] { WorkerLoop(); });
}

void ThreadReplica::WorkerLoop() {
  // Worker-thread attribution: engine batch steps and kernel dispatches
  // emitted from this thread carry the replica index.
  trace::SetCurrentReplica(index_);
  int64_t served = 0;  // completions + handoffs: the fault script's key
  // Iteration scratch lives outside the loop so the heap buffers reach a
  // steady-state capacity instead of being reallocated every pass.
  std::vector<EngineRequest> batch;
  std::vector<EngineResult> finished;
  for (;;) {
    batch.clear();
    if (fault_ != nullptr) {
      fault_->WaitWhileGated();
      const WorkerFault fault = fault_->OnWorkerIteration(index_, served);
      if (fault.kill) {
        FailOver("killed");
        return;
      }
      if (fault.stall_ms > 0.0) {
        {
          MutexLock lock(&mutex_);
          ++stalls_;
        }
        std::this_thread::sleep_for(  // vlora-lint: allow(hot-path-blocking) test-only injected stall; fault_ is null in production
            std::chrono::duration<double, std::milli>(fault.stall_ms));
      }
    }
    Beat();
    {
      MutexLock lock(&mutex_);
      while (!stop_requested_ && DepthLocked() == 0) {
        work_cv_.Wait(mutex_);  // vlora-lint: allow(hot-path-blocking) idle park until work arrives
      }
      if (stop_requested_ && DepthLocked() == 0) {
        // RequestStop cancelled the queue and the engine is empty.
        running_ = false;
        return;
      }
      // Every queued request: depth never exceeds the capacity.
      TakeIngressLocked(queue_capacity_, &batch);
    }
    for (EngineRequest& request : batch) {
      if (fault_ != nullptr && fault_->ShouldFailRequest(index_, request.id)) {
        FailInService(request.id, Status::Internal("injected request failure"));
      } else {
        server_.Submit(std::move(request));
      }
    }
    finished = server_.StepOnce();
    served = Complete(finished, &server_.stats());
    Beat();
  }
}

}  // namespace vlora
