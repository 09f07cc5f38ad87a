// Request-lifecycle tracing.
//
// The tracer records typed structured events (admission, routing, enqueue,
// batch steps, ATMM kernel dispatch, recovery actions, completion) into
// per-thread ring buffers. The hot path is lock-free and rank-free: emitting
// an event is an atomic enabled check, a thread-local buffer lookup, a tick
// count, a plain slot write and one release store — no vlora::Mutex is
// acquired, so it is safe to emit while holding any lock in the hierarchy
// (emission happens under ClusterServer::mutex_ and Replica::mutex_ among
// others). The only locks in this file are cold-path (first emit per thread
// registers its buffer; Collect copies them out) and sit at Rank::kTrace,
// below every real lock.
//
// Timestamps: events read the TSC where it is invariant (steady_clock's vDSO
// read waits for every earlier instruction to retire), else steady_clock ns;
// Collect converts ticks to ms at the rate measured over the session.
//
// Ring semantics: each buffer holds the most recent `ring_capacity` events of
// its thread; wraparound overwrites the oldest and counts it in
// dropped_events(). Disabled tracing (the default) reduces each Emit* helper
// to one inline load and a branch, and emits nothing.
//
// Collect() contract: exact and race-free when every emitting thread is
// quiescent (joined, drained, or parked outside Emit) — which is how the
// tests and benches use it (collect after Drain/Shutdown). A concurrent
// collect still never crashes, but may miss in-flight events.
//
// Exporters: Chrome trace_event JSON ({"traceEvents": [...]}, loadable in
// chrome://tracing or https://ui.perfetto.dev) and a per-request span summary
// table for the bench harnesses. See DESIGN.md §10 "Observability".

#ifndef VLORA_SRC_COMMON_TRACE_H_
#define VLORA_SRC_COMMON_TRACE_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "src/common/annotations.h"
#include "src/common/status.h"
#include "src/common/sync.h"
#include "src/common/table.h"

namespace vlora {
namespace trace {

enum class TraceEventKind : uint8_t {
  kRequestAdmitted = 0,  // ClusterServer::Submit accepted the request
  kRouted,               // router picked a target replica
  kEnqueued,             // a replica's ingress queue accepted the request
  kBatchStepBegin,       // one engine batch iteration starts
  kBatchStepEnd,         // ... and ends
  kKernelDispatch,       // ATMM picked a tile config for a GEMM shape
  kRetry,                // supervisor re-dispatched a failed request
  kQuarantine,           // health checker quarantined a stalled replica
  kReadmit,              // ... and readmitted it
  kCompleted,            // request reached a terminal status
  // Disaggregated prefill/decode lifecycle (DESIGN.md §15). Unified mode
  // emits kPrefillDone too (the engine stamps every prefill completion); the
  // other three only appear when ClusterOptions::disagg is enabled.
  kPrefillDone,          // engine finished a sequence's prefill chunk
  kKvHandoff,            // master accepted a prefill replica's KvHandle
  kDecodeRouted,         // decode-pool router picked a target replica
  kDecodeEnqueued,       // decode replica's ingress accepted the request
};

constexpr const char* TraceEventKindName(TraceEventKind kind) {
  switch (kind) {
    case TraceEventKind::kRequestAdmitted:
      return "RequestAdmitted";
    case TraceEventKind::kRouted:
      return "Routed";
    case TraceEventKind::kEnqueued:
      return "Enqueued";
    case TraceEventKind::kBatchStepBegin:
      return "BatchStepBegin";
    case TraceEventKind::kBatchStepEnd:
      return "BatchStepEnd";
    case TraceEventKind::kKernelDispatch:
      return "KernelDispatch";
    case TraceEventKind::kRetry:
      return "Retry";
    case TraceEventKind::kQuarantine:
      return "Quarantine";
    case TraceEventKind::kReadmit:
      return "Readmit";
    case TraceEventKind::kCompleted:
      return "Completed";
    case TraceEventKind::kPrefillDone:
      return "PrefillDone";
    case TraceEventKind::kKvHandoff:
      return "KvHandoff";
    case TraceEventKind::kDecodeRouted:
      return "DecodeRouted";
    case TraceEventKind::kDecodeEnqueued:
      return "DecodeEnqueued";
  }
  return "Unknown";
}

// One fixed-size trace record. Field applicability by kind:
//   request_id / adapter   admission, routing, enqueue, retry, completion
//   replica                routing target, enqueue/step/kernel site,
//                          quarantine/readmit subject (-1 = not attributable)
//   status                 kCompleted only (terminal outcome)
//   m, n, k                kKernelDispatch: GEMM shape. m doubles as the
//                          generic detail slot for other kinds — see the
//                          accessors below.
//   tile_*                 kKernelDispatch: the selected ATMM tile config.
struct TraceEvent {
  TraceEventKind kind = TraceEventKind::kRequestAdmitted;
  StatusCode status = StatusCode::kOk;
  int32_t replica = -1;
  int32_t adapter = -1;
  int64_t request_id = -1;
  double when_ms = 0.0;  // monotonic, from the session clock
  int64_t m = 0;
  int64_t n = 0;
  int64_t k = 0;
  int32_t tile_mc = 0;
  int32_t tile_nc = 0;
  int32_t tile_kc = 0;
  int32_t tile_mr = 0;
  int32_t tile_nr = 0;

  // kRetry: dispatch attempt number (2 = first retry).
  int64_t attempt() const { return m; }
  // kBatchStepBegin: requests inside the engine for this step.
  int64_t batch_size() const { return m; }
  // kBatchStepEnd: requests that finished in this step.
  int64_t completed_count() const { return m; }
  // kRouted / kDecodeRouted: affinity_hit / spilled flags from the decision.
  bool affinity_hit() const { return n != 0; }
  bool spilled() const { return k != 0; }
  // kPrefillDone: freshly prefilled vs prefix-reused prompt tokens.
  int64_t prefill_tokens() const { return m; }
  int64_t reused_tokens() const { return n; }
  // kKvHandoff: transferred page count and total floats.
  int64_t handoff_pages() const { return m; }
  int64_t handoff_floats() const { return n; }

  std::string TileString() const;  // "(mc,nc,kc,mr,nr)"
};

// Process-wide tracer. Use TraceSession to drive it; the Emit* helpers below
// are what instrumented code calls.
class Tracer {
 public:
  static Tracer& Global();

  // Resets the session clock and epoch (logically clearing all buffers) and
  // enables emission. `ring_capacity` is per emitting thread, in events.
  void Start(int64_t ring_capacity) VLORA_EXCLUDES(mutex_);
  void Stop();
  // One load: the Emit* helpers below test it inline, before they build an
  // event.
  static bool enabled() { return enabled_.Load(); }

  // Hot path. Records `event` stamped with the session clock (its when_ms
  // is ignored); no-op when disabled.
  void Emit(const TraceEvent& event) VLORA_HOT;

  // Snapshot of every buffer from the current epoch, sorted by timestamp.
  // See the header comment for the quiescence contract.
  [[nodiscard]] std::vector<TraceEvent> Collect() const VLORA_EXCLUDES(mutex_);

  // Events overwritten by ring wraparound in the current epoch.
  int64_t dropped_events() const VLORA_EXCLUDES(mutex_);

 private:
  // Only the owning thread writes a buffer; each write of `head` and `epoch`
  // publishes the ring slots and reset before it to Collect. A slot's
  // when_ms holds ticks since the session origin until Collect scales it.
  struct ThreadBuffer {
    explicit ThreadBuffer(int64_t capacity) : ring(static_cast<size_t>(capacity)) {}
    std::vector<TraceEvent> ring;
    PublishedAtomic<int64_t> head{0};    // events emitted this epoch
    PublishedAtomic<uint64_t> epoch{0};  // the epoch `head`/`ring` belong to
  };

  Tracer() = default;
  ThreadBuffer* GetThreadBuffer() VLORA_EXCLUDES(mutex_);
  int64_t Ticks() const;  // the session clock: TSC or steady_clock ns

  // Start stores the session parameters, then publishes them through epoch_
  // and enabled_. The tracer is a singleton, so enabled_ is static: reading
  // it needs no call to Global().
  static constinit inline PublishedAtomic<bool> enabled_{false};
  PublishedAtomic<uint64_t> epoch_{0};
  RelaxedAtomic<int64_t> ring_capacity_{1 << 14};
  RelaxedAtomic<bool> tsc_{false};          // ticks are TSC cycles, not ns
  RelaxedAtomic<int64_t> origin_ns_{0};     // session origin on steady_clock
  RelaxedAtomic<int64_t> origin_ticks_{0};  // ... and on the session clock

  mutable Mutex mutex_{Rank::kTrace, "Tracer::mutex_"};
  // Buffers live as long as the tracer, so events from joined threads survive
  // until Collect and t_buffer_ never dangles.
  std::vector<std::unique_ptr<ThreadBuffer>> buffers_ VLORA_GUARDED_BY(mutex_);
  static thread_local ThreadBuffer* t_buffer_;  // this thread's entry of buffers_
};

struct TraceOptions {
  int64_t ring_capacity = 1 << 14;  // events per emitting thread (~1.3 MiB)
};

// RAII capture scope over the global tracer: enables on construction,
// disables on destruction. Sessions do not nest.
class TraceSession {
 public:
  explicit TraceSession(const TraceOptions& options = {});
  ~TraceSession();

  TraceSession(const TraceSession&) = delete;
  TraceSession& operator=(const TraceSession&) = delete;

  void Stop();  // idempotent early stop; Collect stays valid afterwards
  [[nodiscard]] std::vector<TraceEvent> Collect() const;
  int64_t dropped_events() const;
};

// ---------------------------------------------------------------------------
// Emission helpers — the instrumentation vocabulary. Each tests
// Tracer::enabled() inline, so while tracing is disabled a call costs one
// load and a branch and builds no event.

namespace detail {
// The replica stamped on events this thread emits without one; see
// SetCurrentReplica.
inline thread_local int t_current_replica = -1;
}  // namespace detail

inline void EmitRequestAdmitted(int64_t request_id, int adapter) {
  if (Tracer::enabled()) {
    Tracer::Global().Emit(
        {.kind = TraceEventKind::kRequestAdmitted, .adapter = adapter, .request_id = request_id});
  }
}

inline void EmitRouted(int64_t request_id, int adapter, int replica, bool affinity_hit,
                       bool spilled) {
  if (Tracer::enabled()) {
    Tracer::Global().Emit({.kind = TraceEventKind::kRouted, .replica = replica,
                           .adapter = adapter, .request_id = request_id,
                           .n = affinity_hit ? 1 : 0, .k = spilled ? 1 : 0});
  }
}

inline void EmitEnqueued(int64_t request_id, int adapter, int replica) {
  if (Tracer::enabled()) {
    Tracer::Global().Emit({.kind = TraceEventKind::kEnqueued, .replica = replica,
                           .adapter = adapter, .request_id = request_id});
  }
}

inline void EmitKernelDispatch(int64_t m, int64_t n, int64_t k, int tile_mc, int tile_nc,
                               int tile_kc, int tile_mr, int tile_nr) {
  if (Tracer::enabled()) {
    Tracer::Global().Emit({.kind = TraceEventKind::kKernelDispatch,
                           .replica = detail::t_current_replica, .m = m, .n = n, .k = k,
                           .tile_mc = tile_mc, .tile_nc = tile_nc, .tile_kc = tile_kc,
                           .tile_mr = tile_mr, .tile_nr = tile_nr});
  }
}

inline void EmitRetry(int64_t request_id, int adapter, int attempt) {
  if (Tracer::enabled()) {
    Tracer::Global().Emit({.kind = TraceEventKind::kRetry, .adapter = adapter,
                           .request_id = request_id, .m = attempt});
  }
}

inline void EmitQuarantine(int replica) {
  if (Tracer::enabled()) {
    Tracer::Global().Emit({.kind = TraceEventKind::kQuarantine, .replica = replica});
  }
}

inline void EmitReadmit(int replica) {
  if (Tracer::enabled()) {
    Tracer::Global().Emit({.kind = TraceEventKind::kReadmit, .replica = replica});
  }
}

inline void EmitCompleted(int64_t request_id, int adapter, int replica, StatusCode status) {
  if (Tracer::enabled()) {
    Tracer::Global().Emit({.kind = TraceEventKind::kCompleted, .status = status,
                           .replica = replica, .adapter = adapter, .request_id = request_id});
  }
}

// Emitted by the engine on the thread that ran the prefill chunk; the replica
// comes from the thread-local attribution below.
inline void EmitPrefillDone(int64_t request_id, int adapter, int64_t prefill_tokens,
                            int64_t reused_tokens) {
  if (Tracer::enabled()) {
    Tracer::Global().Emit({.kind = TraceEventKind::kPrefillDone,
                           .replica = detail::t_current_replica, .adapter = adapter,
                           .request_id = request_id, .m = prefill_tokens, .n = reused_tokens});
  }
}

inline void EmitKvHandoff(int64_t request_id, int adapter, int replica, int64_t pages,
                          int64_t floats) {
  if (Tracer::enabled()) {
    Tracer::Global().Emit({.kind = TraceEventKind::kKvHandoff, .replica = replica,
                           .adapter = adapter, .request_id = request_id, .m = pages,
                           .n = floats});
  }
}

inline void EmitDecodeRouted(int64_t request_id, int adapter, int replica, bool affinity_hit,
                             bool spilled) {
  if (Tracer::enabled()) {
    Tracer::Global().Emit({.kind = TraceEventKind::kDecodeRouted, .replica = replica,
                           .adapter = adapter, .request_id = request_id,
                           .n = affinity_hit ? 1 : 0, .k = spilled ? 1 : 0});
  }
}

inline void EmitDecodeEnqueued(int64_t request_id, int adapter, int replica) {
  if (Tracer::enabled()) {
    Tracer::Global().Emit({.kind = TraceEventKind::kDecodeEnqueued, .replica = replica,
                           .adapter = adapter, .request_id = request_id});
  }
}

// Thread-local replica attribution: a replica worker declares itself once and
// every event emitted from that thread without an explicit replica (engine
// batch steps, kernel dispatches) is stamped with it. -1 = unattributed.
inline void SetCurrentReplica(int replica) { detail::t_current_replica = replica; }

// RAII batch-step span: Begin on construction, End (with the completed count
// set via set_completed) on destruction. It is the only way to emit either
// event, so every step span the tracer records is closed, early returns
// included.
class BatchStepSpan {
 public:
  explicit BatchStepSpan(int64_t batch_size);
  ~BatchStepSpan();

  BatchStepSpan(const BatchStepSpan&) = delete;
  BatchStepSpan& operator=(const BatchStepSpan&) = delete;

  void set_completed(int64_t count) { completed_ = count; }

 private:
  int replica_;
  int64_t completed_ = 0;
};

// ---------------------------------------------------------------------------
// Exporters.

// Chrome trace_event JSON: {"traceEvents": [...]}. Batch steps become B/E
// duration pairs on a per-replica track; everything else is an instant event
// carrying its fields as args.
std::string ChromeTraceJson(const std::vector<TraceEvent>& events);
// Writes ChromeTraceJson to `path`; returns false on IO failure.
bool WriteChromeTraceFile(const std::vector<TraceEvent>& events, const std::string& path);
// Minimal structural JSON parse (objects/arrays/strings/numbers/literals).
// Returns false on malformed input; on success *num_events (if non-null) gets
// the length of the top-level "traceEvents" array. This is the round-trip
// check the tests and benches run on every exported trace.
bool ValidateChromeTraceJson(const std::string& json, int64_t* num_events);

// Per-request lifecycle rollup derived from a collected event stream.
struct RequestSpan {
  int64_t request_id = -1;
  int32_t adapter = -1;
  int32_t replica = -1;  // last replica that accepted it (-1: never enqueued)
  int64_t retries = 0;   // kRetry events observed
  double admitted_ms = -1.0;
  double enqueued_ms = -1.0;   // first enqueue
  double completed_ms = -1.0;  // terminal event (-1: still open)
  bool completed = false;
  StatusCode status = StatusCode::kInternal;

  double RouteMs() const;  // admission -> first enqueue
  double TotalMs() const;  // admission -> terminal
};

std::vector<RequestSpan> BuildRequestSpans(const std::vector<TraceEvent>& events);
// Span summary for bench output: the `max_rows` slowest requests plus an
// aggregate row over all spans.
AsciiTable RequestSpanTable(const std::vector<RequestSpan>& spans, size_t max_rows);

}  // namespace trace
}  // namespace vlora

#endif  // VLORA_SRC_COMMON_TRACE_H_
