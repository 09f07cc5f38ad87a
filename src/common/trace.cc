#include "src/common/trace.h"

#include <algorithm>
#include <cctype>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>

namespace vlora {
namespace trace {
namespace {

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

thread_local int t_current_replica = -1;

// Doubles formatted the same way everywhere so exported JSON is stable.
std::string FormatMs(double value) {
  char buffer[32];
  std::snprintf(buffer, sizeof(buffer), "%.3f", value);
  return buffer;
}

}  // namespace

std::string TraceEvent::TileString() const {
  std::ostringstream out;
  out << "(" << tile_mc << "," << tile_nc << "," << tile_kc << "," << tile_mr << "," << tile_nr
      << ")";
  return out.str();
}

Tracer& Tracer::Global() {
  static Tracer tracer;
  return tracer;
}

void Tracer::Start(int64_t ring_capacity) {
  VLORA_CHECK(ring_capacity >= 1);
  ring_capacity_.Store(ring_capacity);
  origin_ns_.Store(NowNs());
  // Bumping the epoch logically clears every buffer: emitters lazily reset
  // their ring on the first emit of the new epoch, Collect skips stale ones.
  epoch_.FetchAdd(1);
  enabled_.Publish(true);
}

void Tracer::Stop() { enabled_.Publish(false); }

Tracer::ThreadBuffer* Tracer::GetThreadBuffer() {
  // The shared_ptr keeps the buffer alive past thread exit (the registry
  // holds the other reference), so events from joined threads survive until
  // Collect.
  thread_local std::shared_ptr<ThreadBuffer> t_buffer;
  if (t_buffer == nullptr) {
    auto fresh = std::make_shared<ThreadBuffer>(  // vlora-lint: allow(hot-path-alloc) one-time per-thread ring registration
        ring_capacity_.Load());
    {
      MutexLock lock(&mutex_);
      buffers_.push_back(fresh);  // vlora-lint: allow(hot-path-alloc) one-time per-thread ring registration
    }
    t_buffer = std::move(fresh);
  }
  return t_buffer.get();
}

void Tracer::Emit(TraceEvent event) {
  if (!enabled_.Load()) {
    return;
  }
  ThreadBuffer* buffer = GetThreadBuffer();
  const uint64_t epoch = epoch_.Load();
  if (buffer->epoch.Load() != epoch) {
    // First emit of a new session on this thread: adopt the session's ring
    // capacity and restart the ring. Owner-thread-only writes; Collect skips
    // the buffer until the epoch store below publishes them.
    const auto capacity = static_cast<size_t>(ring_capacity_.Load());
    if (buffer->ring.size() != capacity) {
      buffer->ring.assign(capacity, TraceEvent{});  // vlora-lint: allow(hot-path-alloc) once per thread per trace session (epoch adoption)
    }
    buffer->head.Publish(0);
    buffer->epoch.Publish(epoch);
  }
  event.when_ms = static_cast<double>(NowNs() - origin_ns_.Load()) / 1e6;
  const auto capacity = static_cast<int64_t>(buffer->ring.size());
  const int64_t head = buffer->head.Load();
  buffer->ring[static_cast<size_t>(head % capacity)] = event;
  buffer->head.Publish(head + 1);
}

std::vector<TraceEvent> Tracer::Collect() const {
  std::vector<TraceEvent> out;
  const uint64_t epoch = epoch_.Load();
  {
    MutexLock lock(&mutex_);
    for (const auto& buffer : buffers_) {
      if (buffer->epoch.Load() != epoch) {
        continue;  // never emitted in this session
      }
      const int64_t head = buffer->head.Load();
      const auto capacity = static_cast<int64_t>(buffer->ring.size());
      for (int64_t i = std::max<int64_t>(0, head - capacity); i < head; ++i) {
        out.push_back(buffer->ring[static_cast<size_t>(i % capacity)]);
      }
    }
  }
  std::stable_sort(out.begin(), out.end(),
                   [](const TraceEvent& a, const TraceEvent& b) { return a.when_ms < b.when_ms; });
  return out;
}

int64_t Tracer::dropped_events() const {
  int64_t dropped = 0;
  const uint64_t epoch = epoch_.Load();
  MutexLock lock(&mutex_);
  for (const auto& buffer : buffers_) {
    if (buffer->epoch.Load() != epoch) {
      continue;
    }
    const int64_t head = buffer->head.Load();
    dropped += std::max<int64_t>(0, head - static_cast<int64_t>(buffer->ring.size()));
  }
  return dropped;
}

TraceSession::TraceSession(const TraceOptions& options) {
  Tracer::Global().Start(options.ring_capacity);
}

TraceSession::~TraceSession() { Stop(); }

void TraceSession::Stop() { Tracer::Global().Stop(); }

std::vector<TraceEvent> TraceSession::Collect() const { return Tracer::Global().Collect(); }

int64_t TraceSession::dropped_events() const { return Tracer::Global().dropped_events(); }

// ---------------------------------------------------------------------------
// Emission helpers.

void EmitRequestAdmitted(int64_t request_id, int adapter) {
  TraceEvent event;
  event.kind = TraceEventKind::kRequestAdmitted;
  event.request_id = request_id;
  event.adapter = adapter;
  Tracer::Global().Emit(event);
}

void EmitRouted(int64_t request_id, int adapter, int replica, bool affinity_hit, bool spilled) {
  TraceEvent event;
  event.kind = TraceEventKind::kRouted;
  event.request_id = request_id;
  event.adapter = adapter;
  event.replica = replica;
  event.n = affinity_hit ? 1 : 0;
  event.k = spilled ? 1 : 0;
  Tracer::Global().Emit(event);
}

void EmitEnqueued(int64_t request_id, int adapter, int replica) {
  TraceEvent event;
  event.kind = TraceEventKind::kEnqueued;
  event.request_id = request_id;
  event.adapter = adapter;
  event.replica = replica;
  Tracer::Global().Emit(event);
}

void EmitBatchStepBegin(int replica, int64_t batch_size) {  // vlora-lint: allow(trace-span-unclosed)
  TraceEvent event;
  event.kind = TraceEventKind::kBatchStepBegin;  // vlora-lint: allow(trace-span-unclosed)
  event.replica = replica;
  event.m = batch_size;
  Tracer::Global().Emit(event);
}

void EmitBatchStepEnd(int replica, int64_t completed_count) {
  TraceEvent event;
  event.kind = TraceEventKind::kBatchStepEnd;
  event.replica = replica;
  event.m = completed_count;
  Tracer::Global().Emit(event);
}

void EmitKernelDispatch(int64_t m, int64_t n, int64_t k, int tile_mc, int tile_nc, int tile_kc,
                        int tile_mr, int tile_nr) {
  TraceEvent event;
  event.kind = TraceEventKind::kKernelDispatch;
  event.replica = t_current_replica;
  event.m = m;
  event.n = n;
  event.k = k;
  event.tile_mc = tile_mc;
  event.tile_nc = tile_nc;
  event.tile_kc = tile_kc;
  event.tile_mr = tile_mr;
  event.tile_nr = tile_nr;
  Tracer::Global().Emit(event);
}

void EmitRetry(int64_t request_id, int adapter, int attempt) {
  TraceEvent event;
  event.kind = TraceEventKind::kRetry;
  event.request_id = request_id;
  event.adapter = adapter;
  event.m = attempt;
  Tracer::Global().Emit(event);
}

void EmitQuarantine(int replica) {
  TraceEvent event;
  event.kind = TraceEventKind::kQuarantine;
  event.replica = replica;
  Tracer::Global().Emit(event);
}

void EmitReadmit(int replica) {
  TraceEvent event;
  event.kind = TraceEventKind::kReadmit;
  event.replica = replica;
  Tracer::Global().Emit(event);
}

void EmitCompleted(int64_t request_id, int adapter, int replica, StatusCode status) {
  TraceEvent event;
  event.kind = TraceEventKind::kCompleted;
  event.request_id = request_id;
  event.adapter = adapter;
  event.replica = replica;
  event.status = status;
  Tracer::Global().Emit(event);
}

void EmitPrefillDone(int64_t request_id, int adapter, int64_t prefill_tokens,
                     int64_t reused_tokens) {
  TraceEvent event;
  event.kind = TraceEventKind::kPrefillDone;
  event.request_id = request_id;
  event.adapter = adapter;
  event.replica = t_current_replica;
  event.m = prefill_tokens;
  event.n = reused_tokens;
  Tracer::Global().Emit(event);
}

void EmitKvHandoff(int64_t request_id, int adapter, int replica, int64_t pages, int64_t floats) {
  TraceEvent event;
  event.kind = TraceEventKind::kKvHandoff;
  event.request_id = request_id;
  event.adapter = adapter;
  event.replica = replica;
  event.m = pages;
  event.n = floats;
  Tracer::Global().Emit(event);
}

void EmitDecodeRouted(int64_t request_id, int adapter, int replica, bool affinity_hit,
                      bool spilled) {
  TraceEvent event;
  event.kind = TraceEventKind::kDecodeRouted;
  event.request_id = request_id;
  event.adapter = adapter;
  event.replica = replica;
  event.n = affinity_hit ? 1 : 0;
  event.k = spilled ? 1 : 0;
  Tracer::Global().Emit(event);
}

void EmitDecodeEnqueued(int64_t request_id, int adapter, int replica) {
  TraceEvent event;
  event.kind = TraceEventKind::kDecodeEnqueued;
  event.request_id = request_id;
  event.adapter = adapter;
  event.replica = replica;
  Tracer::Global().Emit(event);
}

void SetCurrentReplica(int replica) { t_current_replica = replica; }

BatchStepSpan::BatchStepSpan(int64_t batch_size) : replica_(t_current_replica) {
  // The matching End lives in the destructor — this pair IS the RAII guard.
  EmitBatchStepBegin(replica_, batch_size);  // vlora-lint: allow(trace-span-unclosed)
}

BatchStepSpan::~BatchStepSpan() { EmitBatchStepEnd(replica_, completed_); }

// ---------------------------------------------------------------------------
// Chrome trace_event export.

namespace {

void AppendJsonString(const std::string& value, std::string* out) {
  out->push_back('"');
  for (char c : value) {
    switch (c) {
      case '"':
        *out += "\\\"";
        break;
      case '\\':
        *out += "\\\\";
        break;
      case '\n':
        *out += "\\n";
        break;
      default:
        out->push_back(c);
        break;
    }
  }
  out->push_back('"');
}

void AppendChromeEvent(const TraceEvent& event, std::string* out) {
  const bool is_begin = event.kind == TraceEventKind::kBatchStepBegin;
  const bool is_end = event.kind == TraceEventKind::kBatchStepEnd;
  // Batch steps render as B/E duration pairs on the replica's track; every
  // other kind is an instant event. Unattributed events share track -1.
  *out += R"({"name":)";
  AppendJsonString(is_begin || is_end ? "BatchStep" : TraceEventKindName(event.kind), out);
  *out += R"(,"ph":")";
  *out += is_begin ? "B" : (is_end ? "E" : "i");
  *out += R"(","pid":1,"tid":)";
  *out += std::to_string(event.replica);
  *out += R"(,"ts":)";
  *out += FormatMs(event.when_ms * 1e3);  // trace_event ts is in microseconds
  if (!is_begin && !is_end) {
    *out += R"(,"s":"t")";
  }
  *out += R"(,"args":{)";
  bool first = true;
  auto arg = [&](const char* key, const std::string& value, bool quoted) {
    if (!first) {
      out->push_back(',');
    }
    first = false;
    AppendJsonString(key, out);
    out->push_back(':');
    if (quoted) {
      AppendJsonString(value, out);
    } else {
      *out += value;
    }
  };
  arg("kind", TraceEventKindName(event.kind), /*quoted=*/true);
  if (event.request_id >= 0) {
    arg("request", std::to_string(event.request_id), /*quoted=*/false);
  }
  if (event.adapter >= 0) {
    arg("adapter", std::to_string(event.adapter), /*quoted=*/false);
  }
  switch (event.kind) {
    case TraceEventKind::kKernelDispatch:
      arg("m", std::to_string(event.m), /*quoted=*/false);
      arg("n", std::to_string(event.n), /*quoted=*/false);
      arg("k", std::to_string(event.k), /*quoted=*/false);
      arg("tile", event.TileString(), /*quoted=*/true);
      break;
    case TraceEventKind::kBatchStepBegin:  // vlora-lint: allow(trace-span-unclosed)
      arg("batch_size", std::to_string(event.batch_size()), /*quoted=*/false);
      break;
    case TraceEventKind::kBatchStepEnd:
      arg("completed", std::to_string(event.completed_count()), /*quoted=*/false);
      break;
    case TraceEventKind::kRetry:
      arg("attempt", std::to_string(event.attempt()), /*quoted=*/false);
      break;
    case TraceEventKind::kRouted:
    case TraceEventKind::kDecodeRouted:
      arg("affinity_hit", event.affinity_hit() ? "true" : "false", /*quoted=*/false);
      arg("spilled", event.spilled() ? "true" : "false", /*quoted=*/false);
      break;
    case TraceEventKind::kCompleted:
      arg("status", StatusCodeName(event.status), /*quoted=*/true);
      break;
    case TraceEventKind::kPrefillDone:
      arg("prefill_tokens", std::to_string(event.prefill_tokens()), /*quoted=*/false);
      arg("reused_tokens", std::to_string(event.reused_tokens()), /*quoted=*/false);
      break;
    case TraceEventKind::kKvHandoff:
      arg("pages", std::to_string(event.handoff_pages()), /*quoted=*/false);
      arg("floats", std::to_string(event.handoff_floats()), /*quoted=*/false);
      break;
    case TraceEventKind::kRequestAdmitted:
    case TraceEventKind::kEnqueued:
    case TraceEventKind::kDecodeEnqueued:
    case TraceEventKind::kQuarantine:
    case TraceEventKind::kReadmit:
      break;
  }
  *out += "}}";
}

}  // namespace

std::string ChromeTraceJson(const std::vector<TraceEvent>& events) {
  std::string out;
  out.reserve(events.size() * 160 + 64);
  out += R"({"traceEvents":[)";
  // Track-name metadata first so chrome://tracing labels replica rows.
  out += R"({"name":"process_name","ph":"M","pid":1,"args":{"name":"vlora"}})";
  std::vector<int32_t> replicas;
  for (const TraceEvent& event : events) {
    replicas.push_back(event.replica);
  }
  std::sort(replicas.begin(), replicas.end());
  replicas.erase(std::unique(replicas.begin(), replicas.end()), replicas.end());
  for (int32_t replica : replicas) {
    out += R"(,{"name":"thread_name","ph":"M","pid":1,"tid":)";
    out += std::to_string(replica);
    out += R"(,"args":{"name":)";
    AppendJsonString(replica >= 0 ? "replica " + std::to_string(replica) : "cluster", &out);
    out += "}}";
  }
  for (const TraceEvent& event : events) {
    out.push_back(',');
    AppendChromeEvent(event, &out);
  }
  out += "]}";
  return out;
}

bool WriteChromeTraceFile(const std::vector<TraceEvent>& events, const std::string& path) {
  std::ofstream stream(path, std::ios::out | std::ios::trunc);
  if (!stream) {
    return false;
  }
  stream << ChromeTraceJson(events);
  return static_cast<bool>(stream);
}

// ---------------------------------------------------------------------------
// Structural JSON validation (round-trip check for the exporter).

namespace {

struct JsonParser {
  const std::string& text;
  size_t pos = 0;
  // Filled when the top-level object carries a "traceEvents" array.
  int64_t trace_events = -1;

  void SkipSpace() {
    while (pos < text.size() && (text[pos] == ' ' || text[pos] == '\t' || text[pos] == '\n' ||
                                 text[pos] == '\r')) {
      ++pos;
    }
  }

  bool Consume(char c) {
    SkipSpace();
    if (pos < text.size() && text[pos] == c) {
      ++pos;
      return true;
    }
    return false;
  }

  bool ParseString() {
    SkipSpace();
    if (pos >= text.size() || text[pos] != '"') {
      return false;
    }
    ++pos;
    while (pos < text.size() && text[pos] != '"') {
      if (text[pos] == '\\') {
        ++pos;
        if (pos >= text.size()) {
          return false;
        }
      }
      ++pos;
    }
    if (pos >= text.size()) {
      return false;
    }
    ++pos;  // closing quote
    return true;
  }

  bool ParseLiteralOrNumber() {
    SkipSpace();
    const size_t start = pos;
    while (pos < text.size() &&
           (isalnum(static_cast<unsigned char>(text[pos])) || text[pos] == '-' ||
            text[pos] == '+' || text[pos] == '.')) {
      ++pos;
    }
    if (pos == start) {
      return false;
    }
    const std::string token = text.substr(start, pos - start);
    if (token == "true" || token == "false" || token == "null") {
      return true;
    }
    char* end = nullptr;
    (void)std::strtod(token.c_str(), &end);
    return end != nullptr && *end == '\0';
  }

  // Returns the element count through *count when non-null.
  bool ParseArray(int64_t* count) {
    if (!Consume('[')) {
      return false;
    }
    int64_t elements = 0;
    SkipSpace();
    if (Consume(']')) {
      if (count != nullptr) {
        *count = 0;
      }
      return true;
    }
    for (;;) {
      if (!ParseValue(/*depth_is_top=*/false)) {
        return false;
      }
      ++elements;
      if (Consume(']')) {
        break;
      }
      if (!Consume(',')) {
        return false;
      }
    }
    if (count != nullptr) {
      *count = elements;
    }
    return true;
  }

  bool ParseObject(bool depth_is_top) {
    if (!Consume('{')) {
      return false;
    }
    SkipSpace();
    if (Consume('}')) {
      return true;
    }
    for (;;) {
      SkipSpace();
      const size_t key_start = pos;
      if (!ParseString()) {
        return false;
      }
      const std::string key = text.substr(key_start, pos - key_start);
      if (!Consume(':')) {
        return false;
      }
      if (depth_is_top && key == "\"traceEvents\"") {
        SkipSpace();
        int64_t count = 0;
        if (pos < text.size() && text[pos] == '[') {
          if (!ParseArray(&count)) {
            return false;
          }
          trace_events = count;
        } else if (!ParseValue(/*depth_is_top=*/false)) {
          return false;
        }
      } else if (!ParseValue(/*depth_is_top=*/false)) {
        return false;
      }
      if (Consume('}')) {
        break;
      }
      if (!Consume(',')) {
        return false;
      }
    }
    return true;
  }

  bool ParseValue(bool depth_is_top) {
    SkipSpace();
    if (pos >= text.size()) {
      return false;
    }
    const char c = text[pos];
    if (c == '{') {
      return ParseObject(depth_is_top);
    }
    if (c == '[') {
      return ParseArray(nullptr);
    }
    if (c == '"') {
      return ParseString();
    }
    return ParseLiteralOrNumber();
  }
};

}  // namespace

bool ValidateChromeTraceJson(const std::string& json, int64_t* num_events) {
  JsonParser parser{json};
  if (!parser.ParseValue(/*depth_is_top=*/true)) {
    return false;
  }
  parser.SkipSpace();
  if (parser.pos != json.size()) {
    return false;  // trailing garbage
  }
  if (parser.trace_events < 0) {
    return false;  // not a trace container
  }
  if (num_events != nullptr) {
    *num_events = parser.trace_events;
  }
  return true;
}

// ---------------------------------------------------------------------------
// Per-request span rollup.

std::vector<RequestSpan> BuildRequestSpans(const std::vector<TraceEvent>& events) {
  std::map<int64_t, RequestSpan> spans;  // ordered by request id
  for (const TraceEvent& event : events) {
    if (event.request_id < 0) {
      continue;
    }
    RequestSpan& span = spans[event.request_id];
    span.request_id = event.request_id;
    if (event.adapter >= 0) {
      span.adapter = event.adapter;
    }
    switch (event.kind) {
      case TraceEventKind::kRequestAdmitted:
        span.admitted_ms = event.when_ms;
        break;
      case TraceEventKind::kEnqueued:
      case TraceEventKind::kDecodeEnqueued:
        if (span.enqueued_ms < 0.0) {
          span.enqueued_ms = event.when_ms;
        }
        span.replica = event.replica;
        break;
      case TraceEventKind::kRetry:
        ++span.retries;
        break;
      case TraceEventKind::kCompleted:
        span.completed_ms = event.when_ms;
        span.completed = true;
        span.status = event.status;
        if (event.replica >= 0) {
          span.replica = event.replica;
        }
        break;
      case TraceEventKind::kRouted:
      case TraceEventKind::kDecodeRouted:
      case TraceEventKind::kBatchStepBegin:  // vlora-lint: allow(trace-span-unclosed)
      case TraceEventKind::kBatchStepEnd:
      case TraceEventKind::kKernelDispatch:
      case TraceEventKind::kPrefillDone:
      case TraceEventKind::kKvHandoff:
      case TraceEventKind::kQuarantine:
      case TraceEventKind::kReadmit:
        break;
    }
  }
  std::vector<RequestSpan> out;
  out.reserve(spans.size());
  for (auto& entry : spans) {
    out.push_back(entry.second);
  }
  return out;
}

double RequestSpan::RouteMs() const {
  if (admitted_ms < 0.0 || enqueued_ms < 0.0) {
    return 0.0;
  }
  return enqueued_ms - admitted_ms;
}

double RequestSpan::TotalMs() const {
  if (admitted_ms < 0.0 || completed_ms < 0.0) {
    return 0.0;
  }
  return completed_ms - admitted_ms;
}

AsciiTable RequestSpanTable(const std::vector<RequestSpan>& spans, size_t max_rows) {
  AsciiTable table({"request", "adapter", "replica", "retries", "route_ms", "total_ms", "status"});
  std::vector<const RequestSpan*> slowest;
  slowest.reserve(spans.size());
  double total_sum = 0.0;
  double route_sum = 0.0;
  int64_t retries = 0;
  int64_t completed_ok = 0;
  for (const RequestSpan& span : spans) {
    slowest.push_back(&span);
    total_sum += span.TotalMs();
    route_sum += span.RouteMs();
    retries += span.retries;
    if (span.completed && span.status == StatusCode::kOk) {
      ++completed_ok;
    }
  }
  std::sort(slowest.begin(), slowest.end(), [](const RequestSpan* a, const RequestSpan* b) {
    return a->TotalMs() > b->TotalMs();
  });
  if (slowest.size() > max_rows) {
    slowest.resize(max_rows);
  }
  for (const RequestSpan* span : slowest) {
    table.AddRow({std::to_string(span->request_id), std::to_string(span->adapter),
                  std::to_string(span->replica), std::to_string(span->retries),
                  AsciiTable::FormatDouble(span->RouteMs()),
                  AsciiTable::FormatDouble(span->TotalMs()),
                  span->completed ? StatusCodeName(span->status) : "(open)"});
  }
  const double count = spans.empty() ? 1.0 : static_cast<double>(spans.size());
  table.AddRow({"all (" + std::to_string(spans.size()) + ")", "-", "-", std::to_string(retries),
                AsciiTable::FormatDouble(route_sum / count),
                AsciiTable::FormatDouble(total_sum / count),
                std::to_string(completed_ok) + " ok"});
  return table;
}

}  // namespace trace

// ---------------------------------------------------------------------------
// MetricsRegistry.

MetricsRegistry& MetricsRegistry::Global() {
  static MetricsRegistry registry;
  return registry;
}

Counter* MetricsRegistry::counter(const std::string& name) {
  MutexLock lock(&mutex_);
  auto& slot = counters_[name];
  if (slot == nullptr) {
    slot = std::make_unique<Counter>();
  }
  return slot.get();
}

MetricsRegistry::Snapshot MetricsRegistry::Snap() const {
  Snapshot snapshot;
  MutexLock lock(&mutex_);
  for (const auto& entry : counters_) {
    snapshot.counters[entry.first] = entry.second->value();
  }
  return snapshot;
}

}  // namespace vlora
