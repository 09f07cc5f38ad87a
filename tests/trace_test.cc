// Unit tests for the event tracer, the metrics registry, the exporters and
// the TraceMatcher test utility itself. The concurrent-emission test also
// runs under ThreadSanitizer via scripts/verify.sh (ctest label
// "concurrency").

#include "src/common/trace.h"

#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "src/core/server.h"
#include "tests/trace_matcher.h"

namespace vlora {
namespace {

using trace::TraceEvent;
using trace::TraceEventKind;
using trace::TraceMatcher;
using trace::TraceSession;

EngineRequest MakeRequest(int64_t id, int adapter, int prompt_len) {
  EngineRequest request;
  request.id = id;
  request.adapter_id = adapter;
  for (int i = 0; i < prompt_len; ++i) {
    request.prompt_tokens.push_back(2 + (i % 50));
  }
  request.max_new_tokens = 2;
  request.eos_token = -1;
  return request;
}

TEST(TraceTest, DisabledFastPathEmitsNothing) {
  TraceSession session;
  session.Stop();
  trace::EmitEnqueued(/*request_id=*/1, /*adapter=*/0, /*replica=*/0);
  trace::EmitRetry(/*request_id=*/1, /*adapter=*/0, /*attempt=*/2);
  EXPECT_TRUE(session.Collect().empty());
  EXPECT_EQ(session.dropped_events(), 0);
}

TEST(TraceTest, WraparoundDropsOldestAndCountsDropped) {
  trace::TraceOptions options;
  options.ring_capacity = 8;
  TraceSession session(options);
  for (int64_t id = 0; id < 20; ++id) {
    trace::EmitEnqueued(id, /*adapter=*/0, /*replica=*/0);
  }
  session.Stop();
  const std::vector<TraceEvent> events = session.Collect();
  ASSERT_EQ(events.size(), 8u);
  // The ring keeps the newest events; ids 0..11 were overwritten.
  for (size_t i = 0; i < events.size(); ++i) {
    EXPECT_EQ(events[i].request_id, 12 + static_cast<int64_t>(i));
  }
  EXPECT_EQ(session.dropped_events(), 12);
}

TEST(TraceTest, NewSessionLogicallyClearsOldEvents) {
  {
    TraceSession first;
    trace::EmitQuarantine(0);
    trace::EmitQuarantine(1);
  }
  TraceSession second;
  trace::EmitReadmit(3);
  second.Stop();
  const std::vector<TraceEvent> events = second.Collect();
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].kind, TraceEventKind::kReadmit);
  EXPECT_EQ(events[0].replica, 3);
  EXPECT_EQ(second.dropped_events(), 0);
}

// Per-thread buffers make emission wait-free and race-free; this is the
// TSan-checked shape: many threads emit concurrently, collection happens
// after they joined.
TEST(TraceTest, ConcurrentEmissionFromManyThreads) {
  constexpr int kThreads = 4;
  constexpr int kPerThread = 5000;
  TraceSession session;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([t] {
      for (int i = 0; i < kPerThread; ++i) {
        trace::EmitEnqueued(/*request_id=*/int64_t{t} * kPerThread + i, /*adapter=*/t,
                            /*replica=*/t);
      }
    });
  }
  for (std::thread& thread : threads) {
    thread.join();
  }
  session.Stop();
  const std::vector<TraceEvent> events = session.Collect();
  EXPECT_EQ(events.size(), static_cast<size_t>(kThreads) * kPerThread);
  EXPECT_EQ(session.dropped_events(), 0);
  // Collect returns a single timestamp-sorted stream.
  for (size_t i = 1; i < events.size(); ++i) {
    EXPECT_LE(events[i - 1].when_ms, events[i].when_ms);
  }
  TraceMatcher matcher(events);
  for (int t = 0; t < kThreads; ++t) {
    EXPECT_EQ(matcher.CountForReplica(TraceEventKind::kEnqueued, t), kPerThread);
  }
}

// The adversarial twin of the test above, for the race detector: a toggler
// thread bumps the epoch with Start/Stop while emitter threads run the Emit
// fast path and hammer MetricsRegistry counters. This drives every atomic in
// the tracer and the registry; TSan (ctest label "concurrency" under
// scripts/verify.sh) checks the orders their types fix. Ring capacity stays
// constant across Starts so per-thread rings are allocated once and only
// epochs race.
TEST(TraceTest, ConcurrentEpochBumpsRacingEmittersAndMetrics) {
  constexpr int kEmitters = 4;
  constexpr int kPerThread = 2000;
  constexpr int kToggles = 200;
  constexpr int64_t kCapacity = 1 << 12;
  trace::Tracer& tracer = trace::Tracer::Global();
  Counter* const stress = MetricsRegistry::Global().counter("test.trace.stress");
  const int64_t stress_before = stress->value();

  tracer.Start(kCapacity);
  std::vector<std::thread> threads;
  threads.reserve(kEmitters + 1);
  threads.emplace_back([&tracer] {
    for (int i = 0; i < kToggles; ++i) {
      tracer.Stop();
      std::this_thread::yield();
      tracer.Start(kCapacity);
    }
  });
  for (int t = 0; t < kEmitters; ++t) {
    threads.emplace_back([t, stress] {
      for (int i = 0; i < kPerThread; ++i) {
        trace::EmitEnqueued(/*request_id=*/int64_t{t} * kPerThread + i, /*adapter=*/t,
                            /*replica=*/t);
        stress->Increment();
      }
    });
  }
  for (std::thread& thread : threads) {
    thread.join();
  }
  tracer.Stop();

  // Counters are exact regardless of the racing epochs (relaxed RMW is still
  // one atomic add per call); the trace keeps a subset — whatever landed in
  // the final epoch — and every kept event is well-formed.
  EXPECT_EQ(stress->value() - stress_before, int64_t{kEmitters} * kPerThread);
  const std::vector<TraceEvent> events = tracer.Collect();
  EXPECT_LE(events.size(), static_cast<size_t>(kEmitters) * kPerThread);
  EXPECT_GE(tracer.dropped_events(), 0);
  for (const TraceEvent& event : events) {
    EXPECT_EQ(event.kind, TraceEventKind::kEnqueued);
    EXPECT_GE(event.replica, 0);
    EXPECT_LT(event.replica, kEmitters);
  }
}

TEST(TraceTest, ChromeJsonExportRoundTrips) {
  TraceSession session;
  trace::EmitRequestAdmitted(7, /*adapter=*/1);
  trace::EmitRouted(7, /*adapter=*/1, /*replica=*/0, /*affinity_hit=*/true, /*spilled=*/false);
  trace::EmitEnqueued(7, /*adapter=*/1, /*replica=*/0);
  trace::EmitBatchStepBegin(/*replica=*/0, /*batch_size=*/1);
  trace::EmitKernelDispatch(8, 64, 64, 32, 64, 64, 8, 8);
  trace::EmitBatchStepEnd(/*replica=*/0, /*completed_count=*/1);
  trace::EmitCompleted(7, /*adapter=*/1, /*replica=*/0, StatusCode::kOk);
  session.Stop();
  const std::vector<TraceEvent> events = session.Collect();
  ASSERT_EQ(events.size(), 7u);

  const std::string json = trace::ChromeTraceJson(events);
  int64_t exported = 0;
  ASSERT_TRUE(trace::ValidateChromeTraceJson(json, &exported)) << json;
  // Every event plus the process_name record and one thread_name per distinct
  // replica track (replica 0 and the unattributed -1 track are both absent
  // here: all seven events carry replica 0 except Admitted/Routed... count
  // directly instead of hardcoding).
  std::vector<int32_t> replicas;
  for (const TraceEvent& event : events) {
    replicas.push_back(event.replica);
  }
  std::sort(replicas.begin(), replicas.end());
  replicas.erase(std::unique(replicas.begin(), replicas.end()), replicas.end());
  EXPECT_EQ(exported, static_cast<int64_t>(events.size() + 1 + replicas.size()));
  // Spot-check content: the tile config and terminal status are in the args.
  EXPECT_NE(json.find("\"tile\":\"(32,64,64,8,8)\""), std::string::npos);
  EXPECT_NE(json.find("\"status\":\"OK\""), std::string::npos);
}

TEST(TraceTest, ValidateChromeTraceJsonRejectsMalformedInput) {
  EXPECT_FALSE(trace::ValidateChromeTraceJson("", nullptr));
  EXPECT_FALSE(trace::ValidateChromeTraceJson("{", nullptr));
  EXPECT_FALSE(trace::ValidateChromeTraceJson("[]", nullptr));            // no traceEvents
  EXPECT_FALSE(trace::ValidateChromeTraceJson("{\"a\":1}", nullptr));     // no traceEvents
  EXPECT_FALSE(trace::ValidateChromeTraceJson("{\"traceEvents\":[}", nullptr));
  EXPECT_FALSE(trace::ValidateChromeTraceJson("{\"traceEvents\":[]} x", nullptr));
  int64_t count = -1;
  EXPECT_TRUE(trace::ValidateChromeTraceJson("{\"traceEvents\":[]}", &count));
  EXPECT_EQ(count, 0);
  EXPECT_TRUE(trace::ValidateChromeTraceJson("{\"traceEvents\":[{\"a\":[1,2]},3]}", &count));
  EXPECT_EQ(count, 2);
}

// Full single-server path: batch-step spans and kernel dispatches appear,
// Begin/End pair up, and the metrics registry advances alongside.
TEST(TraceTest, EngineRunIsTracedEndToEnd) {
  const ModelConfig config = TinyConfig();
  VloraServer server(config);
  Rng rng(17);
  server.AddAdapter(std::make_unique<LoraAdapter>(
      LoraAdapter::Random("trace-a", config.num_layers, config.d_model, 4, rng)));

  Counter* const steps = MetricsRegistry::Global().counter("engine.batch_steps");
  Counter* const dispatches = MetricsRegistry::Global().counter("atmm.dispatches");
  const int64_t steps_before = steps->value();
  const int64_t dispatches_before = dispatches->value();

  TraceSession session;
  server.Submit(MakeRequest(1, 0, 6));
  server.Submit(MakeRequest(2, 0, 4));
  const std::vector<EngineResult> results = server.RunAll();
  session.Stop();
  ASSERT_EQ(results.size(), 2u);

  TraceMatcher matcher(session.Collect());
  const int64_t begins = matcher.Count(TraceEventKind::kBatchStepBegin);
  EXPECT_GT(begins, 0);
  EXPECT_EQ(begins, matcher.Count(TraceEventKind::kBatchStepEnd));
  EXPECT_GT(matcher.Count(TraceEventKind::kKernelDispatch), 0);
  for (const TraceEvent& event : matcher.events()) {
    if (event.kind == TraceEventKind::kKernelDispatch) {
      EXPECT_GT(event.m, 0);
      EXPECT_GT(event.n, 0);
      EXPECT_GT(event.k, 0);
      EXPECT_GT(event.tile_mr, 0) << "tile config missing from kernel event";
    }
  }
  // Standalone server: no replica attribution.
  EXPECT_EQ(matcher.CountForReplica(TraceEventKind::kBatchStepBegin, -1),
            matcher.Count(TraceEventKind::kBatchStepBegin));
  EXPECT_EQ(steps->value() - steps_before, begins);
  EXPECT_GT(dispatches->value() - dispatches_before, 0);
}

TEST(TraceTest, RequestSpanRollupAndTable) {
  TraceSession session;
  trace::EmitRequestAdmitted(11, /*adapter=*/2);
  trace::EmitRouted(11, 2, /*replica=*/1, /*affinity_hit=*/false, /*spilled=*/true);
  trace::EmitEnqueued(11, 2, /*replica=*/1);
  trace::EmitRetry(11, 2, /*attempt=*/2);
  trace::EmitEnqueued(11, 2, /*replica=*/0);
  trace::EmitCompleted(11, 2, /*replica=*/0, StatusCode::kOk);
  trace::EmitRequestAdmitted(12, /*adapter=*/3);
  session.Stop();

  const std::vector<trace::RequestSpan> spans = trace::BuildRequestSpans(session.Collect());
  ASSERT_EQ(spans.size(), 2u);
  EXPECT_EQ(spans[0].request_id, 11);
  EXPECT_EQ(spans[0].adapter, 2);
  EXPECT_EQ(spans[0].replica, 0);  // last accepting replica wins
  EXPECT_EQ(spans[0].retries, 1);
  EXPECT_TRUE(spans[0].completed);
  EXPECT_EQ(spans[0].status, StatusCode::kOk);
  EXPECT_GE(spans[0].TotalMs(), spans[0].RouteMs());
  EXPECT_EQ(spans[1].request_id, 12);
  EXPECT_FALSE(spans[1].completed);

  const std::string table = trace::RequestSpanTable(spans, /*max_rows=*/10).ToString();
  EXPECT_NE(table.find("11"), std::string::npos);
  EXPECT_NE(table.find("all (2)"), std::string::npos);
}

TEST(TraceTest, MetricsRegistryCountersAndSnapshot) {
  MetricsRegistry& registry = MetricsRegistry::Global();
  Counter* const counter = registry.counter("test.trace.counter");
  EXPECT_EQ(counter, registry.counter("test.trace.counter"));  // stable handle
  counter->Increment();
  counter->Add(4);

  const MetricsRegistry::Snapshot snapshot = registry.Snap();
  EXPECT_EQ(snapshot.counters.at("test.trace.counter"), 5);
}

TEST(TraceTest, TraceMatcherSequenceCountsAndOrdering) {
  TraceSession session;
  trace::EmitRequestAdmitted(5, 0);
  trace::EmitRouted(5, 0, 1, false, false);
  trace::EmitEnqueued(5, 0, 1);
  trace::EmitQuarantine(1);
  trace::EmitReadmit(1);
  trace::EmitCompleted(5, 0, 1, StatusCode::kOk);
  session.Stop();

  TraceMatcher matcher(session.Collect());
  EXPECT_TRUE(matcher.ExpectSequence(
      5, {TraceEventKind::kRequestAdmitted, TraceEventKind::kRouted, TraceEventKind::kEnqueued,
          TraceEventKind::kCompleted}));
  // Missing kinds and wrong order both fail.
  EXPECT_FALSE(matcher.ExpectSequence(5, {TraceEventKind::kRetry}));
  EXPECT_FALSE(
      matcher.ExpectSequence(5, {TraceEventKind::kCompleted, TraceEventKind::kRequestAdmitted}));
  EXPECT_TRUE(matcher.ExpectAllBefore({TraceEventKind::kQuarantine, 1},
                                      {TraceEventKind::kReadmit, 1}));
  EXPECT_FALSE(matcher.ExpectAllBefore({TraceEventKind::kReadmit, 1},
                                       {TraceEventKind::kQuarantine, 1}));
  EXPECT_TRUE(matcher.ExpectCompleted(5, StatusCode::kOk));
  EXPECT_FALSE(matcher.ExpectCompleted(5, StatusCode::kCancelled));
  EXPECT_FALSE(matcher.ExpectCompleted(6, StatusCode::kOk));
  EXPECT_TRUE(matcher.ExpectSpanWithin(5, 0.0, 1e6));
  EXPECT_FALSE(matcher.ExpectSpanWithin(6, 0.0, 1e6));
  EXPECT_EQ(matcher.CountForRequest(TraceEventKind::kEnqueued, 5), 1);
  EXPECT_EQ(matcher.CountAfter({TraceEventKind::kEnqueued, 1},
                               matcher.FirstTime({TraceEventKind::kQuarantine, 1})),
            0);
}

}  // namespace
}  // namespace vlora
