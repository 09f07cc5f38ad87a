// Trace-driven proofs of the disaggregated prefill/decode lifecycle
// (DESIGN.md §15). Everything here runs the thread backend so the whole
// two-stage story — admit, prefill-route, KV-handoff, decode-route,
// complete — is visible in one process's trace stream; the wire-level
// equivalents live in net_test.cc / process_cluster_test.cc. The suite also
// runs under TSan/ASan via scripts/verify.sh (`disagg` + `concurrency`
// labels), so traces stay short.

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <set>
#include <vector>

#include "src/cluster/cluster_server.h"
#include "src/common/fault.h"
#include "src/common/trace.h"
#include "src/workload/trace_gen.h"
#include "tests/trace_matcher.h"

namespace vlora {
namespace {

using trace::TraceEvent;
using trace::TraceEventKindName;
using trace::TraceEventKind;
using trace::TraceMatcher;
using trace::TraceSession;

std::vector<LoraAdapter> MakeAdapters(const ModelConfig& config, int count, uint64_t seed) {
  Rng rng(seed);
  std::vector<LoraAdapter> adapters;
  for (int i = 0; i < count; ++i) {
    adapters.push_back(LoraAdapter::Random("disagg-" + std::to_string(i), config.num_layers,
                                           config.d_model, 4, rng));
  }
  return adapters;
}

std::vector<Request> SmallTrace(int num_adapters, double rate_rps, double duration_s,
                                uint64_t seed) {
  TraceOptions options;
  options.app = AppKind::kVisualRetrieval;
  options.duration_s = duration_s;
  options.rate_rps = rate_rps;
  options.num_adapters = num_adapters;
  options.skewness = 0.6;
  options.seed = seed;
  return GenerateTrace(options);
}

TraceMapOptions SmallMap() {
  TraceMapOptions map;
  map.token_scale = 32;
  map.max_prompt_tokens = 16;
  map.max_new_tokens = 3;
  return map;
}

std::unique_ptr<ClusterServer> MakeDisaggCluster(const ModelConfig& config, int replicas,
                                                 int num_prefill,
                                                 const std::vector<Request>& trace,
                                                 FaultInjector* fault = nullptr,
                                                 RecoveryOptions recovery = {},
                                                 DisaggOptions disagg_extra = {}) {
  ClusterOptions options;
  options.num_replicas = replicas;
  options.policy = RoutePolicy::kRoundRobin;  // fixed routing sequence
  options.admission = AdmissionPolicy::kBlock;
  options.replica_queue_capacity = 256;
  options.server.max_batch_size = 4;
  options.disagg = disagg_extra;
  options.disagg.enabled = true;
  options.disagg.num_prefill = num_prefill;
  options.fault = fault;
  options.recovery = recovery;
  auto cluster = std::make_unique<ClusterServer>(config, options);
  for (const LoraAdapter& adapter : MakeAdapters(config, 6, 11)) {
    cluster->AddAdapter(adapter);
  }
  cluster->PlaceAdapters(AdapterShares(trace, 6));
  return cluster;
}

// --- The two-stage lifecycle, event by event --------------------------------

TEST(DisaggregatedTest, TwoStageLifecycleIsFullyTraced) {
  const ModelConfig config = TinyConfig();
  const std::vector<Request> trace = SmallTrace(6, 40.0, 1.0, 61);
  ASSERT_GE(trace.size(), 20u);
  constexpr int kPrefillPool = 1;  // replicas {0} prefill, {1, 2} decode

  TraceSession session;
  auto cluster = MakeDisaggCluster(config, /*replicas=*/3, kPrefillPool, trace);
  for (size_t i = 0; i < 20; ++i) {
    ASSERT_TRUE(cluster->Submit(EngineRequestFromTrace(trace[i], config, SmallMap())));
  }
  const std::vector<EngineResult> results = cluster->Drain();
  EXPECT_EQ(results.size(), 20u);
  EXPECT_TRUE(cluster->TakeFailures().empty());
  const ClusterStats stats = cluster->Stats();
  cluster.reset();
  session.Stop();
  TraceMatcher matcher(session.Collect());
  EXPECT_EQ(session.dropped_events(), 0);

  // The pool split is visible in the events themselves: handoffs only leave
  // prefill replicas, decode routing only targets decode replicas.
  for (const TraceEvent& event : matcher.events()) {
    if (event.kind == TraceEventKind::kKvHandoff) {
      EXPECT_LT(event.replica, kPrefillPool) << "handoff from a non-prefill replica";
    }
    if (event.kind == TraceEventKind::kDecodeRouted ||
        event.kind == TraceEventKind::kDecodeEnqueued) {
      EXPECT_GE(event.replica, kPrefillPool)
          << TraceEventKindName(event.kind) << " targeted the prefill pool";
    }
  }

  std::set<int64_t> handed_off;
  for (const TraceEvent& event : matcher.events()) {
    if (event.kind == TraceEventKind::kKvHandoff) {
      handed_off.insert(event.request_id);
    }
  }
  EXPECT_EQ(static_cast<int64_t>(handed_off.size()), stats.handoffs);
  EXPECT_GT(stats.handoffs, 0);
  EXPECT_EQ(stats.handles_released, stats.handoffs);

  for (size_t i = 0; i < 20; ++i) {
    const int64_t id = trace[i].id;
    EXPECT_TRUE(matcher.ExpectCompleted(id, StatusCode::kOk));
    if (handed_off.count(id) != 0) {
      // Exactly one handoff, embedded in the full two-stage sequence. The
      // decode replica's generic kEnqueued lands between kDecodeRouted and
      // kDecodeEnqueued; subsequence matching absorbs it.
      EXPECT_EQ(matcher.CountForRequest(TraceEventKind::kKvHandoff, id), 1);
      EXPECT_TRUE(matcher.ExpectSequence(
          id, {TraceEventKind::kRequestAdmitted, TraceEventKind::kRouted,
               TraceEventKind::kEnqueued, TraceEventKind::kPrefillDone,
               TraceEventKind::kKvHandoff, TraceEventKind::kDecodeRouted,
               TraceEventKind::kDecodeEnqueued, TraceEventKind::kCompleted}));
      // The prefill happened exactly once: the decode pool resumed from the
      // handle instead of recomputing the prompt.
      EXPECT_EQ(matcher.CountForRequest(TraceEventKind::kPrefillDone, id), 1);
      // A prefill batch step retired between the request entering the prefill
      // replica and its KV leaving it.
      const double enqueued_ms = matcher.FirstTime({TraceEventKind::kEnqueued, -1, id});
      const double handoff_ms = matcher.FirstTime({TraceEventKind::kKvHandoff, -1, id});
      bool stepped = false;
      for (const TraceEvent& event : matcher.events()) {
        if (event.kind == TraceEventKind::kBatchStepEnd && event.replica < kPrefillPool &&
            event.when_ms > enqueued_ms && event.when_ms <= handoff_ms) {
          stepped = true;
          break;
        }
      }
      EXPECT_TRUE(stepped) << "no prefill BatchStepEnd inside request " << id
                           << "'s enqueue->handoff window";
      // The handoff carried the sequence's actual KV pages.
      for (const TraceEvent& event : matcher.ForRequest(id)) {
        if (event.kind == TraceEventKind::kKvHandoff) {
          EXPECT_GT(event.handoff_pages(), 0);
          EXPECT_GT(event.handoff_floats(), 0);
        }
      }
    } else {
      // Finished at prefill (eos / single-token / task head): stage two never
      // started for it.
      EXPECT_EQ(matcher.CountForRequest(TraceEventKind::kDecodeRouted, id), 0);
      EXPECT_EQ(matcher.CountForRequest(TraceEventKind::kDecodeEnqueued, id), 0);
    }
  }
}

// --- Latency: one sample per request, handoff or not ------------------------

// The cluster records one submit -> completion latency sample per completed
// request. A KV handoff is not a completion, so a request that runs on a
// prefill and then a decode replica still adds exactly one sample.
TEST(DisaggregatedTest, LatencyIsOneSamplePerCompletedRequest) {
  const ModelConfig config = TinyConfig();
  const std::vector<Request> trace = SmallTrace(6, 40.0, 1.0, 67);
  ASSERT_GE(trace.size(), 20u);

  auto cluster = MakeDisaggCluster(config, /*replicas=*/3, /*num_prefill=*/1, trace);
  for (size_t i = 0; i < 20; ++i) {
    ASSERT_TRUE(cluster->Submit(EngineRequestFromTrace(trace[i], config, SmallMap())));
  }
  EXPECT_EQ(cluster->Drain().size(), 20u);
  const ClusterStats stats = cluster->Stats();
  EXPECT_EQ(stats.completed, 20);
  EXPECT_GT(stats.handoffs, 0);
  EXPECT_EQ(stats.latency.count(), stats.completed);
}

// --- Decode-pool death: no routing to the lost replica ----------------------

TEST(DisaggregatedTest, DeadDecodeReplicaIsNeverTargetedAgain) {
  const ModelConfig config = TinyConfig();
  const std::vector<Request> trace = SmallTrace(6, 40.0, 2.0, 67);
  ASSERT_GE(trace.size(), 40u);
  constexpr int kVictim = 2;  // decode pool is {1, 2}

  TraceSession session;
  FaultInjector fault(0x5eedu);
  fault.GateWorkers();  // first wave piles up so the kill orphans queued work
  // The victim idles until the whole first wave's handoffs are routed (its
  // decodes are microseconds, so without the stall it can drain each handoff
  // before the next arrives and die with an empty queue — no retry to prove).
  fault.StallReplicaAfter(kVictim, /*completed=*/0, /*stall_ms=*/200.0);
  fault.KillReplicaAfter(kVictim, /*completed=*/1);
  RecoveryOptions recovery;
  recovery.stall_quarantine_ms = 0.0;
  recovery.backoff_base_ms = 1.0;
  recovery.health_period_ms = 2.0;
  recovery.max_attempts = 8;
  // Serialize decode completions (TPOT cap -> batch of 1): the victim cannot
  // clear its whole queue in one batch step, so the kill after its first
  // completion always orphans queued decodes and forces the retry path.
  DisaggOptions serial_decode;
  serial_decode.tpot_slo_ms = 1.0;
  serial_decode.est_decode_step_ms = 1.0;
  auto cluster = MakeDisaggCluster(config, /*replicas=*/3, /*num_prefill=*/1, trace, &fault,
                                   recovery, serial_decode);
  for (size_t i = 0; i < 20; ++i) {
    ASSERT_TRUE(cluster->Submit(EngineRequestFromTrace(trace[i], config, SmallMap())));
  }
  fault.OpenGate();  // the victim dies holding its share of queued decodes
  const std::vector<EngineResult> first_wave = cluster->Drain();
  EXPECT_EQ(first_wave.size(), 20u);
  EXPECT_TRUE(cluster->TakeFailures().empty());
  ASSERT_TRUE(cluster->WaitForReplicaDeaths(/*count=*/1, /*timeout_ms=*/10'000.0));

  // Second wave, submitted after the death is recorded: the decode router and
  // the rebalanced decode placement must steer every handoff to replica 1.
  for (size_t i = 20; i < 40; ++i) {
    ASSERT_TRUE(cluster->Submit(EngineRequestFromTrace(trace[i], config, SmallMap())));
  }
  const std::vector<EngineResult> second_wave = cluster->Drain();
  EXPECT_EQ(second_wave.size(), 20u);
  EXPECT_TRUE(cluster->TakeFailures().empty());
  const ClusterStats stats = cluster->Stats();
  EXPECT_EQ(stats.replica_deaths, 1);
  EXPECT_EQ(stats.handles_released, stats.handoffs);
  cluster.reset();
  session.Stop();
  TraceMatcher matcher(session.Collect());
  EXPECT_EQ(session.dropped_events(), 0);

  // The victim really served decode work before dying...
  EXPECT_GT(matcher.CountForReplica(TraceEventKind::kDecodeEnqueued, kVictim), 0);
  // ...and once its death convicted (first fail-over retry), its pool never
  // accepted another handoff.
  const double first_retry_ms = matcher.FirstTime({TraceEventKind::kRetry});
  ASSERT_GE(first_retry_ms, 0.0);
  EXPECT_EQ(matcher.CountAfter({TraceEventKind::kDecodeEnqueued, kVictim}, first_retry_ms), 0);
  EXPECT_EQ(matcher.CountAfter({TraceEventKind::kEnqueued, kVictim}, first_retry_ms), 0);
  // Requests orphaned on the victim re-routed their existing handle: one
  // prefill, one handoff, then a retry into the surviving decode replica.
  std::set<int64_t> retried;
  for (const TraceEvent& event : matcher.events()) {
    if (event.kind == TraceEventKind::kRetry) {
      retried.insert(event.request_id);
    }
  }
  EXPECT_FALSE(retried.empty());
  for (int64_t id : retried) {
    EXPECT_TRUE(matcher.ExpectCompleted(id, StatusCode::kOk));
    EXPECT_EQ(matcher.CountForRequest(TraceEventKind::kPrefillDone, id), 1);
    EXPECT_EQ(matcher.CountForRequest(TraceEventKind::kKvHandoff, id), 1);
    EXPECT_TRUE(matcher.ExpectSequence(
        id, {TraceEventKind::kKvHandoff, TraceEventKind::kRetry,
             TraceEventKind::kDecodeEnqueued, TraceEventKind::kCompleted}));
  }
  // Every post-death completion in the second wave still has the full
  // two-stage (or prefill-terminal) lifecycle.
  for (size_t i = 20; i < 40; ++i) {
    EXPECT_TRUE(matcher.ExpectCompleted(trace[i].id, StatusCode::kOk));
  }
}

// --- TTFT admission gate ----------------------------------------------------

TEST(DisaggregatedTest, TtftAdmissionRejectsWhenPrefillPoolIsSaturated) {
  const ModelConfig config = TinyConfig();
  const std::vector<Request> trace = SmallTrace(6, 40.0, 2.0, 71);
  ASSERT_GE(trace.size(), 20u);

  TraceSession session;
  FaultInjector fault(0x5eedu);
  fault.GateWorkers();  // prefill depth only grows while the gate is closed
  ClusterOptions options;
  options.num_replicas = 2;
  options.policy = RoutePolicy::kRoundRobin;
  options.admission = AdmissionPolicy::kBlock;
  options.replica_queue_capacity = 256;
  options.server.max_batch_size = 4;
  options.disagg.enabled = true;
  options.disagg.num_prefill = 1;
  // threshold = max(1, 40 / 5) = 8 queued requests on the only prefill
  // replica; the 9th Submit must bounce.
  options.disagg.ttft_slo_ms = 40.0;
  options.disagg.est_prefill_ms = 5.0;
  options.fault = &fault;
  options.recovery.stall_quarantine_ms = 0.0;
  ClusterServer cluster(config, options);
  for (const LoraAdapter& adapter : MakeAdapters(config, 6, 11)) {
    cluster.AddAdapter(adapter);
  }
  cluster.PlaceAdapters(AdapterShares(trace, 6));

  int admitted = 0;
  int rejected = 0;
  for (size_t i = 0; i < 12; ++i) {
    if (cluster.Submit(EngineRequestFromTrace(trace[i], config, SmallMap()))) {
      ++admitted;
    } else {
      ++rejected;
    }
  }
  EXPECT_EQ(admitted, 8);
  EXPECT_EQ(rejected, 4);
  fault.OpenGate();
  const std::vector<EngineResult> results = cluster.Drain();
  EXPECT_EQ(static_cast<int>(results.size()), admitted);
  const ClusterStats stats = cluster.Stats();
  EXPECT_EQ(stats.rejected, rejected);
  EXPECT_EQ(stats.handles_released, stats.handoffs);
  cluster.Shutdown();
  session.Stop();
  TraceMatcher matcher(session.Collect());
  // Rejected submissions never entered the lifecycle: admitted events match
  // the accepted count exactly.
  EXPECT_EQ(matcher.Count(TraceEventKind::kRequestAdmitted), admitted);
}

// --- TPOT decode batch cap --------------------------------------------------

TEST(DisaggregatedTest, TpotSloCapsDecodeBatchSize) {
  const ModelConfig config = TinyConfig();
  const std::vector<Request> trace = SmallTrace(6, 40.0, 1.0, 73);
  ASSERT_GE(trace.size(), 16u);

  TraceSession session;
  FaultInjector fault(0x5eedu);
  fault.GateWorkers();  // all 16 requests queue on the prefill replica first
  ClusterOptions options;
  options.num_replicas = 2;
  options.policy = RoutePolicy::kRoundRobin;
  options.replica_queue_capacity = 256;
  options.server.max_batch_size = 4;
  options.disagg.enabled = true;
  options.disagg.num_prefill = 1;
  // cap = clamp(2.0 / 1.0, 1, 4) = 2: decode batches may not exceed two
  // sequences even though prefill still batches four.
  options.disagg.tpot_slo_ms = 2.0;
  options.disagg.est_decode_step_ms = 1.0;
  options.fault = &fault;
  options.recovery.stall_quarantine_ms = 0.0;  // gated workers are parked, not stalled
  ClusterServer cluster(config, options);
  for (const LoraAdapter& adapter : MakeAdapters(config, 6, 11)) {
    cluster.AddAdapter(adapter);
  }
  cluster.PlaceAdapters(AdapterShares(trace, 6));
  for (size_t i = 0; i < 16; ++i) {
    ASSERT_TRUE(cluster.Submit(EngineRequestFromTrace(trace[i], config, SmallMap())));
  }
  fault.OpenGate();
  const std::vector<EngineResult> results = cluster.Drain();
  EXPECT_EQ(results.size(), 16u);
  const ClusterStats stats = cluster.Stats();
  EXPECT_EQ(stats.handles_released, stats.handoffs);
  cluster.Shutdown();
  session.Stop();
  TraceMatcher matcher(session.Collect());
  EXPECT_EQ(session.dropped_events(), 0);

  // The decode replica's engine never stepped a batch wider than the cap,
  // while the prefill replica (16 requests deep at gate-open) still filled
  // its configured width.
  int64_t prefill_widest = 0;
  for (const TraceEvent& event : matcher.events()) {
    if (event.kind != TraceEventKind::kBatchStepBegin) {
      continue;
    }
    if (event.replica == 1) {
      EXPECT_LE(event.batch_size(), 2) << "decode batch exceeded the TPOT cap";
    } else if (event.replica == 0) {
      prefill_widest = std::max(prefill_widest, event.batch_size());
    }
  }
  EXPECT_EQ(prefill_widest, 4);
}

}  // namespace
}  // namespace vlora
