#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <vector>

#include "src/cluster/cluster_server.h"
#include "src/common/trace.h"
#include "src/workload/trace_gen.h"
#include "tests/trace_matcher.h"

namespace vlora {
namespace {

using trace::TraceEventKind;
using trace::TraceMatcher;
using trace::TraceSession;

// Negative compile-time test (see thread_pool_test.cc for the convention):
// under -DVLORA_THREAD_SAFETY=ON -DVLORA_EXPECT_TS_ERROR this must fail to
// compile — the helper demands the lock via VLORA_REQUIRES but the caller
// never takes it.
#ifdef VLORA_EXPECT_TS_ERROR
struct TsRequiresProbe {
  Mutex mu{Rank::kLeaf, "TsRequiresProbe::mu"};
  int state VLORA_GUARDED_BY(mu) = 0;
  void TouchLocked() VLORA_REQUIRES(mu) { ++state; }
  void CallWithoutLock() { TouchLocked(); }  // thread-safety error here
};
#endif

// Small, fast fixtures: everything here also runs under ThreadSanitizer via
// scripts/verify.sh, so traces stay short.

std::vector<LoraAdapter> MakeAdapters(const ModelConfig& config, int count, uint64_t seed) {
  Rng rng(seed);
  std::vector<LoraAdapter> adapters;
  for (int i = 0; i < count; ++i) {
    adapters.push_back(LoraAdapter::Random("cluster-" + std::to_string(i), config.num_layers,
                                           config.d_model, 4, rng));
  }
  return adapters;
}

std::vector<Request> SkewedTrace(int num_adapters, double skewness, double rate_rps,
                                 double duration_s, uint64_t seed) {
  TraceOptions options;
  options.app = AppKind::kVisualRetrieval;
  options.duration_s = duration_s;
  options.rate_rps = rate_rps;
  options.num_adapters = num_adapters;
  options.skewness = skewness;
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

// --- AdapterPlacement ------------------------------------------------------

TEST(PlacementTest, HotSetReplicatedColdSetPartitioned) {
  const std::vector<double> shares = {0.6, 0.15, 0.1, 0.08, 0.05, 0.02};
  PlacementOptions options;
  options.hot_share_threshold = 0.15;
  options.max_hot = 2;
  const AdapterPlacement placement = AdapterPlacement::Compute(shares, 3, options);

  // Adapters 0 and 1 clear the threshold: homed everywhere.
  for (int adapter : {0, 1}) {
    EXPECT_TRUE(placement.IsHot(adapter));
    EXPECT_EQ(placement.HomesOf(adapter).size(), 3u);
  }
  // The cold tail lands on exactly one replica each, and every replica gets
  // at least one cold adapter (greedy balance over 4 cold adapters).
  for (int adapter : {2, 3, 4, 5}) {
    EXPECT_FALSE(placement.IsHot(adapter));
    EXPECT_EQ(placement.HomesOf(adapter).size(), 1u);
  }
  // Base-model requests have no homes.
  EXPECT_TRUE(placement.HomesOf(-1).empty());
}

TEST(PlacementTest, DeterministicForFixedShares) {
  const std::vector<double> shares = {0.3, 0.3, 0.2, 0.1, 0.1};
  const AdapterPlacement a = AdapterPlacement::Compute(shares, 4);
  const AdapterPlacement b = AdapterPlacement::Compute(shares, 4);
  for (int adapter = 0; adapter < 5; ++adapter) {
    EXPECT_EQ(a.HomesOf(adapter), b.HomesOf(adapter)) << "adapter " << adapter;
  }
}

// --- Router ----------------------------------------------------------------

TEST(RouterTest, RoundRobinCyclesDeterministically) {
  Router router(RoutePolicy::kRoundRobin, nullptr, 3, 0);
  const std::vector<int64_t> depths = {5, 0, 9};
  for (int i = 0; i < 9; ++i) {
    EXPECT_EQ(router.Pick(i % 4, depths).replica, i % 3);
  }
}

TEST(RouterTest, LeastLoadedPicksMinDepthLowestIndexTie) {
  Router router(RoutePolicy::kLeastLoaded, nullptr, 4, 0);
  EXPECT_EQ(router.Pick(0, {3, 1, 1, 2}).replica, 1);
  EXPECT_EQ(router.Pick(0, {0, 0, 0, 0}).replica, 0);
}

TEST(RouterTest, AffinityPrefersHomeAndSpillsOnOverload) {
  const std::vector<double> shares = {0.5, 0.3, 0.2};
  PlacementOptions placement_options;
  placement_options.hot_share_threshold = 0.5;
  placement_options.max_hot = 1;
  const AdapterPlacement placement = AdapterPlacement::Compute(shares, 2, placement_options);
  Router router(RoutePolicy::kAdapterAffinity, &placement, 2, /*overload_depth=*/4);

  // Cold adapters 1 and 2 each have a single home.
  const int home1 = placement.HomesOf(1).front();
  const int home2 = placement.HomesOf(2).front();
  EXPECT_NE(home1, home2);  // partitioned across the two replicas

  std::vector<int64_t> depths = {0, 0};
  RouteDecision d = router.Pick(1, depths);
  EXPECT_EQ(d.replica, home1);
  EXPECT_TRUE(d.affinity_hit);
  EXPECT_FALSE(d.spilled);

  // Overload the home: routing spills to the other (less loaded) replica.
  depths[static_cast<size_t>(home1)] = 10;
  d = router.Pick(1, depths);
  EXPECT_NE(d.replica, home1);
  EXPECT_TRUE(d.spilled);
  EXPECT_FALSE(d.affinity_hit);

  // Base-model requests fall back to least-loaded.
  d = router.Pick(-1, depths);
  EXPECT_NE(d.replica, home1);
  EXPECT_FALSE(d.affinity_hit);
}

TEST(RouterTest, DecisionsDeterministicAcrossRuns) {
  const std::vector<double> shares = {0.4, 0.3, 0.2, 0.1};
  const AdapterPlacement placement = AdapterPlacement::Compute(shares, 3);
  const std::vector<Request> trace = SkewedTrace(4, 0.6, 30.0, 2.0, 7);
  for (RoutePolicy policy : {RoutePolicy::kRoundRobin, RoutePolicy::kAdapterAffinity}) {
    Router a(policy, &placement, 3, 8);
    Router b(policy, &placement, 3, 8);
    const std::vector<int64_t> depths = {0, 0, 0};
    for (const Request& request : trace) {
      EXPECT_EQ(a.Pick(request.adapter_id, depths).replica,
                b.Pick(request.adapter_id, depths).replica);
    }
  }
}

// --- End-to-end cluster ----------------------------------------------------

class ClusterTest : public ::testing::Test {
 protected:
  ClusterTest() : config_(TinyConfig()) {}

  std::unique_ptr<ClusterServer> MakeCluster(int replicas, RoutePolicy policy,
                                             const std::vector<Request>& trace,
                                             AdmissionPolicy admission = AdmissionPolicy::kBlock,
                                             int64_t capacity = 256,
                                             FaultInjector* fault = nullptr,
                                             RecoveryOptions recovery = {}) {
    ClusterOptions options;
    options.num_replicas = replicas;
    options.policy = policy;
    options.admission = admission;
    options.replica_queue_capacity = capacity;
    options.server.max_batch_size = 4;
    options.fault = fault;
    options.recovery = recovery;
    auto cluster = std::make_unique<ClusterServer>(config_, options);
    for (const LoraAdapter& adapter : MakeAdapters(config_, 6, 11)) {
      cluster->AddAdapter(adapter);
    }
    cluster->PlaceAdapters(AdapterShares(trace, 6));
    return cluster;
  }

  // Multiset of (request id, output tokens) — completion order varies across
  // replica counts, content must not.
  static std::map<int64_t, std::vector<int32_t>> ResultKey(
      const std::vector<EngineResult>& results) {
    std::map<int64_t, std::vector<int32_t>> key;
    for (const EngineResult& result : results) {
      key[result.request_id] = result.output_tokens;
    }
    return key;
  }

  ModelConfig config_;
};

TEST_F(ClusterTest, ResultsIdenticalAcrossReplicaCounts) {
  const std::vector<Request> trace = SkewedTrace(6, 0.6, 25.0, 2.0, 13);
  ASSERT_GT(trace.size(), 10u);
  std::map<int64_t, std::vector<int32_t>> reference;
  for (int replicas : {1, 4}) {
    auto cluster = MakeCluster(replicas, RoutePolicy::kAdapterAffinity, trace);
    for (const Request& request : trace) {
      EXPECT_TRUE(cluster->Submit(EngineRequestFromTrace(request, config_, SmallMap())));
    }
    const std::vector<EngineResult> results = cluster->Drain();
    EXPECT_EQ(results.size(), trace.size());
    const auto key = ResultKey(results);
    if (replicas == 1) {
      reference = key;
    } else {
      EXPECT_EQ(key, reference);
    }
    const ClusterStats stats = cluster->Stats();
    EXPECT_EQ(stats.completed, static_cast<int64_t>(trace.size()));
    EXPECT_EQ(stats.rejected, 0);
    EXPECT_EQ(stats.latency.count(), static_cast<int64_t>(trace.size()));
    EXPECT_GT(stats.latency.P99Ms(), 0.0);
    EXPECT_GE(stats.latency.P99Ms(), stats.latency.P50Ms());
  }
}

// Satellite 1 (disaggregation): the prefill/decode split with paged-KV
// handoff must be invisible in the results. Same trace, same seeds — the
// unified fleet and the disaggregated pools must emit identical per-request
// token streams, and every KvHandle the master takes ownership of must be
// released by Drain.
TEST_F(ClusterTest, DisaggregatedMatchesUnifiedResults) {
  const std::vector<Request> trace = SkewedTrace(6, 0.6, 25.0, 2.0, 41);
  ASSERT_GT(trace.size(), 10u);
  std::map<int64_t, std::vector<int32_t>> reference;
  for (const bool disagg : {false, true}) {
    ClusterOptions options;
    options.num_replicas = 3;
    options.policy = RoutePolicy::kAdapterAffinity;
    options.replica_queue_capacity = 256;
    options.server.max_batch_size = 4;
    options.disagg.enabled = disagg;
    options.disagg.num_prefill = 1;
    ClusterServer cluster(config_, options);
    for (const LoraAdapter& adapter : MakeAdapters(config_, 6, 11)) {
      cluster.AddAdapter(adapter);
    }
    cluster.PlaceAdapters(AdapterShares(trace, 6));
    for (const Request& request : trace) {
      ASSERT_TRUE(cluster.Submit(EngineRequestFromTrace(request, config_, SmallMap())));
    }
    const std::vector<EngineResult> results = cluster.Drain();
    EXPECT_EQ(results.size(), trace.size());
    const auto key = ResultKey(results);
    if (!disagg) {
      reference = key;
    } else {
      EXPECT_EQ(key, reference);
    }
    const ClusterStats stats = cluster.Stats();
    EXPECT_EQ(stats.completed, static_cast<int64_t>(trace.size()));
    EXPECT_EQ(stats.rejected, 0);
    if (disagg) {
      // Multi-token requests hand off; single-token ones finish in prefill.
      EXPECT_GT(stats.handoffs, 0);
      EXPECT_EQ(stats.handles_released, stats.handoffs);
    } else {
      EXPECT_EQ(stats.handoffs, 0);
      EXPECT_EQ(stats.handles_released, 0);
    }
  }
}

TEST_F(ClusterTest, RoundRobinSpreadsWorkAcrossReplicas) {
  const std::vector<Request> trace = SkewedTrace(6, 0.6, 25.0, 2.0, 17);
  TraceSession session;
  auto cluster = MakeCluster(3, RoutePolicy::kRoundRobin, trace);
  for (const Request& request : trace) {
    ASSERT_TRUE(cluster->Submit(EngineRequestFromTrace(request, config_, SmallMap())));
  }
  (void)cluster->Drain();
  const ClusterStats stats = cluster->Stats();
  for (const ReplicaSnapshot& replica : stats.replicas) {
    // Round-robin gives each replica a third of the trace, within one.
    EXPECT_NEAR(static_cast<double>(replica.submitted),
                static_cast<double>(trace.size()) / 3.0, 1.0);
  }

  cluster.reset();
  session.Stop();
  TraceMatcher matcher(session.Collect());
  // The per-replica ingress spread is visible in the event stream too, and
  // every request walked the full admitted -> routed -> enqueued -> completed
  // lifecycle with a single kOk terminal event.
  for (int r = 0; r < 3; ++r) {
    EXPECT_NEAR(static_cast<double>(matcher.CountForReplica(TraceEventKind::kEnqueued, r)),
                static_cast<double>(trace.size()) / 3.0, 1.0);
  }
  for (const Request& request : trace) {
    EXPECT_TRUE(matcher.ExpectSequence(
        request.id, {TraceEventKind::kRequestAdmitted, TraceEventKind::kRouted,
                     TraceEventKind::kEnqueued, TraceEventKind::kCompleted}));
    EXPECT_TRUE(matcher.ExpectCompleted(request.id, StatusCode::kOk));
  }
}

// A worker hands its server's counters to the front end inside the
// completion that can signal drained, so one Stats() right after Drain()
// already counts every step: each non-empty StepOnce adds one to its
// replica's `iterations` and one to the process-wide engine.batch_steps.
TEST_F(ClusterTest, ServerCountersAreFinalWhenDrainReturns) {
  const std::vector<Request> trace = SkewedTrace(6, 0.6, 25.0, 2.0, 23);
  ASSERT_GT(trace.size(), 10u);
  Counter* const steps = MetricsRegistry::Global().counter("engine.batch_steps");
  auto cluster = MakeCluster(2, RoutePolicy::kRoundRobin, trace);
  const int64_t steps_before = steps->value();
  for (const Request& request : trace) {
    ASSERT_TRUE(cluster->Submit(EngineRequestFromTrace(request, config_, SmallMap())));
  }
  EXPECT_EQ(cluster->Drain().size(), trace.size());
  const ClusterStats stats = cluster->Stats();
  const int64_t steps_run = steps->value() - steps_before;

  ASSERT_EQ(stats.replicas.size(), 2u);
  int64_t iterations = 0;
  for (const ReplicaSnapshot& replica : stats.replicas) {
    EXPECT_GT(replica.server.iterations, 0) << "replica " << replica.index;
    iterations += replica.server.iterations;
  }
  EXPECT_EQ(iterations, steps_run);
}

TEST_F(ClusterTest, BackpressureRejectsAtTheConfiguredBound) {
  // The start gate parks every worker before it touches its queue, so the
  // admission outcome depends only on the fixed routing sequence — exact
  // counts, no dependence on how fast workers drain.
  const std::vector<Request> trace = SkewedTrace(6, 0.6, 60.0, 2.0, 19);
  ASSERT_GT(trace.size(), 20u);
  const int64_t capacity = 4;
  TraceSession session;
  FaultInjector fault;
  fault.GateWorkers();
  RecoveryOptions recovery;
  recovery.stall_quarantine_ms = 0.0;  // gated workers are parked, not stalled
  auto cluster = MakeCluster(2, RoutePolicy::kRoundRobin, trace, AdmissionPolicy::kReject,
                             capacity, &fault, recovery);
  int64_t accepted = 0;
  int64_t rejected = 0;
  for (size_t i = 0; i < 20; ++i) {
    if (cluster->Submit(EngineRequestFromTrace(trace[i], config_, SmallMap()))) {
      ++accepted;
    } else {
      ++rejected;
    }
    for (int r = 0; r < cluster->num_replicas(); ++r) {
      EXPECT_LE(cluster->replica(r).Depth(), capacity);
    }
  }
  // Round-robin over two gated depth-4 replicas: exactly the first four
  // requests per replica are admitted, the remaining twelve shed.
  EXPECT_EQ(accepted, 2 * capacity);
  EXPECT_EQ(rejected, 20 - 2 * capacity);
  fault.OpenGate();
  const std::vector<EngineResult> results = cluster->Drain();
  // Everything accepted still completes once the workers run.
  EXPECT_EQ(static_cast<int64_t>(results.size()), accepted);
  const ClusterStats stats = cluster->Stats();
  EXPECT_EQ(stats.completed, accepted);
  EXPECT_EQ(stats.rejected, rejected);
  for (const ReplicaSnapshot& replica : stats.replicas) {
    EXPECT_EQ(replica.peak_depth, capacity);
  }

  cluster.reset();
  session.Stop();
  TraceMatcher matcher(session.Collect());
  // All 20 were admitted, but the bound is visible per replica: exactly
  // `capacity` Enqueued events each, and only the accepted ones completed.
  EXPECT_EQ(matcher.Count(TraceEventKind::kRequestAdmitted), 20);
  EXPECT_EQ(matcher.CountForReplica(TraceEventKind::kEnqueued, 0), capacity);
  EXPECT_EQ(matcher.CountForReplica(TraceEventKind::kEnqueued, 1), capacity);
  EXPECT_EQ(matcher.Count(TraceEventKind::kCompleted), accepted);
}

TEST_F(ClusterTest, ShutdownCancelsQueuedIngressInsteadOfLosingIt) {
  const std::vector<Request> trace = SkewedTrace(6, 0.6, 60.0, 2.0, 37);
  ASSERT_GT(trace.size(), 10u);
  FaultInjector fault;
  fault.GateWorkers();
  RecoveryOptions recovery;
  recovery.stall_quarantine_ms = 0.0;
  auto cluster = MakeCluster(2, RoutePolicy::kRoundRobin, trace, AdmissionPolicy::kBlock,
                             /*capacity=*/8, &fault, recovery);
  const int64_t submitted = 10;
  for (int64_t i = 0; i < submitted; ++i) {
    ASSERT_TRUE(cluster->Submit(
        EngineRequestFromTrace(trace[static_cast<size_t>(i)], config_, SmallMap())));
  }
  // Shut down with the queues still full: the stop opens the gate, and each
  // worker must cancel (not serve, and not silently drop) its queued ingress.
  cluster->Shutdown();
  const std::vector<FailedRequest> failures = cluster->TakeFailures();
  for (const FailedRequest& failure : failures) {
    EXPECT_EQ(failure.status.code(), StatusCode::kCancelled) << failure.status.ToString();
  }
  const std::vector<EngineResult> results = cluster->Drain();
  // Every accepted request is accounted for: completed or cancelled.
  EXPECT_EQ(static_cast<int64_t>(results.size() + failures.size()), submitted);
  const ClusterStats stats = cluster->Stats();
  EXPECT_EQ(stats.cancelled, static_cast<int64_t>(failures.size()));
  EXPECT_EQ(stats.completed, static_cast<int64_t>(results.size()));
  // Replica 0's stop flag is set before the shared gate opens, so its queued
  // half of the trace is guaranteed to take the cancel path.
  EXPECT_GE(failures.size(), 5u);
}

TEST_F(ClusterTest, BlockingAdmissionLosesNothing) {
  const std::vector<Request> trace = SkewedTrace(6, 0.6, 40.0, 1.5, 23);
  auto cluster = MakeCluster(2, RoutePolicy::kLeastLoaded, trace, AdmissionPolicy::kBlock,
                             /*capacity=*/3);
  for (const Request& request : trace) {
    EXPECT_TRUE(cluster->Submit(EngineRequestFromTrace(request, config_, SmallMap())));
  }
  const std::vector<EngineResult> results = cluster->Drain();
  EXPECT_EQ(results.size(), trace.size());
  const ClusterStats stats = cluster->Stats();
  EXPECT_EQ(stats.rejected, 0);
  for (const ReplicaSnapshot& replica : stats.replicas) {
    EXPECT_LE(replica.peak_depth, 3);
  }
}

TEST_F(ClusterTest, AffinityReducesSwapInsVersusRoundRobin) {
  // Skewness 0.6 per the acceptance bar; pool sized so a replica holds only
  // its home set comfortably, which makes off-home routing cost swaps.
  const std::vector<Request> trace = SkewedTrace(6, 0.6, 30.0, 3.0, 29);
  std::map<RoutePolicy, int64_t> swap_ins;
  for (RoutePolicy policy : {RoutePolicy::kRoundRobin, RoutePolicy::kAdapterAffinity}) {
    ClusterOptions options;
    options.num_replicas = 3;
    options.policy = policy;
    options.replica_queue_capacity = 512;  // admission out of the picture
    options.server.max_batch_size = 4;
    Rng probe_rng(11);
    const LoraAdapter probe =
        LoraAdapter::Random("probe", config_.num_layers, config_.d_model, 4, probe_rng);
    // Room for ~3 adapters per replica: the hot adapter plus a couple of
    // cold ones; round-robin churns beyond that.
    options.server.device_pool_bytes = 3 * probe.SizeBytesFp16() + 64;
    ClusterServer cluster(config_, options);
    for (const LoraAdapter& adapter : MakeAdapters(config_, 6, 11)) {
      cluster.AddAdapter(adapter);
    }
    cluster.PlaceAdapters(AdapterShares(trace, 6));
    for (const Request& request : trace) {
      ASSERT_TRUE(cluster.Submit(EngineRequestFromTrace(request, config_, SmallMap())));
    }
    (void)cluster.Drain();
    const ClusterStats stats = cluster.Stats();
    swap_ins[policy] = stats.adapter_swap_ins;
    if (policy == RoutePolicy::kAdapterAffinity) {
      EXPECT_GT(stats.affinity_hits, 0);
    }
  }
  EXPECT_LT(swap_ins[RoutePolicy::kAdapterAffinity], swap_ins[RoutePolicy::kRoundRobin]);
}

}  // namespace
}  // namespace vlora

