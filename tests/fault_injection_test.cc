// Deterministic fault-injection scenarios for the cluster recovery layer.
//
// Every scenario scripts a FaultInjector with a fixed seed and asserts exact
// outcomes — which requests complete, how many retries fire, what the event
// log contains — then re-runs the scenario and requires the same answers.
// Scripted faults trigger on completed-request counts and request failures on
// a hash of (seed, replica, id), so none of this depends on thread timing.
// The whole file also runs under TSan and ASan via scripts/verify.sh.

#include <gtest/gtest.h>

#include <algorithm>
#include <fstream>
#include <map>
#include <set>
#include <sstream>
#include <vector>

#include "src/cluster/cluster_server.h"
#include "src/common/fault.h"
#include "src/common/trace.h"
#include "src/workload/trace_gen.h"
#include "tests/trace_matcher.h"

namespace vlora {
namespace {

using trace::TraceEvent;
using trace::TraceEventKind;
using trace::TraceMatcher;
using trace::TraceSession;

std::vector<LoraAdapter> MakeAdapters(const ModelConfig& config, int count, uint64_t seed) {
  Rng rng(seed);
  std::vector<LoraAdapter> adapters;
  for (int i = 0; i < count; ++i) {
    adapters.push_back(LoraAdapter::Random("fault-" + std::to_string(i), config.num_layers,
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

std::unique_ptr<ClusterServer> MakeCluster(const ModelConfig& config, int replicas,
                                           const std::vector<Request>& trace,
                                           FaultInjector* fault, RecoveryOptions recovery,
                                           int64_t capacity = 64) {
  ClusterOptions options;
  options.num_replicas = replicas;
  options.policy = RoutePolicy::kRoundRobin;  // fixed routing sequence
  options.admission = AdmissionPolicy::kBlock;
  options.replica_queue_capacity = capacity;
  options.server.max_batch_size = 4;
  options.fault = fault;
  options.recovery = recovery;
  auto cluster = std::make_unique<ClusterServer>(config, options);
  for (const LoraAdapter& adapter : MakeAdapters(config, 6, 11)) {
    cluster->AddAdapter(adapter);
  }
  cluster->PlaceAdapters(AdapterShares(trace, 6));
  return cluster;
}

// --- FaultInjector unit behaviour -------------------------------------------

TEST(FaultInjectorTest, ScriptedKillFiresOnceAtThreshold) {
  FaultInjector injector(7);
  injector.KillReplicaAfter(/*replica=*/1, /*completed=*/2);
  EXPECT_FALSE(injector.OnWorkerIteration(1, 0).kill);
  EXPECT_FALSE(injector.OnWorkerIteration(1, 1).kill);
  EXPECT_FALSE(injector.OnWorkerIteration(0, 5).kill);  // other replica untouched
  EXPECT_TRUE(injector.OnWorkerIteration(1, 2).kill);
  EXPECT_FALSE(injector.OnWorkerIteration(1, 5).kill);  // fires exactly once

  const std::vector<FaultEvent> events = injector.Events();
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].kind, FaultKind::kKillReplica);
  EXPECT_EQ(events[0].replica, 1);
  EXPECT_EQ(events[0].sequence, 0);
}

TEST(FaultInjectorTest, RequestFailureDecisionsDependOnlyOnSeedReplicaAndId) {
  FaultInjector a(0xfeedu);
  FaultInjector b(0xfeedu);
  a.FailRequests(0.5);
  b.FailRequests(0.5);
  int failed = 0;
  for (int replica = 0; replica < 4; ++replica) {
    // Query b in reverse to prove call order does not matter.
    for (int64_t id = 99; id >= 0; --id) {
      const bool decision = a.ShouldFailRequest(replica, id);
      failed += decision ? 1 : 0;
      EXPECT_EQ(decision, b.ShouldFailRequest(replica, id))
          << "replica " << replica << " id " << id;
    }
  }
  // The hash actually spreads: roughly half of 400 draws fail.
  EXPECT_GT(failed, 100);
  EXPECT_LT(failed, 300);

  FaultInjector other_seed(0xbeefu);
  other_seed.FailRequests(0.5);
  int disagreements = 0;
  for (int64_t id = 0; id < 100; ++id) {
    disagreements += other_seed.ShouldFailRequest(0, id) != a.ShouldFailRequest(0, id) ? 1 : 0;
  }
  EXPECT_GT(disagreements, 0);
}

// --- Scenario 1: kill one of four, everything completes via retry -----------

struct KillRunOutcome {
  std::set<int64_t> completed_ids;
  std::vector<FaultEvent> events;
  std::vector<TraceEvent> trace_events;
  int64_t retries = 0;
  int64_t replica_deaths = 0;
  size_t failures = 0;
};

KillRunOutcome RunKillOneOfFour(const ModelConfig& config, const std::vector<Request>& trace) {
  TraceSession session;
  FaultInjector fault(0x5eedu);
  fault.GateWorkers();                    // queues fill before any processing
  fault.KillReplicaAfter(/*replica=*/2, /*completed=*/0);
  RecoveryOptions recovery;
  recovery.stall_quarantine_ms = 0.0;     // gated workers are parked, not stalled
  recovery.backoff_base_ms = 1.0;
  recovery.health_period_ms = 2.0;
  auto cluster = MakeCluster(config, /*replicas=*/4, trace, &fault, recovery);
  for (size_t i = 0; i < 40; ++i) {
    EXPECT_TRUE(cluster->Submit(EngineRequestFromTrace(trace[i], config, SmallMap())));
  }
  fault.OpenGate();  // replica 2 dies holding its 10 queued requests
  const std::vector<EngineResult> results = cluster->Drain();
  const ClusterStats stats = cluster->Stats();

  KillRunOutcome outcome;
  for (const EngineResult& result : results) {
    outcome.completed_ids.insert(result.request_id);
  }
  outcome.events = fault.Events();
  outcome.retries = stats.retries;
  outcome.replica_deaths = stats.replica_deaths;
  outcome.failures = cluster->TakeFailures().size();
  EXPECT_EQ(results.size(), 40u);
  EXPECT_EQ(stats.completed, 40);
  cluster.reset();  // join supervisor + workers, then collect quiescent buffers
  session.Stop();
  outcome.trace_events = session.Collect();
  EXPECT_EQ(session.dropped_events(), 0);
  return outcome;
}

TEST(FaultInjectionTest, KillOneOfFourCompletesAllRequestsDeterministically) {
  const ModelConfig config = TinyConfig();
  const std::vector<Request> trace = SmallTrace(6, 40.0, 2.0, 41);
  ASSERT_GE(trace.size(), 40u);

  const KillRunOutcome first = RunKillOneOfFour(config, trace);
  // Round-robin put exactly 10 of the 40 gated requests on replica 2; its
  // death fails them over and every one is retried onto a survivor.
  EXPECT_EQ(first.completed_ids.size(), 40u);
  EXPECT_EQ(first.retries, 10);
  EXPECT_EQ(first.replica_deaths, 1);
  EXPECT_EQ(first.failures, 0u);  // nothing lost, nothing given up on
  ASSERT_EQ(first.events.size(), 1u);
  EXPECT_EQ(first.events[0].kind, FaultKind::kKillReplica);
  EXPECT_EQ(first.events[0].replica, 2);

  // The trace tells the same story, without scraping stats: exactly one Retry
  // per orphaned request, each of which then completed kOk on a survivor, and
  // nothing was routed to the dead replica after its first fail-over.
  TraceMatcher matcher(first.trace_events);
  EXPECT_EQ(matcher.Count(TraceEventKind::kRetry), 10);
  EXPECT_EQ(matcher.CountForReplica(TraceEventKind::kEnqueued, 2), 10);
  const double first_retry_ms = matcher.FirstTime({TraceEventKind::kRetry});
  ASSERT_GE(first_retry_ms, 0.0);
  EXPECT_EQ(matcher.CountAfter({TraceEventKind::kEnqueued, 2}, first_retry_ms), 0);
  std::set<int64_t> retried_ids;
  for (const TraceEvent& event : matcher.events()) {
    if (event.kind == TraceEventKind::kRetry) {
      retried_ids.insert(event.request_id);
    }
  }
  EXPECT_EQ(retried_ids.size(), 10u);
  for (int64_t id : retried_ids) {
    EXPECT_TRUE(matcher.ExpectSequence(
        id, {TraceEventKind::kRequestAdmitted, TraceEventKind::kRouted, TraceEventKind::kEnqueued,
             TraceEventKind::kRetry, TraceEventKind::kEnqueued, TraceEventKind::kCompleted}));
    EXPECT_TRUE(matcher.ExpectCompleted(id, StatusCode::kOk));
    // The retry's second Enqueued landed on a survivor, not on replica 2.
    EXPECT_EQ(matcher.CountAfter({TraceEventKind::kEnqueued, 2, id},
                                 matcher.FirstTime({TraceEventKind::kRetry, -1, id})),
              0);
  }

  // Same script, same seed: identical completions and identical event log.
  const KillRunOutcome second = RunKillOneOfFour(config, trace);
  EXPECT_EQ(second.completed_ids, first.completed_ids);
  EXPECT_EQ(second.events, first.events);
  EXPECT_EQ(second.retries, first.retries);
  EXPECT_EQ(second.replica_deaths, first.replica_deaths);
  EXPECT_EQ(TraceMatcher(second.trace_events).Count(TraceEventKind::kRetry), 10);
}

// --- Scenario 1b: full recovery ordering, asserted from the trace alone -----
//
// One replica dies mid-service, another is quarantined for a stall and later
// readmitted. The exported Chrome trace must contain the killed replica's
// batch steps, the supervisor's Quarantine/Readmit, every Retry, and each
// re-routed request's kOk completion — correctly ordered — and load cleanly.
TEST(FaultInjectionTest, KillRecoveryOrderingIsFullyTraced) {
  const ModelConfig config = TinyConfig();
  const std::vector<Request> trace = SmallTrace(6, 40.0, 2.0, 41);
  ASSERT_GE(trace.size(), 30u);

  TraceSession session;
  FaultInjector fault(0x5eedu);
  fault.GateWorkers();
  // Replica 2 serves a couple of batches and then dies holding the rest of
  // its queue; replica 1 stalls before ingesting anything and is quarantined.
  fault.KillReplicaAfter(/*replica=*/2, /*completed=*/2);
  fault.StallReplicaAfter(/*replica=*/1, /*completed=*/0, /*stall_ms=*/2000.0);
  RecoveryOptions recovery;
  recovery.stall_quarantine_ms = 1000.0;
  recovery.health_period_ms = 10.0;
  recovery.max_attempts = 8;
  recovery.backoff_base_ms = 1.0;
  auto cluster = MakeCluster(config, /*replicas=*/3, trace, &fault, recovery);
  for (size_t i = 0; i < 30; ++i) {
    EXPECT_TRUE(cluster->Submit(EngineRequestFromTrace(trace[i], config, SmallMap())));
  }
  fault.OpenGate();
  const std::vector<EngineResult> results = cluster->Drain();
  EXPECT_EQ(results.size(), 30u);
  EXPECT_TRUE(cluster->TakeFailures().empty());
  // The stall ends and the health checker readmits replica 1.
  ASSERT_TRUE(cluster->WaitForReadmissions(/*count=*/1, /*timeout_ms=*/10'000.0));
  cluster.reset();
  session.Stop();
  const std::vector<TraceEvent> events = session.Collect();
  EXPECT_EQ(session.dropped_events(), 0);

  TraceMatcher matcher(events);
  // The killed replica really served batches before dying, and its last
  // BatchStepEnd precedes the first fail-over Retry.
  EXPECT_GT(matcher.CountForReplica(TraceEventKind::kBatchStepEnd, 2), 0);
  const double last_step_end_ms = matcher.LastTime({TraceEventKind::kBatchStepEnd, 2});
  const double first_retry_ms = matcher.FirstTime({TraceEventKind::kRetry});
  ASSERT_GE(first_retry_ms, 0.0);
  EXPECT_LT(last_step_end_ms, first_retry_ms);
  // Every Retry belongs to a request that then completed kOk on a survivor,
  // with the Retry preceding the terminal event and no post-death routing to
  // the dead replica.
  std::set<int64_t> retried_ids;
  for (const TraceEvent& event : events) {
    if (event.kind == TraceEventKind::kRetry) {
      retried_ids.insert(event.request_id);
    }
  }
  EXPECT_FALSE(retried_ids.empty());
  for (int64_t id : retried_ids) {
    EXPECT_TRUE(matcher.ExpectCompleted(id, StatusCode::kOk));
    EXPECT_LT(matcher.FirstTime({TraceEventKind::kRetry, -1, id}),
              matcher.LastTime({TraceEventKind::kCompleted, -1, id}));
    EXPECT_EQ(matcher.CountAfter({TraceEventKind::kEnqueued, 2, id},
                                 matcher.FirstTime({TraceEventKind::kRetry, -1, id})),
              0);
  }
  EXPECT_EQ(matcher.CountAfter({TraceEventKind::kEnqueued, 2}, first_retry_ms), 0);
  // The stalled replica was quarantined and only later readmitted; while
  // quarantined nothing was enqueued on it.
  EXPECT_TRUE(matcher.ExpectAllBefore({TraceEventKind::kQuarantine, 1},
                                      {TraceEventKind::kReadmit, 1}));
  EXPECT_EQ(
      matcher.CountAfter({TraceEventKind::kEnqueued, 1},
                         matcher.FirstTime({TraceEventKind::kQuarantine, 1})),
      0);
  // All 30 requests reached exactly one kOk terminal event.
  for (size_t i = 0; i < 30; ++i) {
    EXPECT_TRUE(matcher.ExpectCompleted(trace[i].id, StatusCode::kOk));
  }

  // The same stream exports to Chrome-loadable JSON.
  const std::string path = "fault_recovery.trace.json";
  ASSERT_TRUE(trace::WriteChromeTraceFile(events, path));
  std::ifstream stream(path);
  ASSERT_TRUE(stream.good());
  std::ostringstream buffer;
  buffer << stream.rdbuf();
  int64_t exported = 0;
  EXPECT_TRUE(trace::ValidateChromeTraceJson(buffer.str(), &exported));
  EXPECT_GE(exported, static_cast<int64_t>(events.size()));
}

// --- Scenario 2: stalled replica quarantined, then readmitted ---------------

TEST(FaultInjectionTest, StalledReplicaIsQuarantinedAndReadmitted) {
  const ModelConfig config = TinyConfig();
  const std::vector<Request> trace = SmallTrace(6, 40.0, 2.0, 43);
  ASSERT_GE(trace.size(), 30u);

  TraceSession session;
  FaultInjector fault(0x5eedu);
  fault.GateWorkers();
  // Replica 1 sleeps 2 s before ingesting anything: its 15 queued requests
  // sit in ingress where the health checker can reclaim them.
  fault.StallReplicaAfter(/*replica=*/1, /*completed=*/0, /*stall_ms=*/2000.0);
  RecoveryOptions recovery;
  // Half the injected stall, so the gated queue is reclaimed early — but
  // wide enough that a healthy worker descheduled for hundreds of ms on a
  // loaded machine is not spuriously quarantined as well.
  recovery.stall_quarantine_ms = 1000.0;
  recovery.health_period_ms = 10.0;
  // A starved (not stalled) worker can still trip the quarantine on a
  // saturated box, leaving no healthy reroute target for a moment. A real
  // retry budget lets the stolen requests wait out the readmission instead
  // of failing within milliseconds.
  recovery.max_attempts = 8;
  recovery.backoff_base_ms = 50.0;
  auto cluster = MakeCluster(config, /*replicas=*/2, trace, &fault, recovery);
  for (size_t i = 0; i < 30; ++i) {
    EXPECT_TRUE(cluster->Submit(EngineRequestFromTrace(trace[i], config, SmallMap())));
  }
  fault.OpenGate();
  const std::vector<EngineResult> results = cluster->Drain();
  EXPECT_EQ(results.size(), 30u);  // the survivor absorbed the stolen queue
  EXPECT_TRUE(cluster->TakeFailures().empty());

  ClusterStats stats = cluster->Stats();
  EXPECT_GE(stats.quarantines, 1);
  // At least replica 1's entire gated queue was stolen; a starved-but-healthy
  // replica 0 may be transiently quarantined too on a loaded machine, adding
  // legitimate extra reroutes.
  EXPECT_GE(stats.rerouted, 15);
  EXPECT_EQ(stats.replica_deaths, 0);

  // Once the stall ends the worker's heartbeat moves again and the health
  // checker readmits the replica (eventually: supervisor ticks every 10 ms).
  ASSERT_TRUE(cluster->WaitForReadmissions(/*count=*/1, /*timeout_ms=*/10'000.0));
  stats = cluster->Stats();
  ASSERT_GE(stats.readmissions, 1);

  const std::vector<FaultEvent> fault_events = fault.Events();
  ASSERT_EQ(fault_events.size(), 1u);
  EXPECT_EQ(fault_events[0].kind, FaultKind::kStallReplica);
  EXPECT_EQ(fault_events[0].replica, 1);
  EXPECT_EQ(fault_events[0].stall_ms, 2000.0);

  // Quarantine-then-readmit ordering and the no-traffic-while-quarantined
  // guarantee come straight from the trace — no probe traffic, no retry
  // rounds, no timing margins beyond the injected stall itself.
  cluster.reset();
  session.Stop();
  TraceMatcher matcher(session.Collect());
  EXPECT_EQ(session.dropped_events(), 0);
  EXPECT_GE(matcher.CountForReplica(TraceEventKind::kQuarantine, 1), 1);
  EXPECT_TRUE(matcher.ExpectAllBefore({TraceEventKind::kQuarantine, 1},
                                      {TraceEventKind::kReadmit, 1}));
  // Everything on replica 1 was enqueued before the quarantine; nothing was
  // routed to it while it was out of rotation.
  EXPECT_EQ(
      matcher.CountAfter({TraceEventKind::kEnqueued, 1},
                         matcher.FirstTime({TraceEventKind::kQuarantine, 1})),
      0);
  // Every submitted request reached exactly one kOk terminal event even
  // though half of them were stolen from the stalled replica.
  for (size_t i = 0; i < 30; ++i) {
    EXPECT_TRUE(matcher.ExpectCompleted(trace[i].id, StatusCode::kOk));
  }
}

// --- Scenario 3: retry count respects max_attempts --------------------------

struct RetryRunOutcome {
  std::map<int64_t, int> attempts_by_id;
  std::vector<StatusCode> codes;
  int64_t retries = 0;
  int64_t injected_failures = 0;
  size_t results = 0;
};

RetryRunOutcome RunAlwaysFail(const ModelConfig& config, const std::vector<Request>& trace) {
  FaultInjector fault(0x5eedu);
  fault.FailRequests(1.0);  // every submit attempt fails on every replica
  RecoveryOptions recovery;
  recovery.max_attempts = 3;
  recovery.backoff_base_ms = 1.0;
  recovery.health_period_ms = 2.0;
  recovery.stall_quarantine_ms = 0.0;
  auto cluster = MakeCluster(config, /*replicas=*/1, trace, &fault, recovery);
  for (size_t i = 0; i < 6; ++i) {
    EXPECT_TRUE(cluster->Submit(EngineRequestFromTrace(trace[i], config, SmallMap())));
  }
  RetryRunOutcome outcome;
  outcome.results = cluster->Drain().size();
  for (const FailedRequest& failure : cluster->TakeFailures()) {
    outcome.attempts_by_id[failure.request_id] = failure.attempts;
    outcome.codes.push_back(failure.status.code());
  }
  outcome.retries = cluster->Stats().retries;
  outcome.injected_failures = fault.injected_request_failures();
  return outcome;
}

TEST(FaultInjectionTest, RetryCountIsBoundedByMaxAttempts) {
  const ModelConfig config = TinyConfig();
  const std::vector<Request> trace = SmallTrace(6, 40.0, 1.0, 47);
  ASSERT_GE(trace.size(), 6u);

  const RetryRunOutcome first = RunAlwaysFail(config, trace);
  EXPECT_EQ(first.results, 0u);  // nothing can complete
  ASSERT_EQ(first.attempts_by_id.size(), 6u);
  for (const auto& [id, attempts] : first.attempts_by_id) {
    EXPECT_EQ(attempts, 3) << "request " << id;  // exactly max_attempts, never more
  }
  for (StatusCode code : first.codes) {
    EXPECT_EQ(code, StatusCode::kInternal);
  }
  // 6 first attempts + 2 retries each; every attempt hit the injector.
  EXPECT_EQ(first.retries, 12);
  EXPECT_EQ(first.injected_failures, 18);

  const RetryRunOutcome second = RunAlwaysFail(config, trace);
  EXPECT_EQ(second.attempts_by_id, first.attempts_by_id);
  EXPECT_EQ(second.retries, first.retries);
  EXPECT_EQ(second.injected_failures, first.injected_failures);
}

// --- Scenario 4: deadlines cut recovery short -------------------------------

TEST(FaultInjectionTest, DeadlineBoundsRecoveryBeforeRetriesBurnAttempts) {
  const ModelConfig config = TinyConfig();
  const std::vector<Request> trace = SmallTrace(6, 40.0, 1.0, 53);
  ASSERT_GE(trace.size(), 4u);

  FaultInjector fault(0x5eedu);
  fault.FailRequests(1.0);
  RecoveryOptions recovery;
  recovery.max_attempts = 5;
  recovery.backoff_base_ms = 50.0;       // first retry would fire at +50 ms...
  recovery.request_deadline_ms = 5.0;    // ...long past the budget
  recovery.health_period_ms = 5.0;
  recovery.stall_quarantine_ms = 0.0;
  auto cluster = MakeCluster(config, /*replicas=*/1, trace, &fault, recovery);
  for (size_t i = 0; i < 4; ++i) {
    EXPECT_TRUE(cluster->Submit(EngineRequestFromTrace(trace[i], config, SmallMap())));
  }
  EXPECT_TRUE(cluster->Drain().empty());

  const std::vector<FailedRequest> failures = cluster->TakeFailures();
  ASSERT_EQ(failures.size(), 4u);
  for (const FailedRequest& failure : failures) {
    EXPECT_EQ(failure.status.code(), StatusCode::kDeadlineExceeded)
        << failure.status.ToString();
    // The deadline scan runs before retry dispatch, so an expired request is
    // failed on its first attempt instead of burning more.
    EXPECT_EQ(failure.attempts, 1);
  }
  const ClusterStats stats = cluster->Stats();
  EXPECT_EQ(stats.deadline_failures, 4);
  EXPECT_EQ(stats.failed, 4);
  EXPECT_EQ(stats.retries, 0);
}

// --- Scenario 4b: a retried request's latency includes its backoff ----------

// ClusterStats::latency runs from Submit to the completion the caller sees,
// so a request that completes only on a retry carries the backoff it waited
// out in its one sample.
TEST(FaultInjectionTest, RetriedRequestLatencyIncludesTheBackoff) {
  const ModelConfig config = TinyConfig();
  const std::vector<Request> trace = SmallTrace(6, 40.0, 1.0, 59);
  ASSERT_GE(trace.size(), 20u);

  FaultInjector fault(0x5eedu);
  fault.FailRequests(0.25);
  RecoveryOptions recovery;
  recovery.max_attempts = 4;
  recovery.backoff_base_ms = 60.0;
  recovery.stall_quarantine_ms = 0.0;
  auto cluster = MakeCluster(config, /*replicas=*/2, trace, &fault, recovery);
  for (size_t i = 0; i < 20; ++i) {
    EXPECT_TRUE(cluster->Submit(EngineRequestFromTrace(trace[i], config, SmallMap())));
  }
  const std::vector<EngineResult> results = cluster->Drain();
  const ClusterStats stats = cluster->Stats();

  // Precondition: some request failed an attempt and still completed.
  std::set<int64_t> failed_once;
  for (const FaultEvent& event : fault.Events()) {
    if (event.kind == FaultKind::kFailRequest) {
      failed_once.insert(event.request_id);
    }
  }
  ASSERT_TRUE(std::any_of(results.begin(), results.end(), [&](const EngineResult& result) {
    return failed_once.count(result.request_id) > 0;
  }));
  EXPECT_GT(stats.retries, 0);
  EXPECT_EQ(stats.latency.count(), stats.completed);
  EXPECT_GE(stats.latency.Max(), recovery.backoff_base_ms);
}

// --- Scenario 5: disaggregated pools under faults ----------------------------
//
// The two-stage lifecycle must survive losing either pool's replica: a dead
// prefill replica re-runs the lost prefills on its pool sibling, a dead
// decode replica has the already-computed KvHandle re-routed (prefill is NOT
// recomputed), and a stalled prefill pool of one waits out its own
// readmission. Each scenario is seeded and must repeat identically.

std::unique_ptr<ClusterServer> MakeDisaggCluster(const ModelConfig& config, int replicas,
                                                 int num_prefill,
                                                 const std::vector<Request>& trace,
                                                 FaultInjector* fault,
                                                 RecoveryOptions recovery) {
  ClusterOptions options;
  options.num_replicas = replicas;
  options.policy = RoutePolicy::kRoundRobin;  // fixed routing sequence
  options.admission = AdmissionPolicy::kBlock;
  options.replica_queue_capacity = 64;
  options.server.max_batch_size = 4;
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

struct DisaggFaultOutcome {
  std::set<int64_t> completed_ids;
  std::vector<FaultEvent> events;
  std::vector<TraceEvent> trace_events;
  size_t failures = 0;
  int64_t replica_deaths = 0;
  int64_t handoffs = 0;
  int64_t handles_released = 0;
};

DisaggFaultOutcome RunDisaggKillPrefill(const ModelConfig& config,
                                        const std::vector<Request>& trace) {
  TraceSession session;
  FaultInjector fault(0x5eedu);
  fault.GateWorkers();
  // Prefill pool {0, 1}: replica 0 hands off its first batch, then dies
  // holding the rest of its queue mid-stream.
  fault.KillReplicaAfter(/*replica=*/0, /*completed=*/2);
  RecoveryOptions recovery;
  recovery.stall_quarantine_ms = 0.0;
  recovery.backoff_base_ms = 1.0;
  recovery.health_period_ms = 2.0;
  recovery.max_attempts = 8;
  auto cluster =
      MakeDisaggCluster(config, /*replicas=*/4, /*num_prefill=*/2, trace, &fault, recovery);
  for (size_t i = 0; i < 24; ++i) {
    EXPECT_TRUE(cluster->Submit(EngineRequestFromTrace(trace[i], config, SmallMap())));
  }
  fault.OpenGate();
  const std::vector<EngineResult> results = cluster->Drain();
  // Drain races the health tick that *records* the death: wait for the
  // conviction before reading stats (see WaitForReplicaDeaths contract).
  EXPECT_TRUE(cluster->WaitForReplicaDeaths(/*count=*/1, /*timeout_ms=*/10'000.0));
  const ClusterStats stats = cluster->Stats();

  DisaggFaultOutcome outcome;
  for (const EngineResult& result : results) {
    outcome.completed_ids.insert(result.request_id);
  }
  outcome.events = fault.Events();
  outcome.failures = cluster->TakeFailures().size();
  outcome.replica_deaths = stats.replica_deaths;
  outcome.handoffs = stats.handoffs;
  outcome.handles_released = stats.handles_released;
  EXPECT_EQ(results.size(), 24u);
  cluster.reset();
  session.Stop();
  outcome.trace_events = session.Collect();
  EXPECT_EQ(session.dropped_events(), 0);
  return outcome;
}

TEST(FaultInjectionTest, DisaggKilledPrefillReplicaRerunsLostPrefillsOnPoolSibling) {
  const ModelConfig config = TinyConfig();
  const std::vector<Request> trace = SmallTrace(6, 40.0, 2.0, 59);
  ASSERT_GE(trace.size(), 24u);

  const DisaggFaultOutcome first = RunDisaggKillPrefill(config, trace);
  EXPECT_EQ(first.completed_ids.size(), 24u);
  EXPECT_EQ(first.failures, 0u);
  EXPECT_EQ(first.replica_deaths, 1);
  EXPECT_EQ(first.handles_released, first.handoffs);
  ASSERT_EQ(first.events.size(), 1u);
  EXPECT_EQ(first.events[0].kind, FaultKind::kKillReplica);
  EXPECT_EQ(first.events[0].replica, 0);

  TraceMatcher matcher(first.trace_events);
  // The victim handed off work before dying, and after its death conviction
  // (first fail-over retry) it never accepted another request.
  EXPECT_GT(matcher.CountForReplica(TraceEventKind::kKvHandoff, 0), 0);
  const double first_retry_ms = matcher.FirstTime({TraceEventKind::kRetry});
  ASSERT_GE(first_retry_ms, 0.0);
  EXPECT_EQ(matcher.CountAfter({TraceEventKind::kEnqueued, 0}, first_retry_ms), 0);
  // Every request the death orphaned re-ran its prefill exactly once — on the
  // surviving pool sibling — and then completed through the normal handoff
  // lifecycle (or at prefill, for single-step requests).
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
    EXPECT_TRUE(matcher.ExpectSequence(id, {TraceEventKind::kRetry, TraceEventKind::kEnqueued,
                                            TraceEventKind::kPrefillDone,
                                            TraceEventKind::kCompleted}));
  }
  for (size_t i = 0; i < 24; ++i) {
    EXPECT_TRUE(matcher.ExpectCompleted(trace[i].id, StatusCode::kOk));
  }

  // Same script, same seed: identical completions and fault log.
  const DisaggFaultOutcome second = RunDisaggKillPrefill(config, trace);
  EXPECT_EQ(second.completed_ids, first.completed_ids);
  EXPECT_EQ(second.events, first.events);
  EXPECT_EQ(second.failures, first.failures);
  EXPECT_EQ(second.replica_deaths, first.replica_deaths);
  EXPECT_EQ(second.handles_released, second.handoffs);
}

DisaggFaultOutcome RunDisaggKillDecode(const ModelConfig& config,
                                       const std::vector<Request>& trace) {
  TraceSession session;
  FaultInjector fault(0x5eedu);
  fault.GateWorkers();
  // Decode pool {1, 2}: replica 2 dies at its very first iteration, before
  // stepping any resumed sequence — every handle routed toward it must be
  // re-routed, not recomputed.
  fault.KillReplicaAfter(/*replica=*/2, /*completed=*/0);
  RecoveryOptions recovery;
  recovery.stall_quarantine_ms = 0.0;
  recovery.backoff_base_ms = 1.0;
  recovery.health_period_ms = 2.0;
  recovery.max_attempts = 8;
  auto cluster =
      MakeDisaggCluster(config, /*replicas=*/3, /*num_prefill=*/1, trace, &fault, recovery);
  for (size_t i = 0; i < 20; ++i) {
    EXPECT_TRUE(cluster->Submit(EngineRequestFromTrace(trace[i], config, SmallMap())));
  }
  fault.OpenGate();
  const std::vector<EngineResult> results = cluster->Drain();
  // The whole run can drain through the survivor before the victim's worker
  // thread is ever scheduled (one-CPU hosts): wait for the health tick to
  // record the death instead of racing Drain against it.
  EXPECT_TRUE(cluster->WaitForReplicaDeaths(/*count=*/1, /*timeout_ms=*/10'000.0));
  const ClusterStats stats = cluster->Stats();

  DisaggFaultOutcome outcome;
  for (const EngineResult& result : results) {
    outcome.completed_ids.insert(result.request_id);
  }
  outcome.events = fault.Events();
  outcome.failures = cluster->TakeFailures().size();
  outcome.replica_deaths = stats.replica_deaths;
  outcome.handoffs = stats.handoffs;
  outcome.handles_released = stats.handles_released;
  EXPECT_EQ(results.size(), 20u);
  cluster.reset();
  session.Stop();
  outcome.trace_events = session.Collect();
  EXPECT_EQ(session.dropped_events(), 0);
  return outcome;
}

TEST(FaultInjectionTest, DisaggKilledDecodeReplicaReroutesHandlesWithoutReprefill) {
  const ModelConfig config = TinyConfig();
  const std::vector<Request> trace = SmallTrace(6, 40.0, 2.0, 83);
  ASSERT_GE(trace.size(), 20u);

  const DisaggFaultOutcome first = RunDisaggKillDecode(config, trace);
  EXPECT_EQ(first.completed_ids.size(), 20u);
  EXPECT_EQ(first.failures, 0u);
  EXPECT_EQ(first.replica_deaths, 1);
  EXPECT_GT(first.handoffs, 0);
  EXPECT_EQ(first.handles_released, first.handoffs);

  TraceMatcher matcher(first.trace_events);
  // The victim died before its first step: it never retired a batch. A
  // handoff can still race into its queue before its worker thread runs the
  // kill check; any such request is failed over, and once the death is
  // convicted (the first kRetry) the victim's queue accepts nothing more.
  EXPECT_EQ(matcher.CountForReplica(TraceEventKind::kBatchStepEnd, 2), 0);
  if (matcher.CountForReplica(TraceEventKind::kDecodeEnqueued, 2) > 0) {
    const double first_retry_ms = matcher.FirstTime({TraceEventKind::kRetry});
    ASSERT_GE(first_retry_ms, 0.0);
    EXPECT_EQ(matcher.CountAfter({TraceEventKind::kDecodeEnqueued, 2}, first_retry_ms), 0);
    EXPECT_EQ(matcher.CountAfter({TraceEventKind::kEnqueued, 2}, first_retry_ms), 0);
  }
  // Every handed-off request decoded on the survivor with exactly one
  // prefill and one handoff — the handle moved, the prompt was not re-run.
  std::set<int64_t> handed_off;
  for (const TraceEvent& event : matcher.events()) {
    if (event.kind == TraceEventKind::kKvHandoff) {
      handed_off.insert(event.request_id);
    }
  }
  EXPECT_FALSE(handed_off.empty());
  for (int64_t id : handed_off) {
    EXPECT_TRUE(matcher.ExpectCompleted(id, StatusCode::kOk));
    EXPECT_EQ(matcher.CountForRequest(TraceEventKind::kPrefillDone, id), 1);
    EXPECT_EQ(matcher.CountForRequest(TraceEventKind::kKvHandoff, id), 1);
    EXPECT_EQ(matcher.CountMatching({TraceEventKind::kDecodeEnqueued, 1, id}), 1);
  }
  for (size_t i = 0; i < 20; ++i) {
    EXPECT_TRUE(matcher.ExpectCompleted(trace[i].id, StatusCode::kOk));
  }

  const DisaggFaultOutcome second = RunDisaggKillDecode(config, trace);
  EXPECT_EQ(second.completed_ids, first.completed_ids);
  EXPECT_EQ(second.events, first.events);
  EXPECT_EQ(second.failures, first.failures);
  EXPECT_EQ(second.replica_deaths, first.replica_deaths);
  EXPECT_EQ(second.handoffs, first.handoffs);
  EXPECT_EQ(second.handles_released, second.handoffs);
}

TEST(FaultInjectionTest, DisaggStalledPrefillPoolRecoversThroughReadmission) {
  const ModelConfig config = TinyConfig();
  const std::vector<Request> trace = SmallTrace(6, 40.0, 2.0, 89);
  ASSERT_GE(trace.size(), 12u);

  TraceSession session;
  FaultInjector fault(0x5eedu);
  fault.GateWorkers();
  // The ONLY prefill replica stalls before ingesting anything. The health
  // checker steals its queue, but re-dispatch finds no live prefill member:
  // the retry budget has to outlast the stall until readmission.
  fault.StallReplicaAfter(/*replica=*/0, /*completed=*/0, /*stall_ms=*/2000.0);
  RecoveryOptions recovery;
  recovery.stall_quarantine_ms = 1000.0;
  recovery.health_period_ms = 10.0;
  // 12 attempts at exponential backoff give a ~100s retry window: the budget
  // must outlast not just the 2s stall but the sanitizer-stretched readmission
  // path (TSan runs this at ~10x), and every request burns attempts while the
  // pool is empty. Readmission lands near attempt 6 in normal builds.
  recovery.max_attempts = 12;
  recovery.backoff_base_ms = 50.0;
  auto cluster =
      MakeDisaggCluster(config, /*replicas=*/2, /*num_prefill=*/1, trace, &fault, recovery);
  for (size_t i = 0; i < 12; ++i) {
    EXPECT_TRUE(cluster->Submit(EngineRequestFromTrace(trace[i], config, SmallMap())));
  }
  fault.OpenGate();
  const std::vector<EngineResult> results = cluster->Drain();
  EXPECT_EQ(results.size(), 12u);
  EXPECT_TRUE(cluster->TakeFailures().empty());
  ASSERT_TRUE(cluster->WaitForReadmissions(/*count=*/1, /*timeout_ms=*/10'000.0));

  const ClusterStats stats = cluster->Stats();
  EXPECT_GE(stats.quarantines, 1);
  EXPECT_GE(stats.readmissions, 1);
  EXPECT_EQ(stats.replica_deaths, 0);
  EXPECT_EQ(stats.handles_released, stats.handoffs);

  cluster.reset();
  session.Stop();
  TraceMatcher matcher(session.Collect());
  EXPECT_EQ(session.dropped_events(), 0);
  EXPECT_GE(matcher.CountForReplica(TraceEventKind::kQuarantine, 0), 1);
  EXPECT_TRUE(matcher.ExpectAllBefore({TraceEventKind::kQuarantine, 0},
                                      {TraceEventKind::kReadmit, 0}));
  // Every request still ran the full two-stage lifecycle once the pool came
  // back: exactly one prefill each, and each handoff decoded on replica 1.
  for (size_t i = 0; i < 12; ++i) {
    EXPECT_TRUE(matcher.ExpectCompleted(trace[i].id, StatusCode::kOk));
    EXPECT_EQ(matcher.CountForRequest(TraceEventKind::kPrefillDone, trace[i].id), 1);
  }
}

}  // namespace
}  // namespace vlora
