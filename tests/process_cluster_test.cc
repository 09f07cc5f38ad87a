// End-to-end tests for the multi-process cluster: a master driving forked
// vlora_executor processes over the wire protocol (ISSUE 6 acceptance).
//
// The headline scenario SIGKILLs a live executor mid-run — a real process
// death, not a simulated flag — and requires the unchanged quarantine ->
// retry -> rebalance path to complete 100% of the submitted requests, with
// the ordering asserted from the trace: the victim is quarantined before any
// fail-over retry, and nothing is enqueued to it after the quarantine.
// A parity scenario runs the same seeded workload on the thread and process
// backends and requires identical result multisets, task-head answers
// included (adapter weights and heads cross the wire bit-exact; the
// executor's engine is seeded from the Config frame).
//
// Every test skips cleanly when the executor binary is not available (ctest
// wires VLORA_EXECUTOR to the built target; manual runs can rely on the
// build-tree probe in ProcessReplica::DefaultExecutorPath).

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <memory>
#include <set>
#include <utility>
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

// Adapter carrying a vision task head; requests that set use_task_head must
// target it.
constexpr int kHeadedAdapter = 0;

std::vector<LoraAdapter> MakeAdapters(const ModelConfig& config, int count, uint64_t seed) {
  Rng rng(seed);
  std::vector<LoraAdapter> adapters;
  for (int i = 0; i < count; ++i) {
    adapters.push_back(LoraAdapter::Random("proc-" + std::to_string(i), config.num_layers,
                                           config.d_model, 4, rng));
  }
  VisionTaskHead head;
  head.task = VisionTask::kImageClassification;
  head.weight = Tensor::Random(Shape(config.d_model, 5), rng, 0.3f);
  adapters[kHeadedAdapter].SetTaskHead(std::move(head));
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

// Fast heartbeat/health timing so executor death is noticed in milliseconds,
// not the production-scale defaults.
RecoveryOptions FastRecovery() {
  RecoveryOptions recovery;
  recovery.stall_quarantine_ms = 60.0;
  recovery.health_period_ms = 5.0;
  recovery.backoff_base_ms = 1.0;
  recovery.max_attempts = 8;
  return recovery;
}

std::unique_ptr<ClusterServer> MakeProcessCluster(const ModelConfig& config, int replicas,
                                                  const std::vector<Request>& trace,
                                                  FaultInjector* fault,
                                                  ReplicaBackend backend,
                                                  int64_t max_inflight = 4,
                                                  int num_prefill = 0) {
  ClusterOptions options;
  options.num_replicas = replicas;
  options.policy = RoutePolicy::kRoundRobin;  // fixed routing sequence
  options.admission = AdmissionPolicy::kBlock;
  options.replica_queue_capacity = 64;
  options.server.max_batch_size = 4;
  options.backend = backend;
  if (num_prefill > 0) {
    options.disagg.enabled = true;
    options.disagg.num_prefill = num_prefill;
  }
  options.process.max_inflight = max_inflight;
  options.process.heartbeat_period_ms = 5.0;
  options.fault = fault;
  options.recovery = FastRecovery();
  auto cluster = std::make_unique<ClusterServer>(config, options);
  for (const LoraAdapter& adapter : MakeAdapters(config, 6, 11)) {
    cluster->AddAdapter(adapter);
  }
  cluster->PlaceAdapters(AdapterShares(trace, 6));
  return cluster;
}

// Multiset of (request id -> output tokens, task-head option): completion
// order varies across backends and replica counts, content must not.
using ResultMap = std::map<int64_t, std::pair<std::vector<int32_t>, int>>;

ResultMap ResultKey(const std::vector<EngineResult>& results) {
  ResultMap key;
  for (const EngineResult& result : results) {
    key[result.request_id] = {result.output_tokens, result.head_option};
  }
  return key;
}

int64_t ReplicaCompletions() {
  return MetricsRegistry::Global().counter("replica.completions")->value();
}

// Both backends count the same way: `replica.completions` moves by the
// terminal completions only (a KV handoff is not one), and every request a
// replica accepted ends in exactly one of its outcome counters.
void ExpectOneAccounting(const ClusterStats& stats, int64_t completions_delta,
                         size_t requests) {
  EXPECT_EQ(completions_delta, stats.completed);
  EXPECT_EQ(stats.completed, static_cast<int64_t>(requests));
  for (const ReplicaSnapshot& snapshot : stats.replicas) {
    EXPECT_EQ(snapshot.completed + snapshot.handoffs + snapshot.failed + snapshot.cancelled +
                  snapshot.stolen,
              snapshot.submitted)
        << snapshot.backend << " replica " << snapshot.index;
  }
}

#define SKIP_WITHOUT_EXECUTOR()                                                    \
  do {                                                                             \
    if (!ProcessReplica::ExecutorAvailable()) {                                    \
      GTEST_SKIP() << "vlora_executor not built/locatable; set VLORA_EXECUTOR";    \
    }                                                                              \
  } while (0)

// --- Plain serving over the wire --------------------------------------------

TEST(ProcessClusterTest, ServesAWorkloadAndReportsProcessBackendSnapshots) {
  SKIP_WITHOUT_EXECUTOR();
  const ModelConfig config = TinyConfig();
  const std::vector<Request> trace = SmallTrace(6, 25.0, 1.0, 23);
  ASSERT_GE(trace.size(), 8u);

  auto cluster =
      MakeProcessCluster(config, /*replicas=*/2, trace, nullptr, ReplicaBackend::kProcess);
  for (const Request& request : trace) {
    EXPECT_TRUE(cluster->Submit(EngineRequestFromTrace(request, config, SmallMap())));
  }
  const std::vector<EngineResult> results = cluster->Drain();
  EXPECT_EQ(results.size(), trace.size());
  EXPECT_TRUE(cluster->TakeFailures().empty());
  cluster->Shutdown();

  const ClusterStats stats = cluster->Stats();
  EXPECT_EQ(stats.completed, static_cast<int64_t>(trace.size()));
  EXPECT_EQ(stats.replica_deaths, 0);
  EXPECT_EQ(stats.quarantines, 0);
  ASSERT_EQ(stats.replicas.size(), 2u);
  int64_t submitted = 0;
  for (const ReplicaSnapshot& snapshot : stats.replicas) {
    EXPECT_STREQ(snapshot.backend, "process");
    EXPECT_FALSE(snapshot.dead);  // clean shutdown is not a death
    submitted += snapshot.submitted;
    EXPECT_EQ(snapshot.completed + snapshot.failed + snapshot.cancelled + snapshot.stolen,
              snapshot.submitted);
  }
  EXPECT_EQ(submitted, static_cast<int64_t>(trace.size()));
}

// --- Thread/process parity --------------------------------------------------

TEST(ProcessClusterTest, ThreadAndProcessBackendsProduceIdenticalResults) {
  SKIP_WITHOUT_EXECUTOR();
  const ModelConfig config = TinyConfig();
  const std::vector<Request> trace = SmallTrace(6, 25.0, 1.0, 31);
  ASSERT_GE(trace.size(), 8u);

  ResultMap reference;
  for (ReplicaBackend backend : {ReplicaBackend::kThread, ReplicaBackend::kProcess}) {
    auto cluster = MakeProcessCluster(config, /*replicas=*/2, trace, nullptr, backend);
    const int64_t completions_before = ReplicaCompletions();
    for (const Request& request : trace) {
      // The headed adapter's requests answer through its task head, so the
      // head, the request flag and head_option all cross the wire.
      EngineRequest engine_request = EngineRequestFromTrace(request, config, SmallMap());
      engine_request.use_task_head = engine_request.adapter_id == kHeadedAdapter;
      EXPECT_TRUE(cluster->Submit(std::move(engine_request)));
    }
    const std::vector<EngineResult> results = cluster->Drain();
    EXPECT_EQ(results.size(), trace.size());
    cluster->Shutdown();
    ExpectOneAccounting(cluster->Stats(), ReplicaCompletions() - completions_before,
                        trace.size());
    const auto key = ResultKey(results);
    EXPECT_EQ(key.size(), trace.size());
    const auto headed = std::count_if(results.begin(), results.end(),
                                      [](const EngineResult& r) { return r.head_option >= 0; });
    EXPECT_GT(headed, 0) << "no request answered through the task head";
    if (backend == ReplicaBackend::kThread) {
      reference = key;
    } else {
      EXPECT_EQ(key, reference) << "process backend diverged from thread backend";
    }
  }
}

// The KV handle crosses the wire as KvHandleMeta + KvPage frames between the
// prefill executor and the master, then again down to the decode executor.
// The differential proof: a unified thread cluster, a disaggregated thread
// cluster, and a disaggregated process cluster must all produce the same
// per-request token streams on the same seeded workload.
TEST(ProcessClusterTest, DisaggregatedProcessBackendMatchesUnifiedResults) {
  SKIP_WITHOUT_EXECUTOR();
  const ModelConfig config = TinyConfig();
  const std::vector<Request> trace = SmallTrace(6, 25.0, 1.0, 37);
  ASSERT_GE(trace.size(), 8u);

  struct Leg {
    ReplicaBackend backend;
    int num_prefill;  // 0 -> unified
  };
  const Leg legs[] = {{ReplicaBackend::kThread, 0},
                      {ReplicaBackend::kThread, 1},
                      {ReplicaBackend::kProcess, 1}};

  ResultMap reference;
  for (const Leg& leg : legs) {
    auto cluster = MakeProcessCluster(config, /*replicas=*/3, trace, nullptr, leg.backend,
                                      /*max_inflight=*/4, leg.num_prefill);
    const int64_t completions_before = ReplicaCompletions();
    for (const Request& request : trace) {
      EXPECT_TRUE(cluster->Submit(EngineRequestFromTrace(request, config, SmallMap())));
    }
    const std::vector<EngineResult> results = cluster->Drain();
    EXPECT_EQ(results.size(), trace.size());
    EXPECT_TRUE(cluster->TakeFailures().empty());
    cluster->Shutdown();

    const ClusterStats stats = cluster->Stats();
    ExpectOneAccounting(stats, ReplicaCompletions() - completions_before, trace.size());
    if (leg.num_prefill > 0) {
      EXPECT_GT(stats.handoffs, 0) << "disaggregated run never handed off KV";
      EXPECT_EQ(stats.handles_released, stats.handoffs);
    } else {
      EXPECT_EQ(stats.handoffs, 0);
    }

    const auto key = ResultKey(results);
    EXPECT_EQ(key.size(), trace.size());
    if (reference.empty()) {
      reference = key;
    } else {
      EXPECT_EQ(key, reference)
          << (leg.backend == ReplicaBackend::kProcess ? "process" : "thread")
          << " disaggregated run diverged from the unified reference";
    }
  }
}

// --- Stall detection ---------------------------------------------------------

// One prefill step several times longer than the stall threshold stalls the
// worker for real. The thread backend sees its worker's stamp freeze; the
// process backend must see the same through the executor's heartbeats, which
// keep arriving while the stamp they carry stands still.
TEST(ProcessClusterTest, StalledWorkerIsQuarantinedOnBothBackends) {
  SKIP_WITHOUT_EXECUTOR();
  const ModelConfig config = SmallConfig();
  for (ReplicaBackend backend : {ReplicaBackend::kThread, ReplicaBackend::kProcess}) {
    const char* name = backend == ReplicaBackend::kThread ? "thread" : "process";
    ClusterOptions options;
    options.num_replicas = 1;
    options.backend = backend;
    options.process.heartbeat_period_ms = 2.0;
    options.recovery.stall_quarantine_ms = 60.0;
    options.recovery.health_period_ms = 2.0;
    ClusterServer cluster(config, options);

    EngineRequest request;
    request.id = 1;
    request.max_new_tokens = 2;
    request.eos_token = -1;
    Rng rng(7);
    for (int i = 0; i < 1900; ++i) {  // ~330 ms of prefill on a 4-core AVX2 host
      request.prompt_tokens.push_back(static_cast<int32_t>(rng.NextInt(2, config.vocab_size - 1)));
    }
    ASSERT_TRUE(cluster.Submit(std::move(request))) << name;
    ASSERT_TRUE(cluster.WaitForReadmissions(/*count=*/1, /*timeout_ms=*/10'000.0)) << name;
    const std::vector<EngineResult> results = cluster.Drain();
    ASSERT_EQ(results.size(), 1u) << name;
    EXPECT_EQ(results[0].output_tokens.size(), 2u) << name;
    EXPECT_TRUE(cluster.TakeFailures().empty()) << name;
    EXPECT_GE(cluster.Stats().quarantines, 1) << name;
  }
}

// --- SIGKILL mid-run recovery -----------------------------------------------

TEST(ProcessClusterTest, SigkillMidRunRecoversEveryRequestThroughQuarantine) {
  SKIP_WITHOUT_EXECUTOR();
  const ModelConfig config = TinyConfig();
  const std::vector<Request> trace = SmallTrace(6, 40.0, 2.0, 41);
  ASSERT_GE(trace.size(), 40u);
  constexpr int kVictim = 1;
  constexpr size_t kRequests = 40;

  TraceSession session;
  FaultInjector fault(0x5eedu);
  // SIGKILL replica 1's executor once the master has observed two of its
  // completions — a real mid-run death with requests still on the wire and
  // queued behind the inflight window.
  fault.KillProcessAfter(kVictim, /*completed=*/2);

  auto cluster = MakeProcessCluster(config, /*replicas=*/2, trace, &fault,
                                    ReplicaBackend::kProcess, /*max_inflight=*/2);
  const pid_t victim_pid =
      static_cast<ProcessReplica&>(cluster->replica(kVictim)).executor_pid();
  EXPECT_GT(victim_pid, 0);

  for (size_t i = 0; i < kRequests; ++i) {
    EXPECT_TRUE(cluster->Submit(EngineRequestFromTrace(trace[i], config, SmallMap())));
  }
  const std::vector<EngineResult> results = cluster->Drain();
  EXPECT_TRUE(cluster->TakeFailures().empty());
  EXPECT_EQ(results.size(), kRequests);  // 100% completion despite the kill
  EXPECT_EQ(ResultKey(results).size(), kRequests);
  // The fail-over ran before the orphans completed, but the health tick that
  // *records* the death can trail Drain — wait for it instead of racing it.
  ASSERT_TRUE(cluster->WaitForReplicaDeaths(/*count=*/1, /*timeout_ms=*/10'000.0));

  const ClusterStats stats = cluster->Stats();
  EXPECT_EQ(stats.completed, static_cast<int64_t>(kRequests));
  EXPECT_EQ(stats.failed, 0);
  EXPECT_EQ(stats.replica_deaths, 1);
  EXPECT_EQ(stats.quarantines, 1);
  EXPECT_EQ(stats.readmissions, 0);  // a SIGKILLed executor never comes back
  // The inflight window fails over through retries; the master-side queue is
  // stolen and re-routed at quarantine. Both paths must have fired.
  EXPECT_GE(stats.retries, 1);
  EXPECT_GE(stats.rerouted, 1);
  ASSERT_EQ(stats.replicas.size(), 2u);
  EXPECT_TRUE(stats.replicas[kVictim].dead);
  EXPECT_STREQ(stats.replicas[kVictim].backend, "process");

  // The injector recorded exactly one kill, of the right replica.
  const std::vector<FaultEvent> events = fault.Events();
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].kind, FaultKind::kKillProcess);
  EXPECT_EQ(events[0].replica, kVictim);

  cluster.reset();  // join supervisor + reader threads, reap executors
  session.Stop();
  TraceMatcher matcher(session.Collect());
  EXPECT_EQ(session.dropped_events(), 0);

  // Suspicion before conviction: the victim was quarantined (stalled-replica
  // signature from the frozen heartbeat) before any fail-over Retry fired.
  EXPECT_EQ(matcher.CountForReplica(TraceEventKind::kQuarantine, kVictim), 1);
  EXPECT_TRUE(matcher.ExpectAllBefore({TraceEventKind::kQuarantine, kVictim},
                                      {TraceEventKind::kRetry}));
  // Once quarantined, the dead executor never saw another enqueue.
  const double quarantine_ms = matcher.FirstTime({TraceEventKind::kQuarantine, kVictim});
  ASSERT_GE(quarantine_ms, 0.0);
  EXPECT_EQ(matcher.CountAfter({TraceEventKind::kEnqueued, kVictim}, quarantine_ms), 0);
  EXPECT_EQ(matcher.Count(TraceEventKind::kReadmit), 0);

  // Every retried request completed kOk on the survivor, with the Retry
  // strictly before its terminal event.
  std::set<int64_t> retried_ids;
  for (const TraceEvent& event : matcher.events()) {
    if (event.kind == TraceEventKind::kRetry) {
      retried_ids.insert(event.request_id);
    }
  }
  EXPECT_FALSE(retried_ids.empty());
  for (int64_t id : retried_ids) {
    EXPECT_LT(matcher.FirstTime({TraceEventKind::kRetry, -1, id}),
              matcher.LastTime({TraceEventKind::kCompleted, -1, id}));
    EXPECT_EQ(matcher.CountAfter({TraceEventKind::kEnqueued, kVictim, id},
                                 matcher.FirstTime({TraceEventKind::kRetry, -1, id})),
              0);
  }
  // All submitted requests reached exactly one kOk terminal event.
  for (size_t i = 0; i < kRequests; ++i) {
    EXPECT_TRUE(matcher.ExpectCompleted(trace[i].id, StatusCode::kOk));
  }
}

// A second run of the kill scenario completes everything again — the
// recovery path is not a one-shot fluke, and no state leaks between clusters
// (socket files, zombie executors) breaks a follow-up run in-process.
TEST(ProcessClusterTest, SigkillRecoveryRepeatsCleanly) {
  SKIP_WITHOUT_EXECUTOR();
  const ModelConfig config = TinyConfig();
  const std::vector<Request> trace = SmallTrace(6, 40.0, 1.0, 43);
  ASSERT_GE(trace.size(), 16u);

  for (int run = 0; run < 2; ++run) {
    FaultInjector fault(0x5eedu);
    fault.KillProcessAfter(/*replica=*/0, /*completed=*/1);
    auto cluster = MakeProcessCluster(config, /*replicas=*/2, trace, &fault,
                                      ReplicaBackend::kProcess, /*max_inflight=*/2);
    for (size_t i = 0; i < 16; ++i) {
      EXPECT_TRUE(cluster->Submit(EngineRequestFromTrace(trace[i], config, SmallMap())));
    }
    const std::vector<EngineResult> results = cluster->Drain();
    EXPECT_EQ(results.size(), 16u) << "run " << run;
    EXPECT_TRUE(cluster->TakeFailures().empty()) << "run " << run;
    ASSERT_TRUE(cluster->WaitForReplicaDeaths(/*count=*/1, /*timeout_ms=*/10'000.0))
        << "run " << run;
    const ClusterStats stats = cluster->Stats();
    EXPECT_EQ(stats.replica_deaths, 1) << "run " << run;
  }
}

}  // namespace
}  // namespace vlora
