// Table 3 on the real engine: multi-replica throughput scaling through the
// cluster serving layer (src/cluster), next to the routing-policy ablation
// the paper leaves as future work. Paper: 6.07 / 11.48 / 23.97 rps on 1/2/4
// A100s with round-robin dispatch.
//
// Two experiments:
//   1. Sustained load: offered rate grows proportionally with the replica
//      count and arrivals are paced, so the measured throughput must track
//      the offered rate (monotone, near-linear) as long as queues stay
//      bounded and tail latency stable. This shape check holds on any host.
//   2. Saturated capacity: everything submitted up front; capacity only
//      scales when the host has a core per replica, so the host's core count
//      is printed next to the numbers.
// Plus the routing ablation: adapter-affinity cuts swap-ins vs round-robin
// on a skewed trace.

#include <thread>

#include "bench/bench_cluster_common.h"
#include "bench/bench_util.h"

namespace vlora {
namespace {

TraceOptions BaseTrace() {
  TraceOptions trace_options;
  trace_options.app = AppKind::kVisualRetrieval;
  trace_options.num_adapters = 8;
  trace_options.skewness = 0.6;
  trace_options.seed = 43;
  return trace_options;
}

void Run() {
  bench::PrintHeader("Cluster scaling — real engine, 1/2/4 replicas",
                     "Table 3 shape: monotone scaling; affinity routing avoids swaps");
  const ModelConfig config = TinyConfig();

  // --- Experiment 1: sustained throughput under offered load ∝ replicas.
  const double per_replica_rps = 300.0;
  AsciiTable sustained(
      {"replicas", "offered rps", "sustained rps", "scaling", "p50 ms", "p99 ms"});
  double sustained_base = 0.0;
  for (int replicas : {1, 2, 4}) {
    TraceOptions trace_options = BaseTrace();
    trace_options.duration_s = 2.0;
    trace_options.rate_rps = per_replica_rps * replicas;
    const std::vector<Request> trace = GenerateTrace(trace_options);

    bench::ClusterRunConfig run;
    run.num_replicas = replicas;
    run.policy = RoutePolicy::kRoundRobin;  // the paper's Table 3 dispatch
    run.num_adapters = trace_options.num_adapters;
    run.paced = true;
    const ClusterStats stats = bench::RunClusterTrace(config, trace, run);
    if (replicas == 1) {
      sustained_base = stats.throughput_rps;
    }
    sustained.AddRow({std::to_string(replicas),
                      AsciiTable::FormatDouble(trace_options.rate_rps, 0),
                      AsciiTable::FormatDouble(stats.throughput_rps, 1),
                      AsciiTable::FormatDouble(stats.throughput_rps / sustained_base, 2) + "x",
                      AsciiTable::FormatDouble(stats.latency.Percentile(50.0), 1),
                      AsciiTable::FormatDouble(stats.latency.Percentile(99.0), 1)});
  }
  sustained.Print("Sustained throughput, offered load ∝ replicas (paced arrivals)");

  // --- Experiment 2: saturated capacity (everything submitted up front).
  TraceOptions saturating = BaseTrace();
  saturating.duration_s = 4.0;
  saturating.rate_rps = 150.0;
  const std::vector<Request> trace = GenerateTrace(saturating);
  std::printf("saturating trace: %zu requests, skewness %.1f, %d adapters\n", trace.size(),
              saturating.skewness, saturating.num_adapters);

  AsciiTable capacity({"replicas", "throughput rps", "scaling", "p50 ms", "p99 ms", "swap-ins"});
  double base = 0.0;
  for (int replicas : {1, 2, 4}) {
    bench::ClusterRunConfig run;
    run.num_replicas = replicas;
    run.policy = RoutePolicy::kRoundRobin;
    run.num_adapters = saturating.num_adapters;
    const ClusterStats stats = bench::RunClusterTrace(config, trace, run);
    if (replicas == 1) {
      base = stats.throughput_rps;
    }
    capacity.AddRow({std::to_string(replicas),
                     AsciiTable::FormatDouble(stats.throughput_rps, 1),
                     AsciiTable::FormatDouble(stats.throughput_rps / base, 2) + "x",
                     AsciiTable::FormatDouble(stats.latency.Percentile(50.0), 1),
                     AsciiTable::FormatDouble(stats.latency.Percentile(99.0), 1),
                     std::to_string(stats.adapter_swap_ins)});
  }
  capacity.Print("Saturated capacity (replica workers share this host's cores)");
  std::printf(
      "note: this host reports %u hardware thread(s); capacity scales with replicas only "
      "when cores >= replicas, otherwise expect a flat line here.\n",
      std::thread::hardware_concurrency());

  // --- Experiment 3: routing-policy ablation at 4 replicas.
  AsciiTable routing({"policy", "throughput rps", "swap-ins", "affinity hits", "spills"});
  for (RoutePolicy policy : {RoutePolicy::kRoundRobin, RoutePolicy::kLeastLoaded,
                             RoutePolicy::kAdapterAffinity}) {
    bench::ClusterRunConfig run;
    run.num_replicas = 4;
    run.policy = policy;
    run.num_adapters = saturating.num_adapters;
    const ClusterStats stats = bench::RunClusterTrace(config, trace, run);
    routing.AddRow({RoutePolicyName(policy), AsciiTable::FormatDouble(stats.throughput_rps, 1),
                    std::to_string(stats.adapter_swap_ins), std::to_string(stats.affinity_hits),
                    std::to_string(stats.affinity_spills)});
  }
  routing.Print("Routing policy ablation (4 replicas, skewed trace)");
  std::printf(
      "Shape check: sustained throughput tracks offered load as replicas scale; "
      "adapter-affinity reports the fewest swap-ins because home replicas keep their "
      "placement resident.\n");

  // --- Experiment 4: thread vs process backend — the cost of the wire. -----
  // Same saturated trace through both backends at each replica count. The
  // process backend pays request/result framing, a socket hop each way and
  // the bounded inflight window; the per-request submit->complete latency
  // delta is that IPC overhead, measured rather than guessed.
  if (ProcessReplica::ExecutorAvailable()) {
    AsciiTable backends({"replicas", "backend", "throughput rps", "p50 ms", "p95 ms", "p99 ms",
                         "p50 overhead"});
    for (int replicas : {1, 2}) {
      double thread_p50 = 0.0;
      for (ReplicaBackend backend : {ReplicaBackend::kThread, ReplicaBackend::kProcess}) {
        bench::ClusterRunConfig run;
        run.num_replicas = replicas;
        run.policy = RoutePolicy::kRoundRobin;
        run.num_adapters = saturating.num_adapters;
        run.backend = backend;
        const ClusterStats stats = bench::RunClusterTrace(config, trace, run);
        const double p50 = stats.latency.Percentile(50.0);
        std::string overhead = "-";
        if (backend == ReplicaBackend::kThread) {
          thread_p50 = p50;
        } else if (thread_p50 > 0.0) {
          overhead = AsciiTable::FormatDouble(p50 - thread_p50, 2) + " ms";
        }
        backends.AddRow({std::to_string(replicas), ReplicaBackendName(backend),
                         AsciiTable::FormatDouble(stats.throughput_rps, 1),
                         AsciiTable::FormatDouble(p50, 2),
                         AsciiTable::FormatDouble(stats.latency.Percentile(95.0), 2),
                         AsciiTable::FormatDouble(stats.latency.Percentile(99.0), 2), overhead});
      }
    }
    backends.Print("Thread vs process backend (saturated trace; overhead = wire protocol IPC)");
    std::printf(
        "note: the process rows fork one vlora_executor per replica and carry every "
        "request/result over a unix socket; 'p50 overhead' is the per-request price of "
        "process isolation.\n");
  } else {
    std::printf(
        "thread-vs-process comparison skipped: vlora_executor not found (build it or set "
        "VLORA_EXECUTOR).\n");
  }

  // --- Experiment 5: one traced run — request spans and a Chrome trace. ----
  // RunClusterTrace destroys its cluster before returning, so the collected
  // stream is complete and quiescent.
  trace::TraceOptions trace_options_ring;
  trace_options_ring.ring_capacity = int64_t{1} << 17;
  trace::TraceSession trace_session(trace_options_ring);
  {
    bench::ClusterRunConfig run;
    run.num_replicas = 4;
    run.policy = RoutePolicy::kAdapterAffinity;
    run.num_adapters = saturating.num_adapters;
    (void)bench::RunClusterTrace(config, trace, run);
  }
  trace_session.Stop();
  bench::PrintTraceArtifacts(trace_session.Collect(), "bench_cluster_scaling.trace.json",
                             trace_session.dropped_events());
}

}  // namespace
}  // namespace vlora

int main() {
  vlora::Run();
  return 0;
}
