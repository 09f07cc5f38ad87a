// Cluster serving: multi-replica V-LoRA with adapter-affinity routing.
//
// Builds a 3-replica cluster over the tiny engine, registers a skewed adapter
// catalogue, computes an InfiniLoRA-style placement (replicated hot set,
// partitioned cold tail), replays a bursty skewed trace through the
// adapter-affinity router with blocking backpressure, and prints per-replica
// and aggregate serving statistics — the same SLO metrics the single-replica
// server reports.
//
//   ./build/examples/cluster_serving

#include <cstdio>

#include "src/cluster/cluster_server.h"
#include "src/common/logging.h"
#include "src/workload/trace_gen.h"

using namespace vlora;

int main() {
  SetLogLevel(LogLevel::kInfo);
  const ModelConfig config = TinyConfig();

  // --- Offline: a catalogue of 6 adapters with Zipf-skewed popularity.
  TraceOptions trace_options;
  trace_options.app = AppKind::kVisualRetrieval;
  trace_options.duration_s = 3.0;
  trace_options.rate_rps = 60.0;
  trace_options.num_adapters = 6;
  trace_options.skewness = 0.6;
  trace_options.seed = 9;
  const std::vector<Request> trace = GenerateTrace(trace_options);
  std::printf("Trace: %zu requests over %.0fs, skewness %.1f\n", trace.size(),
              trace_options.duration_s, trace_options.skewness);

  ClusterOptions options;
  options.num_replicas = 3;
  options.policy = RoutePolicy::kAdapterAffinity;
  options.admission = AdmissionPolicy::kBlock;
  options.replica_queue_capacity = 32;
  options.server.max_batch_size = 4;
  ClusterServer cluster(config, options);

  Rng rng(21);
  for (int i = 0; i < trace_options.num_adapters; ++i) {
    cluster.AddAdapter(LoraAdapter::Random("domain-" + std::to_string(i), config.num_layers,
                                           config.d_model, 4, rng));
  }
  cluster.PlaceAdapters(AdapterShares(trace, trace_options.num_adapters));
  std::printf("Placement (hot adapters marked *):\n%s", cluster.placement().ToString().c_str());

  // --- Online: replay the trace through the router.
  TraceMapOptions map;
  map.token_scale = 32;
  map.max_prompt_tokens = 16;
  map.max_new_tokens = 4;
  int64_t accepted = 0;
  for (const Request& request : trace) {
    accepted += cluster.Submit(EngineRequestFromTrace(request, config, map)) ? 1 : 0;
  }
  const std::vector<EngineResult> results = cluster.Drain();

  const ClusterStats stats = cluster.Stats();
  std::printf("\nAccepted %lld of %zu requests\n", static_cast<long long>(accepted),
              trace.size());
  std::printf("Completed %zu requests in %.0f ms (%.1f rps aggregate)\n", results.size(),
              stats.wall_ms, stats.throughput_rps);
  std::printf("Latency p50/p95/p99: %.1f / %.1f / %.1f ms\n", stats.latency.Percentile(50.0),
              stats.latency.Percentile(95.0), stats.latency.Percentile(99.0));
  std::printf("Affinity hits %ld, spills %ld, swap-ins %ld, evictions %ld\n",
              static_cast<long>(stats.affinity_hits), static_cast<long>(stats.affinity_spills),
              static_cast<long>(stats.adapter_swap_ins),
              static_cast<long>(stats.adapter_evictions));
  for (const ReplicaSnapshot& replica : stats.replicas) {
    std::printf(
        "  replica %d: %ld done, peak depth %ld, %ld iterations "
        "(%ld merged / %ld unmerged / %ld mixture)\n",
        replica.index, static_cast<long>(replica.completed),
        static_cast<long>(replica.peak_depth), static_cast<long>(replica.server.iterations),
        static_cast<long>(replica.server.merged_iterations),
        static_cast<long>(replica.server.unmerged_iterations),
        static_cast<long>(replica.server.mixture_iterations));
  }
  return 0;
}
