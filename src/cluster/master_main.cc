// Demo master for the multi-process quick-start (README "Multi-process
// cluster"):
//
//   vlora_master --backend=process --replicas=2 --requests=32
//
// Builds a tiny-model cluster on the chosen backend, registers a few
// adapters, serves a deterministic workload, and prints per-replica stats.
// With --backend=process each replica is a forked vlora_executor reached
// over the wire protocol (unix sockets by default; --transport=tcp for TCP
// loopback); with --backend=thread everything stays in this process. The
// same seeded workload produces the same result multiset on both backends.

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "src/cluster/cluster_server.h"
#include "src/common/rng.h"
#include "src/engine/model_config.h"
#include "src/lora/adapter.h"

namespace vlora {
namespace {

int MasterMain(int argc, char** argv) {
  int replicas = 2;
  int requests = 32;
  int adapters = 4;
  int prefill = 0;  // 0 = unified; N>0 splits N prefill / rest decode
  ReplicaBackend backend = ReplicaBackend::kThread;
  net::Transport transport = net::Transport::kUnix;
  std::string executor;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--replicas=", 0) == 0) {
      replicas = std::atoi(arg.c_str() + 11);
    } else if (arg.rfind("--requests=", 0) == 0) {
      requests = std::atoi(arg.c_str() + 11);
    } else if (arg.rfind("--adapters=", 0) == 0) {
      adapters = std::atoi(arg.c_str() + 11);
    } else if (arg.rfind("--prefill=", 0) == 0) {
      prefill = std::atoi(arg.c_str() + 10);
    } else if (arg == "--backend=thread") {
      backend = ReplicaBackend::kThread;
    } else if (arg == "--backend=process") {
      backend = ReplicaBackend::kProcess;
    } else if (arg == "--transport=unix") {
      transport = net::Transport::kUnix;
    } else if (arg == "--transport=tcp") {
      transport = net::Transport::kTcp;
    } else if (arg.rfind("--executor=", 0) == 0) {
      executor = arg.substr(11);
    } else {
      std::fprintf(stderr,
                   "usage: vlora_master [--backend=thread|process] [--replicas=N]\n"
                   "                    [--requests=N] [--adapters=N] [--prefill=N]\n"
                   "                    [--transport=unix|tcp] [--executor=PATH]\n"
                   "--prefill=N enables disaggregated serving: N prefill replicas,\n"
                   "the rest decode resumed KV handles (0 < N < replicas)\n");
      return 2;
    }
  }
  if (backend == ReplicaBackend::kProcess && executor.empty() &&
      !ProcessReplica::ExecutorAvailable()) {
    std::fprintf(stderr,
                 "vlora_master: vlora_executor not found next to this binary; "
                 "build it or set VLORA_EXECUTOR / --executor\n");
    return 1;
  }

  const ModelConfig config = TinyConfig();
  ClusterOptions options;
  options.num_replicas = replicas;
  options.backend = backend;
  if (prefill > 0) {
    if (prefill >= replicas) {
      std::fprintf(stderr, "vlora_master: --prefill must leave at least one decode replica\n");
      return 2;
    }
    options.disagg.enabled = true;
    options.disagg.num_prefill = prefill;
  }
  options.process.transport = transport;
  options.process.executor_path = executor;
  ClusterServer cluster(config, options);

  Rng adapter_rng(0xada97e50u);
  for (int a = 0; a < adapters; ++a) {
    LoraAdapter adapter = LoraAdapter::Random("demo-" + std::to_string(a), config.num_layers,
                                              config.d_model, /*rank=*/4, adapter_rng);
    cluster.AddAdapter(adapter);
  }
  cluster.PlaceAdapters(std::vector<double>(static_cast<size_t>(adapters),
                                            1.0 / static_cast<double>(adapters)));

  for (int i = 0; i < requests; ++i) {
    Request request;
    request.id = i;
    request.adapter_id = i % adapters;
    request.input_tokens = 128 + 32 * (i % 5);
    request.output_tokens = 64;
    if (!cluster.Submit(EngineRequestFromTrace(request, config))) {
      std::fprintf(stderr, "vlora_master: submit %d rejected\n", i);
    }
  }
  const std::vector<EngineResult> results = cluster.Drain();
  cluster.Shutdown();

  const ClusterStats stats = cluster.Stats();
  std::printf("backend=%s replicas=%d requests=%d completed=%zu wall_ms=%.1f rps=%.1f "
              "p50_ms=%.2f p99_ms=%.2f\n",
              ReplicaBackendName(backend), replicas, requests, results.size(), stats.wall_ms,
              stats.throughput_rps, stats.latency.Percentile(50.0),
              stats.latency.Percentile(99.0));
  if (prefill > 0) {
    std::printf("disaggregated: %d prefill / %d decode, handoffs=%lld (handles released=%lld)\n",
                prefill, replicas - prefill, static_cast<long long>(stats.handoffs),
                static_cast<long long>(stats.handles_released));
  }
  std::printf("%-8s %-8s %-10s %-10s %-8s\n", "replica", "backend", "submitted", "completed",
              "failed");
  for (const ReplicaSnapshot& snapshot : stats.replicas) {
    std::printf("%-8d %-8s %-10lld %-10lld %-8lld\n", snapshot.index, snapshot.backend,
                static_cast<long long>(snapshot.submitted),
                static_cast<long long>(snapshot.completed),
                static_cast<long long>(snapshot.failed));
  }
  return 0;
}

}  // namespace
}  // namespace vlora

int main(int argc, char** argv) { return vlora::MasterMain(argc, argv); }
