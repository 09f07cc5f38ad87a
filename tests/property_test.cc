// Randomised property tests across modules: mode-equivalence fuzzing on the
// engine, GEMM shape/config fuzzing, simulator invariants, KV-block-manager
// model checking, and generator packing properties.

#include <gtest/gtest.h>

#include <map>
#include <set>

#include "bench/bench_tiling_search.h"
#include "src/baselines/policies.h"
#include "src/cluster/cluster_server.h"
#include "src/cluster/placement.h"
#include "src/cluster/router.h"
#include "src/common/fault.h"
#include "src/core/generator.h"
#include "src/core/scheduler.h"
#include "src/engine/engine.h"
#include "src/gpusim/simulator.h"
#include "src/kernels/gemm.h"
#include "src/workload/trace_gen.h"

namespace vlora {
namespace {

// ---------------------------------------------------------------------------
// Engine: merged / unmerged / mixture must agree on random configurations.
class EngineModeFuzzTest : public ::testing::TestWithParam<int> {};

TEST_P(EngineModeFuzzTest, AllModesAgree) {
  const uint64_t seed = static_cast<uint64_t>(GetParam());
  Rng meta(seed * 7919 + 101);

  ModelConfig config = TinyConfig();
  config.num_layers = static_cast<int>(meta.NextInt(1, 3));
  config.num_heads = static_cast<int>(meta.NextInt(1, 4));
  config.d_model = 16 * config.num_heads * meta.NextInt(1, 2);
  config.d_ff = config.d_model * 2;
  config.vocab_size = 64;

  // Random adapters with random target subsets and ranks.
  const int num_adapters = static_cast<int>(meta.NextInt(1, 3));
  std::vector<LoraAdapter> adapters;
  for (int i = 0; i < num_adapters; ++i) {
    std::vector<LoraTarget> targets;
    for (LoraTarget target : kAllLoraTargets) {
      if (meta.NextDouble() < 0.6) {
        targets.push_back(target);
      }
    }
    if (targets.empty()) {
      targets.push_back(LoraTarget::kWv);
    }
    Rng weight_rng(seed * 31 + static_cast<uint64_t>(i));
    adapters.push_back(LoraAdapter::Random("fz-" + std::to_string(i), config.num_layers,
                                           config.d_model, meta.NextInt(2, 8), weight_rng, 0.08f,
                                           targets));
  }

  // Random batch of requests over those adapters (plus base).
  struct Spec {
    std::vector<int32_t> prompt;
    int adapter;
  };
  std::vector<Spec> specs;
  const int batch = static_cast<int>(meta.NextInt(1, 3));
  for (int i = 0; i < batch; ++i) {
    Spec spec;
    const int64_t len = meta.NextInt(4, 24);
    for (int64_t t = 0; t < len; ++t) {
      spec.prompt.push_back(static_cast<int32_t>(meta.NextInt(2, config.vocab_size - 1)));
    }
    spec.adapter = static_cast<int>(meta.NextInt(-1, num_adapters - 1));
    specs.push_back(std::move(spec));
  }
  const int merged_candidate = static_cast<int>(meta.NextInt(0, num_adapters - 1));

  auto run = [&](InferMode mode, int merged) {
    EngineOptions options;
    options.seed = seed;
    InferenceEngine engine(config, options);
    for (LoraAdapter& adapter : adapters) {
      engine.RegisterAdapter(&adapter);
    }
    engine.SetMode(mode, merged);
    for (size_t i = 0; i < specs.size(); ++i) {
      EngineRequest request;
      request.id = static_cast<int64_t>(i);
      request.prompt_tokens = specs[i].prompt;
      request.adapter_id = specs[i].adapter;
      request.max_new_tokens = 3;
      request.eos_token = -1;
      engine.Submit(request);
    }
    std::map<int64_t, std::vector<int32_t>> outputs;
    while (engine.HasWork()) {
      for (EngineResult& result : engine.Step()) {
        outputs[result.request_id] = std::move(result.output_tokens);
      }
    }
    return outputs;
  };

  const auto unmerged = run(InferMode::kUnmerged, -1);
  const auto mixture = run(InferMode::kMixture, merged_candidate);
  EXPECT_EQ(unmerged, mixture) << "seed " << seed;

  // Merged mode can only serve a homogeneous batch; check it when applicable.
  bool homogeneous = true;
  for (const Spec& spec : specs) {
    homogeneous = homogeneous && spec.adapter == specs[0].adapter;
  }
  if (homogeneous && specs[0].adapter >= 0) {
    const auto merged = run(InferMode::kMerged, specs[0].adapter);
    EXPECT_EQ(unmerged, merged) << "seed " << seed;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, EngineModeFuzzTest, ::testing::Range(0, 10));

// ---------------------------------------------------------------------------
// GEMM: random shapes x random valid configs match the reference.
class GemmFuzzTest : public ::testing::TestWithParam<int> {};

TEST_P(GemmFuzzTest, RandomShapeRandomConfig) {
  const uint64_t seed = static_cast<uint64_t>(GetParam());
  Rng rng(seed * 10007 + 3);
  const int64_t m = rng.NextInt(1, 200);
  const int64_t n = rng.NextInt(1, 150);
  const int64_t k = rng.NextInt(1, 180);
  std::vector<TileConfig> candidates = bench::DefaultCandidateConfigs();
  const TileConfig config =
      candidates[static_cast<size_t>(rng.NextBounded(candidates.size()))];
  Tensor a = Tensor::Random(Shape(m, k), rng, 1.0f);
  Tensor b = Tensor::Random(Shape(k, n), rng, 1.0f);
  Tensor c = Tensor::Zeros(Shape(m, n));
  GemmWorkspace workspace;
  GemmTiled(a, b, c, config, workspace);
  EXPECT_LT(Tensor::MaxAbsDiff(c, MatMulReference(a, b)), 1e-3f)
      << m << "x" << n << "x" << k << " " << config.ToString();
}

INSTANTIATE_TEST_SUITE_P(Seeds, GemmFuzzTest, ::testing::Range(0, 20));

// ---------------------------------------------------------------------------
// Simulator invariants under random traces and every policy.
class SimulatorInvariantTest : public ::testing::TestWithParam<int> {};

TEST_P(SimulatorInvariantTest, ConservationAndOrdering) {
  const uint64_t seed = static_cast<uint64_t>(GetParam());
  Rng rng(seed * 7 + 5);
  TraceOptions trace_options;
  trace_options.app = rng.NextDouble() < 0.5 ? AppKind::kVisualRetrieval
                                             : AppKind::kVideoAnalytics;
  trace_options.duration_s = 10.0;
  trace_options.rate_rps = rng.NextUniform(1.0, 8.0);
  trace_options.num_adapters = static_cast<int>(rng.NextInt(1, 12));
  trace_options.skewness = rng.NextDouble();
  trace_options.seed = seed;
  const std::vector<Request> trace = GenerateTrace(trace_options);
  if (trace.empty()) {
    return;
  }

  std::vector<PolicyFactory> factories = {
      [] { return MakeVloraPolicy(); },  MakeSloraPolicy,      MakePunicaPolicy,
      MakeDloraPolicy,                   MakeMergeOnlyPolicy,  MakeUnmergeOnlyPolicy,
  };
  SimOptions options;
  options.max_batch_size = static_cast<int>(rng.NextInt(4, 48));
  options.gpu_adapter_slots = static_cast<int>(rng.NextInt(2, 12));
  options.num_gpus = static_cast<int>(rng.NextInt(1, 3));
  options.prefill_chunk_tokens = rng.NextDouble() < 0.3 ? rng.NextInt(64, 512) : 0;

  const double last_arrival = trace.back().arrival_s;
  for (const PolicyFactory& factory : factories) {
    const SimMetrics metrics = RunSimulation(trace, factory, options);
    EXPECT_EQ(metrics.completed, static_cast<int64_t>(trace.size())) << "seed " << seed;
    EXPECT_GE(metrics.makespan_s, last_arrival);
    EXPECT_LE(metrics.p50_latency_ms, metrics.p90_latency_ms);
    EXPECT_LE(metrics.p90_latency_ms, metrics.p99_latency_ms);
    EXPECT_GT(metrics.avg_token_latency_ms, 0.0);
    EXPECT_GE(metrics.slo_violation_rate, 0.0);
    EXPECT_LE(metrics.slo_violation_rate, 1.0);
    EXPECT_GE(metrics.visible_swap_ms, 0.0);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SimulatorInvariantTest, ::testing::Range(0, 8));

// ---------------------------------------------------------------------------
// KV block manager model check: random op sequences against a simple model.
TEST(KvModelCheckTest, RandomOpSequences) {
  for (uint64_t seed = 0; seed < 6; ++seed) {
    Rng rng(seed * 131 + 17);
    const int64_t blocks = 16;
    KvBlockManager kv(TinyConfig(), 4, blocks);
    std::map<int64_t, int> model_refs;      // live block -> external refs
    std::vector<int64_t> cached_fifo;       // cache entries in eviction order
    auto is_cached = [&](int64_t id) {
      return std::find(cached_fifo.begin(), cached_fifo.end(), id) != cached_fifo.end();
    };
    auto model_evict_front = [&]() {
      const int64_t victim = cached_fifo.front();
      cached_fifo.erase(cached_fifo.begin());
      auto it = model_refs.find(victim);
      if (it != model_refs.end() && it->second == 0) {
        model_refs.erase(it);  // cache held the last reference
      }
    };

    for (int step = 0; step < 400; ++step) {
      const double roll = rng.NextDouble();
      if (roll < 0.35 && kv.num_free_blocks() > 0) {
        // Allocation without pressure: never evicts cache entries.
        const int64_t id = kv.AllocateBlock();
        ASSERT_GE(id, 0);
        EXPECT_FALSE(model_refs.contains(id)) << "allocated a live block";
        EXPECT_FALSE(is_cached(id));
        model_refs[id] = 1;
      } else if (roll < 0.45 && !cached_fifo.empty()) {
        // Explicit eviction mirrors the manager's order (FIFO here: this test
        // never performs lookups, so LRU order equals registration order).
        ASSERT_TRUE(kv.EvictOneCachedBlock());
        model_evict_front();
      } else if (roll < 0.6 && !model_refs.empty()) {
        auto it = model_refs.begin();
        std::advance(it, static_cast<long>(rng.NextBounded(model_refs.size())));
        if (it->second > 0) {
          kv.AddRef(it->first);
          ++it->second;
        }
      } else if (roll < 0.85 && !model_refs.empty()) {
        auto it = model_refs.begin();
        std::advance(it, static_cast<long>(rng.NextBounded(model_refs.size())));
        if (it->second > 0) {
          kv.Release(it->first);
          --it->second;
          if (it->second == 0 && !is_cached(it->first)) {
            model_refs.erase(it);
          }
        }
      } else if (!model_refs.empty()) {
        // Register a random live block under a fresh hash (cache ref).
        auto it = model_refs.begin();
        std::advance(it, static_cast<long>(rng.NextBounded(model_refs.size())));
        const uint64_t hash = seed * 100000 + static_cast<uint64_t>(step);
        if (!is_cached(it->first) && it->second > 0) {
          kv.RegisterPrefixBlock(hash, it->first);
          cached_fifo.push_back(it->first);
        }
      }
      // Invariant: external refs + cache ref match the manager's counts.
      for (const auto& [id, refs] : model_refs) {
        const int expected = refs + (is_cached(id) ? 1 : 0);
        ASSERT_EQ(kv.RefCount(id), expected) << "seed " << seed << " step " << step;
      }
      ASSERT_EQ(kv.num_cached_blocks(), static_cast<int64_t>(cached_fifo.size()));
      ASSERT_LE(kv.num_free_blocks(), blocks);
    }
  }
}

// ---------------------------------------------------------------------------
// Generator: random catalogues pack every item exactly once, all constraints
// hold, and adapter count never exceeds item count.
class GeneratorFuzzTest : public ::testing::TestWithParam<int> {};

TEST_P(GeneratorFuzzTest, PackingProperties) {
  const uint64_t seed = static_cast<uint64_t>(GetParam());
  Rng rng(seed * 37 + 11);
  AccuracyOracle oracle(seed, 0.3);
  std::vector<KnowledgeItem> items;
  const int n = static_cast<int>(rng.NextInt(1, 20));
  const VisionTask tasks[] = {VisionTask::kImageClassification, VisionTask::kObjectDetection,
                              VisionTask::kVideoClassification,
                              VisionTask::kVisualQuestionAnswering,
                              VisionTask::kImageCaptioning};
  for (int i = 0; i < n; ++i) {
    KnowledgeItem item;
    item.task = tasks[rng.NextBounded(5)];
    item.domain = std::string(VisionTaskName(item.task)) + std::to_string(i);
    item.required_accuracy = oracle.LoraAccuracy(item.task, 1) - rng.NextUniform(0.0, 15.0);
    items.push_back(item);
  }
  GeneratorOptions options;
  options.seed = seed;
  const GeneratorResult result = GenerateAdapters(items, oracle, options);
  EXPECT_LE(result.adapters.size(), items.size());
  std::vector<int> seen(items.size(), 0);
  for (const GeneratedAdapterSpec& adapter : result.adapters) {
    EXPECT_TRUE(SatisfiesRequirements(items, adapter, oracle)) << "seed " << seed;
    for (int index : adapter.item_indices) {
      ++seen[static_cast<size_t>(index)];
    }
  }
  for (int count : seen) {
    EXPECT_EQ(count, 1) << "seed " << seed;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, GeneratorFuzzTest, ::testing::Range(0, 15));

// ---------------------------------------------------------------------------
// Cluster recovery: under any replica-death sequence that leaves at least one
// replica alive, every adapter keeps a live home and no routing policy ever
// targets a dead replica, whatever the load vector looks like.
class ClusterFailureFuzzTest : public ::testing::TestWithParam<int> {};

TEST_P(ClusterFailureFuzzTest, PlacementAndRoutingSurviveDeathSequences) {
  const uint64_t seed = static_cast<uint64_t>(GetParam());
  Rng rng(seed * 104729 + 13);
  const int num_replicas = static_cast<int>(rng.NextInt(2, 6));
  const int num_adapters = static_cast<int>(rng.NextInt(1, 12));
  std::vector<double> shares(static_cast<size_t>(num_adapters));
  double total = 0.0;
  for (double& share : shares) {
    share = rng.NextUniform(0.01, 1.0);
    total += share;
  }
  for (double& share : shares) {
    share /= total;
  }
  PlacementOptions options;
  options.hot_share_threshold = rng.NextUniform(0.05, 0.5);
  options.max_hot = static_cast<int>(rng.NextInt(0, 3));
  AdapterPlacement placement = AdapterPlacement::Compute(shares, num_replicas, options);

  Router round_robin(RoutePolicy::kRoundRobin, &placement, num_replicas, 4);
  Router least_loaded(RoutePolicy::kLeastLoaded, &placement, num_replicas, 4);
  Router affinity(RoutePolicy::kAdapterAffinity, &placement, num_replicas, 4);
  Router* const routers[] = {&round_robin, &least_loaded, &affinity};

  std::vector<bool> alive(static_cast<size_t>(num_replicas), true);
  int num_alive = num_replicas;
  while (num_alive > 1) {
    int victim;
    do {
      victim = static_cast<int>(rng.NextBounded(static_cast<uint64_t>(num_replicas)));
    } while (!alive[static_cast<size_t>(victim)]);
    alive[static_cast<size_t>(victim)] = false;
    --num_alive;
    placement.Rebalance(victim);
    for (Router* router : routers) {
      router->SetReplicaAlive(victim, false);
    }

    ASSERT_EQ(placement.num_live_replicas(), num_alive);
    for (int adapter = 0; adapter < num_adapters; ++adapter) {
      const std::vector<int>& homes = placement.HomesOf(adapter);
      ASSERT_FALSE(homes.empty())
          << "seed " << seed << ": adapter " << adapter << " lost every home";
      for (int home : homes) {
        ASSERT_TRUE(alive[static_cast<size_t>(home)])
            << "seed " << seed << ": adapter " << adapter << " homed on dead replica " << home;
      }
    }

    for (int trial = 0; trial < 20; ++trial) {
      std::vector<int64_t> depths(static_cast<size_t>(num_replicas));
      for (int64_t& depth : depths) {
        depth = static_cast<int64_t>(rng.NextBounded(10));
      }
      const int adapter = static_cast<int>(rng.NextInt(-1, num_adapters - 1));
      for (Router* router : routers) {
        const RouteDecision decision = router->Pick(adapter, depths);
        ASSERT_GE(decision.replica, 0) << "seed " << seed;
        ASSERT_LT(decision.replica, num_replicas) << "seed " << seed;
        ASSERT_TRUE(alive[static_cast<size_t>(decision.replica)])
            << "seed " << seed << ": policy " << RoutePolicyName(router->policy())
            << " routed adapter " << adapter << " to dead replica " << decision.replica;
      }
    }
  }

  // With the last survivor, routing still works and owns every adapter.
  for (Router* router : routers) {
    const RouteDecision decision = router->Pick(0, std::vector<int64_t>(
                                                       static_cast<size_t>(num_replicas), 3));
    ASSERT_GE(decision.replica, 0);
    ASSERT_TRUE(alive[static_cast<size_t>(decision.replica)]);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ClusterFailureFuzzTest, ::testing::Range(0, 25));

// ---------------------------------------------------------------------------
// Disaggregated pools: under any random prefill/decode split and any death
// sequence that leaves each pool at least one survivor, every adapter keeps a
// live home in BOTH pool-local placements — a prefill home to compute the KV
// and a decode home to consume it.
class DisaggPoolFuzzTest : public ::testing::TestWithParam<int> {};

TEST_P(DisaggPoolFuzzTest, EveryAdapterKeepsALiveHomePerPool) {
  const uint64_t seed = static_cast<uint64_t>(GetParam());
  Rng rng(seed * 15485863 + 7);
  const int num_replicas = static_cast<int>(rng.NextInt(3, 7));
  const int num_prefill = static_cast<int>(rng.NextInt(1, num_replicas - 1));
  const int num_decode = num_replicas - num_prefill;
  const int num_adapters = static_cast<int>(rng.NextInt(1, 12));
  std::vector<double> shares(static_cast<size_t>(num_adapters));
  double total = 0.0;
  for (double& share : shares) {
    share = rng.NextUniform(0.01, 1.0);
    total += share;
  }
  for (double& share : shares) {
    share /= total;
  }
  PlacementOptions options;
  options.hot_share_threshold = rng.NextUniform(0.05, 0.5);
  options.max_hot = static_cast<int>(rng.NextInt(0, 3));
  // Pool-local placements over pool-local indices, exactly as ClusterServer
  // builds them in disaggregated mode.
  AdapterPlacement pools[] = {AdapterPlacement::Compute(shares, num_prefill, options),
                              AdapterPlacement::Compute(shares, num_decode, options)};
  const int pool_sizes[] = {num_prefill, num_decode};

  for (int pool = 0; pool < 2; ++pool) {
    std::vector<bool> alive(static_cast<size_t>(pool_sizes[pool]), true);
    int num_alive = pool_sizes[pool];
    while (num_alive > 1) {
      int victim;
      do {
        victim = static_cast<int>(rng.NextBounded(static_cast<uint64_t>(pool_sizes[pool])));
      } while (!alive[static_cast<size_t>(victim)]);
      alive[static_cast<size_t>(victim)] = false;
      --num_alive;
      pools[pool].Rebalance(victim);
      ASSERT_EQ(pools[pool].num_live_replicas(), num_alive);
      for (int adapter = 0; adapter < num_adapters; ++adapter) {
        const std::vector<int>& homes = pools[pool].HomesOf(adapter);
        ASSERT_FALSE(homes.empty()) << "seed " << seed << ": adapter " << adapter
                                    << " lost every home in pool " << pool;
        for (int home : homes) {
          ASSERT_TRUE(alive[static_cast<size_t>(home)])
              << "seed " << seed << ": adapter " << adapter << " homed on dead pool-"
              << pool << " replica " << home;
        }
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, DisaggPoolFuzzTest, ::testing::Range(0, 25));

// ---------------------------------------------------------------------------
// KV-handle conservation: whatever the pool split and whether a decode
// replica dies mid-run, every KvHandle the master takes ownership of is
// released by the time the workload drains — create/release counts balance,
// so no handle (and no copied KV page) can leak.
class DisaggHandleFuzzTest : public ::testing::TestWithParam<int> {};

TEST_P(DisaggHandleFuzzTest, HandleCreateAndReleaseCountsBalance) {
  const uint64_t seed = static_cast<uint64_t>(GetParam());
  Rng rng(seed * 22801763489ull + 3);
  const ModelConfig config = TinyConfig();
  const int num_replicas = static_cast<int>(rng.NextInt(3, 5));
  const int num_prefill = static_cast<int>(rng.NextInt(1, num_replicas - 2));
  const bool kill_decode = rng.NextDouble() < 0.5;

  TraceOptions trace_options;
  trace_options.app = AppKind::kVisualRetrieval;
  trace_options.duration_s = 1.0;
  trace_options.rate_rps = 20.0;
  trace_options.num_adapters = 4;
  trace_options.skewness = rng.NextUniform(0.3, 0.9);
  trace_options.seed = seed * 31 + 5;
  const std::vector<Request> trace = GenerateTrace(trace_options);
  if (trace.size() < 8u) {
    GTEST_SKIP() << "trace too short for seed " << seed;
  }

  FaultInjector fault(seed * 7 + 1);
  if (kill_decode) {
    // Some decode replica dies after a couple of completions; its queued
    // handles must be re-routed, not leaked.
    const int victim =
        num_prefill + static_cast<int>(rng.NextBounded(
                          static_cast<uint64_t>(num_replicas - num_prefill)));
    fault.KillReplicaAfter(victim, /*completed=*/static_cast<int64_t>(rng.NextBounded(3)));
  }
  RecoveryOptions recovery;
  recovery.stall_quarantine_ms = 0.0;
  recovery.backoff_base_ms = 1.0;
  recovery.health_period_ms = 2.0;
  recovery.max_attempts = 8;

  ClusterOptions options;
  options.num_replicas = num_replicas;
  options.policy = RoutePolicy::kAdapterAffinity;
  options.replica_queue_capacity = 256;
  options.server.max_batch_size = 4;
  options.disagg.enabled = true;
  options.disagg.num_prefill = num_prefill;
  options.fault = &fault;
  options.recovery = recovery;
  ClusterServer cluster(config, options);
  Rng adapter_rng(11);
  for (int i = 0; i < 4; ++i) {
    cluster.AddAdapter(LoraAdapter::Random("hfz-" + std::to_string(i), config.num_layers,
                                           config.d_model, 4, adapter_rng));
  }
  cluster.PlaceAdapters(AdapterShares(trace, 4));

  TraceMapOptions map;
  map.token_scale = 32;
  map.max_prompt_tokens = 16;
  map.max_new_tokens = 3;
  size_t submitted = 0;
  for (const Request& request : trace) {
    if (cluster.Submit(EngineRequestFromTrace(request, config, map))) {
      ++submitted;
    }
  }
  const std::vector<EngineResult> results = cluster.Drain();
  const size_t failed = cluster.TakeFailures().size();
  EXPECT_EQ(results.size() + failed, submitted) << "seed " << seed;
  cluster.Shutdown();

  const ClusterStats stats = cluster.Stats();
  EXPECT_GT(stats.handoffs, 0) << "seed " << seed;
  EXPECT_EQ(stats.handles_released, stats.handoffs)
      << "seed " << seed << ": leaked " << (stats.handoffs - stats.handles_released)
      << " KV handles";
}

INSTANTIATE_TEST_SUITE_P(Seeds, DisaggHandleFuzzTest, ::testing::Range(0, 10));

}  // namespace
}  // namespace vlora
