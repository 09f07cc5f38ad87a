// Trace-overhead guard: the tracer's hot path must stay cheap enough that it
// can be left on in production. Runs the same deterministic single-threaded
// engine workload as pairs of serves, one untraced and one traced, back to
// back and alternating which goes first, and FAILS (exit 1) if the median
// per-pair overhead exceeds 5%. Host speed on a shared machine drifts by up
// to 2x within seconds, so separate minima of each arm compare different
// seconds of the host and read the drift as overhead. A pair's two serves
// run within about 10 ms of each other and see one speed; the median over
// 201 pairs ignores the pairs that a speed change or a preemption split.
// On a shared 4-core AVX2 host the median reads 3.1-4.5% run to run. The
// traced serve's ring holds every event it emits; a run that drops any
// FAILS, since a wrapping ring overwrites events instead of recording them.
// The always-on MetricsRegistry has no off switch, so its cost is estimated
// instead: measured ns per relaxed counter RMW (Counter's RelaxedAtomic)
// times the counter ops one serve performs, held to the same 5% budget.
// scripts/verify.sh and CI run this as a gate.

#include <algorithm>
#include <cstdio>
#include <memory>
#include <vector>

#include "bench/bench_util.h"
#include "src/common/stats.h"
#include "src/common/stopwatch.h"
#include "src/common/trace.h"
#include "src/core/server.h"

namespace vlora {
namespace {

EngineRequest MakeRequest(int64_t id, int adapter, int prompt_len) {
  EngineRequest request;
  request.id = id;
  request.adapter_id = adapter;
  for (int i = 0; i < prompt_len; ++i) {
    request.prompt_tokens.push_back(2 + (i % 50));
  }
  request.max_new_tokens = 3;
  request.eos_token = -1;
  return request;
}

// One full serve of a fixed request set; batch steps and kernel dispatches
// are exactly the instrumented paths.
double RunWorkloadMs(const ModelConfig& config, int num_requests) {
  VloraServer server(config);
  Rng rng(23);
  server.AddAdapter(std::make_unique<LoraAdapter>(
      LoraAdapter::Random("overhead-a", config.num_layers, config.d_model, 4, rng)));
  server.AddAdapter(std::make_unique<LoraAdapter>(
      LoraAdapter::Random("overhead-b", config.num_layers, config.d_model, 4, rng)));
  for (int64_t id = 0; id < num_requests; ++id) {
    server.Submit(MakeRequest(id, static_cast<int>(id % 2), 8 + static_cast<int>(id % 5)));
  }
  Stopwatch timer;
  const std::vector<EngineResult> results = server.RunAll();
  const double elapsed_ms = timer.ElapsedMillis();
  VLORA_CHECK(static_cast<int>(results.size()) == num_requests);
  return elapsed_ms;
}

// Direct cost of one Counter::Increment (a single explicitly relaxed
// fetch_add), min of a few tight loops.
double CounterNsPerOp() {
  Counter* const scratch = MetricsRegistry::Global().counter("bench.trace.scratch");
  constexpr int64_t kOps = 2000000;
  double best_ns = 0.0;
  for (int rep = 0; rep < 3; ++rep) {
    Stopwatch timer;
    for (int64_t i = 0; i < kOps; ++i) {
      scratch->Increment();
    }
    const double ns = timer.ElapsedMillis() * 1e6 / static_cast<double>(kOps);
    best_ns = rep == 0 ? ns : std::min(best_ns, ns);
  }
  return best_ns;
}

int Run() {
  bench::PrintHeader("Trace overhead guard — tracing on vs off",
                     "not covered; engineering budget: <= 5% overhead with tracing enabled");
  const ModelConfig config = TinyConfig();
  const int kRequests = 48;
  const int kPairs = 201;
  const int64_t kRingCapacity = int64_t{1} << 13;

  // Warm-up run (page-in, allocator steady state) before any timing.
  (void)RunWorkloadMs(config, kRequests);

  SampleStats off_ms;
  SampleStats on_ms;
  SampleStats overhead_pct;  // per pair
  int64_t events = 0;
  int64_t dropped = 0;
  auto traced = [&] {
    trace::TraceSession session(trace::TraceOptions{.ring_capacity = kRingCapacity});
    const double ms = RunWorkloadMs(config, kRequests);
    session.Stop();
    events = static_cast<int64_t>(session.Collect().size());
    dropped = std::max(dropped, session.dropped_events());
    return ms;
  };
  for (int pair = 0; pair < kPairs; ++pair) {
    // Alternate the order so a warm-cache or drift bias on the second serve
    // of a pair lands on each arm equally often.
    double off = 0.0;
    double on = 0.0;
    if (pair % 2 == 0) {
      off = RunWorkloadMs(config, kRequests);
      on = traced();
    } else {
      on = traced();
      off = RunWorkloadMs(config, kRequests);
    }
    off_ms.Add(off);
    on_ms.Add(on);
    overhead_pct.Add(100.0 * (on - off) / off);
  }

  // Always-on metrics: count the counter increments one serve performs (the
  // snapshot delta) and price them at the measured per-op cost of a relaxed
  // fetch_add.
  const MetricsRegistry::Snapshot before = MetricsRegistry::Global().Snap();
  (void)RunWorkloadMs(config, kRequests);
  const MetricsRegistry::Snapshot after = MetricsRegistry::Global().Snap();
  int64_t metric_ops = 0;
  for (const auto& [name, value] : after.counters) {
    const auto it = before.counters.find(name);
    metric_ops += value - (it == before.counters.end() ? 0 : it->second);
  }
  const double ns_per_op = CounterNsPerOp();
  const double metrics_ms = static_cast<double>(metric_ops) * ns_per_op / 1e6;
  const double metrics_pct = 100.0 * metrics_ms / off_ms.Median();

  const double overhead = overhead_pct.Median();
  AsciiTable table({"config", "median ms", "overhead"});
  table.AddRow({"tracing off", AsciiTable::FormatDouble(off_ms.Median(), 3), "-"});
  table.AddRow({"tracing on", AsciiTable::FormatDouble(on_ms.Median(), 3),
                AsciiTable::FormatDouble(overhead, 2) + "% (pairs p25 " +
                    AsciiTable::FormatDouble(overhead_pct.Percentile(25.0), 2) + "%, p75 " +
                    AsciiTable::FormatDouble(overhead_pct.Percentile(75.0), 2) + "%)"});
  table.AddRow({"always-on metrics (est.)", AsciiTable::FormatDouble(metrics_ms, 3),
                AsciiTable::FormatDouble(metrics_pct, 2) + "%"});
  table.Print("Median of " + std::to_string(kPairs) +
              " back-to-back off/on pairs (alternating order), " + std::to_string(kRequests) +
              " requests per serve; overhead = median per-pair (on - off) / off; metrics row = " +
              std::to_string(metric_ops) + " counter ops x " +
              AsciiTable::FormatDouble(ns_per_op, 1) + " ns/op");
  std::printf("traced serve: %lld events kept, %lld dropped (ring of %lld)\n",
              static_cast<long long>(events), static_cast<long long>(dropped),
              static_cast<long long>(kRingCapacity));

  // A ring that wraps overwrites events instead of keeping them, so the
  // traced arm would no longer measure what tracing costs.
  if (dropped > 0) {
    std::printf("FAIL: the traced serve dropped %lld events; size the ring to the run\n",
                static_cast<long long>(dropped));
    return 1;
  }
  const double kBudgetPct = 5.0;
  if (overhead > kBudgetPct) {
    std::printf("FAIL: tracing-on overhead %.2f%% exceeds the %.1f%% budget\n", overhead,
                kBudgetPct);
    return 1;
  }
  if (metrics_pct > kBudgetPct) {
    std::printf("FAIL: always-on metrics cost %.2f%% exceeds the %.1f%% budget\n", metrics_pct,
                kBudgetPct);
    return 1;
  }
  std::printf("OK: tracing-on overhead %.2f%% and metrics cost %.2f%% within the %.1f%% budget\n",
              overhead, metrics_pct, kBudgetPct);
  return 0;
}

}  // namespace
}  // namespace vlora

int main() { return vlora::Run(); }
