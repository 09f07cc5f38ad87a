// Shared helpers for the per-figure / per-table bench binaries.
//
// Every bench prints (a) what the paper reports for that experiment and
// (b) what this reproduction measures, in the same units, so the shape
// comparison recorded in EXPERIMENTS.md can be regenerated with
// `for b in build/bench/*; do $b; done`.

#ifndef VLORA_BENCH_BENCH_UTIL_H_
#define VLORA_BENCH_BENCH_UTIL_H_

#include <cstdio>
#include <string>
#include <vector>

#include "src/baselines/policies.h"
#include "src/common/table.h"
#include "src/common/trace.h"
#include "src/core/scheduler.h"
#include "src/gpusim/simulator.h"
#include "src/workload/trace_gen.h"

namespace vlora {
namespace bench {

inline void PrintHeader(const std::string& experiment, const std::string& paper_claim) {
  std::printf("\n################################################################\n");
  std::printf("# %s\n", experiment.c_str());
  std::printf("# Paper: %s\n", paper_claim.c_str());
  std::printf("################################################################\n");
}

struct NamedPolicy {
  std::string name;
  PolicyFactory factory;
};

// The four serving systems of §6.1, in the paper's comparison order.
inline std::vector<NamedPolicy> ServingSystems() {
  return {
      {"V-LoRA", [] { return MakeVloraPolicy(); }},
      {"dLoRA", [] { return MakeDloraPolicy(); }},
      {"Punica", [] { return MakePunicaPolicy(); }},
      {"S-LoRA", [] { return MakeSloraPolicy(); }},
  };
}

// The scheduler ablations of §6.3.3 (Fig 19).
inline std::vector<NamedPolicy> SchedulerAblations() {
  return {
      {"V-LoRA", [] { return MakeVloraPolicy(); }},
      {"merge-only", [] { return MakeMergeOnlyPolicy(); }},
      {"unmerge-only", [] { return MakeUnmergeOnlyPolicy(); }},
      {"dLoRA", [] { return MakeDloraPolicy(); }},
  };
}

inline double PercentReduction(double ours, double baseline) {
  if (baseline <= 0.0) {
    return 0.0;
  }
  return 100.0 * (baseline - ours) / baseline;
}

// Prints the observability artifacts of a traced run: the per-request span
// table (slowest first) and a chrome://tracing-loadable JSON file. Call after
// the traced cluster/server has shut down so the collected stream is complete.
inline void PrintTraceArtifacts(const std::vector<trace::TraceEvent>& events,
                                const std::string& json_path, int64_t dropped_events = 0,
                                size_t max_rows = 12) {
  if (dropped_events > 0) {
    std::printf("trace: ring wrapped, %lld oldest events dropped — raise "
                "TraceOptions::ring_capacity for a complete artifact\n",
                static_cast<long long>(dropped_events));
  }
  const std::vector<trace::RequestSpan> spans = trace::BuildRequestSpans(events);
  trace::RequestSpanTable(spans, max_rows).Print("Per-request spans (slowest first)");
  if (trace::WriteChromeTraceFile(events, json_path)) {
    std::string json = trace::ChromeTraceJson(events);
    int64_t exported = 0;
    const bool valid = trace::ValidateChromeTraceJson(json, &exported);
    std::printf("trace: %zu events -> %s (%lld records, %s); load via chrome://tracing\n",
                events.size(), json_path.c_str(), static_cast<long long>(exported),
                valid ? "valid JSON" : "INVALID JSON");
  } else {
    std::printf("trace: failed to write %s\n", json_path.c_str());
  }
}

}  // namespace bench
}  // namespace vlora

#endif  // VLORA_BENCH_BENCH_UTIL_H_
