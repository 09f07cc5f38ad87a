// servebench: the serving benchmark (see README.md in this directory).
//
//   servebench --workload NAME --seed N --seconds S --trace 0|1 [--out-dir DIR]
//
// One load-generator thread drives a ClusterServer through a seeded list of
// requests: set up the cluster several times back to back (setup_s is their
// median), warm up, then run the timed phase and check every result. With
// --trace 0 the run prints the end-to-end metrics; with --trace 1 it runs an
// untraced and a traced slice of the workload and prints the per-layer
// metrics, read from the tracer's events and from standalone probes of each
// module's public functions. The last line of stdout is one JSON object.

#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <fstream>
#include <memory>
#include <mutex>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "servebench/layers.h"
#include "servebench/workloads.h"
#include "src/common/stopwatch.h"

namespace servebench {
namespace {

using vlora::ClusterServer;
using vlora::ClusterStats;
using vlora::EngineRequest;
using vlora::EngineResult;
using vlora::Stopwatch;

constexpr int kSetups = 15;
constexpr int kSampleChecks = 16;
// Share of re-run samples that must match the cluster's output token for
// token. Batched, merged and mixture steps sum in a different order than a
// lone unmerged request, so a greedy argmax can flip on a near tie.
constexpr double kSampleMatchFloor = 0.75;
constexpr double kStallTimeoutMs = 60000.0;
constexpr size_t kCodecSamples = 256;
constexpr size_t kChromeTraceEvents = 50000;
constexpr uint64_t kWarmupSalt = 0x57A2A1ull << 32;
// The traced runs of the in-process workloads also push this many requests
// through a control_plane cluster, so the process front end and the wire are
// measured on every workload.
constexpr int64_t kProcessProbeRequests = 20000;
// Events one request of a workload leaves in the busiest thread's ring
// (batch steps and kernel dispatches on a replica worker; admission and
// routing on the generator thread), measured with about 30% headroom. The
// traced slice is cut so it fits kTraceRingEvents per thread (~21 MB).
constexpr int64_t kTraceEventsPerRequest[] = {300, 60, 4};
constexpr int64_t kTraceRingEvents = 1 << 18;

double NowMs() {
  static const auto origin = std::chrono::steady_clock::now();
  return std::chrono::duration<double, std::milli>(std::chrono::steady_clock::now() - origin)
      .count();
}

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string out_dir = ".";
};

bool ParseArgs(int argc, char** argv, Args* args) {
  if (argc % 2 != 1) {
    return false;
  }
  try {
    for (int i = 1; i + 1 < argc; i += 2) {
      const std::string flag = argv[i];
      const std::string value = argv[i + 1];
      if (flag == "--workload") {
        args->workload = value;
      } else if (flag == "--seed") {
        args->seed = std::stoull(value);
      } else if (flag == "--seconds") {
        args->seconds = std::stod(value);
      } else if (flag == "--trace" && (value == "0" || value == "1")) {
        args->trace = value == "1";
      } else if (flag == "--out-dir") {
        args->out_dir = value;
      } else {
        return false;
      }
    }
  } catch (const std::exception&) {  // std::stoull / std::stod on a malformed number
    return false;
  }
  return !args->workload.empty() && args->seconds > 0.0 && args->seconds <= 3600.0;
}

struct Completion {
  int64_t id = 0;
  double ms = 0.0;
};

// Completions reported by the cluster's observer (on replica threads), taken
// by the generator thread. The generator polls instead of sleeping on a
// condition variable: a woken thread tends to be placed on its waker's CPU,
// and a generator sharing a core with a replica worker slowed whole runs of
// the closed loops by up to a quarter.
class CompletionFeed {
 public:
  void Push(int64_t id, double ms) {
    std::lock_guard<std::mutex> lock(mutex_);
    items_.push_back({id, ms});
    pending_.store(items_.size(), std::memory_order_release);
  }

  // Swaps the queued completions into *out, polling up to `timeout_ms` for
  // the first one.
  void Take(std::vector<Completion>* out, double timeout_ms) {
    out->clear();
    const auto deadline = std::chrono::steady_clock::now() +
                          std::chrono::duration<double, std::milli>(std::max(0.0, timeout_ms));
    while (pending_.load(std::memory_order_acquire) == 0 &&
           std::chrono::steady_clock::now() < deadline) {
      std::this_thread::yield();
    }
    std::lock_guard<std::mutex> lock(mutex_);
    out->swap(items_);
    pending_.store(0, std::memory_order_relaxed);
  }

 private:
  std::mutex mutex_;
  std::vector<Completion> items_;
  std::atomic<size_t> pending_{0};
};

struct Phase {
  int64_t size = 0;
  int64_t sent = 0;
  int64_t completed = 0;    // completions the observer reported
  int64_t succeeded = 0;    // completed, exactly one result, and the result passed the check
  int64_t bad_outputs = 0;  // malformed, duplicate or unknown results
  double wall_ms = 0.0;     // phase start -> last completion
  std::vector<double> latency_ms;
  std::vector<double> token_latency_ms;
  std::vector<double> late_ms;
  std::vector<double> submit_us;
  int64_t slo_met = 0;
  int64_t prompt_tokens = 0;
  int64_t reused_tokens = 0;
  std::vector<int64_t> kept_index;  // results kept for later checks, with their indexes
  std::vector<EngineResult> kept;

  int64_t failed() const { return size - succeeded; }
  double throughput_rps() const { return wall_ms > 0.0 ? completed / wall_ms * 1e3 : 0.0; }
};

bool CheckResult(const WorkloadSpec& spec, const EngineRequest& request,
                 const EngineResult& result) {
  const auto prompt = static_cast<int64_t>(request.prompt_tokens.size());
  if (result.reused_tokens < 0 || result.reused_tokens > prompt ||
      result.prefill_tokens + result.reused_tokens != prompt) {
    return false;
  }
  if (request.use_task_head) {
    return result.output_tokens.empty() && result.head_option >= 0 &&
           result.head_option < kHeadOptions;
  }
  if (static_cast<int64_t>(result.output_tokens.size()) != request.max_new_tokens) {
    return false;
  }
  return std::all_of(result.output_tokens.begin(), result.output_tokens.end(), [&](int32_t token) {
    return token >= 0 && token < spec.config.vocab_size;
  });
}

[[noreturn]] void Stalled(const std::string& phase, int64_t finished, int64_t size) {
  std::fprintf(stderr, "servebench: phase %s made no progress for %.0f s (%lld of %lld finished)\n",
               phase.c_str(), kStallTimeoutMs / 1e3, static_cast<long long>(finished),
               static_cast<long long>(size));
  std::_Exit(3);
}

// Sends every request of `source` (ids id_base + index) through the cluster,
// waits for all of them, drains and checks the results. Results whose index
// is in `keep` (sorted) are kept in the returned phase.
Phase RunPhase(const std::string& name, ClusterServer& cluster, CompletionFeed& feed,
               const WorkloadSpec& spec, const RequestSource& source, int64_t id_base,
               const std::vector<int64_t>& keep, bool time_submits) {
  enum State : uint8_t { kUnsent, kSent, kDone, kFailed };
  const int64_t n = source.size();
  const auto un = static_cast<size_t>(n);
  Phase phase;
  phase.size = n;
  // Per-request state is a few bytes: times relative to the phase start.
  std::vector<float> start_ms(un, 0.0f);
  std::vector<float> latency_ms(un, 0.0f);
  std::vector<float> late_ms(un, 0.0f);
  std::vector<uint16_t> out_tokens(un, 1);
  std::vector<uint8_t> state(un, kUnsent);
  if (time_submits) {
    phase.submit_us.reserve(un);
  }
  int64_t finished = 0;
  const double t0 = NowMs();
  double last_done = t0;
  double last_progress = t0;

  // Closed loop: each finished request frees its slot, which continues the
  // request's chain (the next turn of a session) or starts the next chain.
  const int64_t turns = spec.turns_per_chain;
  const int64_t chains = n / turns;
  int64_t next_chain = 0;
  std::vector<std::pair<int64_t, double>> freed;  // (finished index or -1, time freed)

  auto send = [&](int64_t idx, double due_ms) {
    EngineRequest request = source.Make(idx);
    request.id = id_base + idx;
    const auto i = static_cast<size_t>(idx);
    out_tokens[i] = static_cast<uint16_t>(request.use_task_head ? 1 : request.max_new_tokens);
    const double now = NowMs();
    late_ms[i] = static_cast<float>(now - due_ms);
    start_ms[i] = static_cast<float>((spec.open_loop ? due_ms : now) - t0);
    state[i] = kSent;
    ++phase.sent;
    last_progress = now;
    Stopwatch watch;
    const bool accepted = cluster.Submit(std::move(request));
    if (time_submits) {
      phase.submit_us.push_back(watch.ElapsedMicros());
    }
    if (!accepted) {
      state[i] = kFailed;
      ++finished;
      freed.emplace_back(idx, NowMs());
    }
  };
  auto refill = [&] {
    // send() appends to `freed` when Submit refuses, so index, not iterate.
    for (size_t f = 0; f < freed.size(); ++f) {
      const auto [from, due] = freed[f];
      int64_t idx = -1;
      if (from >= 0 && (from + 1) % turns != 0) {
        idx = from + 1;
      } else if (next_chain < chains) {
        idx = (next_chain++) * turns;
      }
      if (idx >= 0) {
        send(idx, due);
      }
    }
    freed.clear();
  };
  std::vector<Completion> batch;
  auto absorb = [&](double timeout_ms) {
    feed.Take(&batch, timeout_ms);
    for (const Completion& c : batch) {
      const int64_t idx = c.id - id_base;
      if (idx < 0 || idx >= n || state[static_cast<size_t>(idx)] != kSent) {
        ++phase.bad_outputs;
        continue;
      }
      state[static_cast<size_t>(idx)] = kDone;
      latency_ms[static_cast<size_t>(idx)] =
          static_cast<float>(c.ms - t0) - start_ms[static_cast<size_t>(idx)];
      last_done = std::max(last_done, c.ms);
      ++phase.completed;
      ++finished;
      freed.emplace_back(idx, c.ms);
    }
    if (batch.empty()) {
      for (const vlora::FailedRequest& failure : cluster.TakeFailures()) {
        const int64_t idx = failure.request_id - id_base;
        if (idx >= 0 && idx < n && state[static_cast<size_t>(idx)] == kSent) {
          state[static_cast<size_t>(idx)] = kFailed;
          ++finished;
          freed.emplace_back(idx, NowMs());
        }
      }
    }
    const double now = NowMs();
    if (!batch.empty()) {
      last_progress = now;
    } else if (now - last_progress > kStallTimeoutMs) {
      Stalled(name, finished, n);
    }
    if (spec.open_loop) {
      freed.clear();
    }
  };

  if (spec.open_loop) {
    for (int64_t idx = 0; idx < n; ++idx) {
      const double due = t0 + source.DueMs(idx);
      for (double now = NowMs(); now < due; now = NowMs()) {
        absorb(due - now);
      }
      send(idx, due);
    }
  } else {
    for (int slot = 0; slot < spec.window; ++slot) {
      freed.emplace_back(-1, t0);
    }
    refill();
  }
  while (finished < n) {
    absorb(50.0);
    if (!spec.open_loop) {
      refill();
    }
  }
  phase.wall_ms = last_done - t0;

  // Output check: exactly one well-formed result per request.
  std::vector<uint8_t> result_ok(un, 0);
  {
    std::vector<uint8_t> seen(un, 0);
    std::vector<EngineResult> results = cluster.Drain();
    auto kept_it = keep.begin();
    std::sort(results.begin(), results.end(), [](const EngineResult& a, const EngineResult& b) {
      return a.request_id < b.request_id;
    });
    for (EngineResult& result : results) {
      const int64_t idx = result.request_id - id_base;
      if (idx < 0 || idx >= n || seen[static_cast<size_t>(idx)] != 0) {
        ++phase.bad_outputs;
        continue;
      }
      seen[static_cast<size_t>(idx)] = 1;
      const EngineRequest request = source.Make(idx);
      if (!CheckResult(spec, request, result)) {
        ++phase.bad_outputs;
        continue;
      }
      result_ok[static_cast<size_t>(idx)] = 1;
      phase.prompt_tokens += static_cast<int64_t>(request.prompt_tokens.size());
      phase.reused_tokens += result.reused_tokens;
      while (kept_it != keep.end() && *kept_it < idx) {
        ++kept_it;
      }
      if (kept_it != keep.end() && *kept_it == idx) {
        phase.kept_index.push_back(idx);
        phase.kept.push_back(std::move(result));
      }
    }
  }
  for (int64_t idx = 0; idx < n; ++idx) {
    const auto i = static_cast<size_t>(idx);
    if (state[i] != kDone) {
      continue;
    }
    const double latency = latency_ms[i];
    phase.latency_ms.push_back(latency);
    phase.token_latency_ms.push_back(latency / out_tokens[i]);
    phase.late_ms.push_back(late_ms[i]);
    if (result_ok[i] != 0) {
      ++phase.succeeded;
      const double slo = source.SloMs(idx);
      if (slo <= 0.0 || latency <= slo) {
        ++phase.slo_met;
      }
    }
  }
  std::printf("phase %-10s sent=%lld succeeded=%lld failed=%lld bad_outputs=%lld wall_s=%.3f\n",
              name.c_str(), static_cast<long long>(phase.sent),
              static_cast<long long>(phase.succeeded), static_cast<long long>(phase.failed()),
              static_cast<long long>(phase.bad_outputs), phase.wall_ms / 1e3);
  return phase;
}

std::vector<int64_t> SampleIndexes(uint64_t seed, int64_t n, size_t count) {
  vlora::Rng rng(seed ^ 0xC0FFEEull);
  std::vector<int64_t> indexes;
  for (size_t i = 0; i < count; ++i) {
    indexes.push_back(rng.NextInt(0, n - 1));
  }
  std::sort(indexes.begin(), indexes.end());
  indexes.erase(std::unique(indexes.begin(), indexes.end()), indexes.end());
  return indexes;
}

// Re-runs the kept requests one at a time on `engine` (the replicas' model,
// unmerged) and counts the results that match the cluster's token for token.
int64_t CountSampleMatches(vlora::InferenceEngine& engine, const RequestSource& source,
                           const Phase& phase, int64_t id_base) {
  int64_t matches = 0;
  for (size_t i = 0; i < phase.kept.size(); ++i) {
    EngineRequest request = source.Make(phase.kept_index[i]);
    request.id = id_base + phase.kept_index[i];
    const EngineResult solo = engine.RunToCompletion(std::move(request));
    if (solo.output_tokens == phase.kept[i].output_tokens &&
        solo.head_option == phase.kept[i].head_option) {
      ++matches;
    }
  }
  return matches;
}

std::unique_ptr<ClusterServer> SetUp(const WorkloadSpec& spec,
                                     const std::vector<vlora::LoraAdapter>& adapters,
                                     const std::vector<double>& shares) {
  auto cluster = std::make_unique<ClusterServer>(spec.config, spec.cluster);
  for (const vlora::LoraAdapter& adapter : adapters) {
    cluster->AddAdapter(adapter);
  }
  cluster->PlaceAdapters(shares);
  return cluster;
}

// Throughput and median latency of a short control_plane phase: the
// ProcessReplica front end, the wire and the executor loop, with no engine
// work to speak of.
struct ProcessProbe {
  double rps = 0.0;
  double latency_ms_p50 = 0.0;
  int64_t requests = 0;
  int64_t bad_outputs = 0;
};

ProcessProbe ProbeProcessBackend(uint64_t seed) {
  WorkloadSpec spec;
  LookupWorkload("control_plane", &spec);
  const std::vector<vlora::LoraAdapter> adapters = MakeAdapters(spec);
  const RequestSource source(spec, seed, kProcessProbeRequests);
  CompletionFeed feed;  // outlives the cluster, whose observer points at it
  std::unique_ptr<ClusterServer> cluster = SetUp(spec, adapters, source.AdapterShares());
  cluster->SetCompletionObserver([&feed](int64_t id, double) { feed.Push(id, NowMs()); });
  const Phase phase = RunPhase("process", *cluster, feed, spec, source, 0, {}, false);
  return {phase.throughput_rps(), Percentile(phase.latency_ms, 50.0), phase.size,
          phase.bad_outputs + phase.failed()};
}

double PeakRssMb(ClusterServer& cluster, int* processes) {
  double total = VmHwmMb(::getpid());
  *processes = 1;
  for (int r = 0; r < cluster.num_replicas(); ++r) {
    if (auto* process = dynamic_cast<vlora::ProcessReplica*>(&cluster.replica(r))) {
      total += VmHwmMb(process->executor_pid());
      ++*processes;
    }
  }
  return total;
}

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
  int64_t samples = 0;
  std::string base;  // what a ratio is taken over, or "n/a" when the source is absent
};

double Share(double numerator, double denominator) {
  return denominator > 0.0 ? numerator / denominator : 0.0;
}

std::string Ratio(double numerator, double denominator, const char* what) {
  std::ostringstream out;
  out << numerator << " / " << denominator << " " << what;
  return out.str();
}

void PrintTable(const char* title, const std::vector<Metric>& metrics) {
  std::printf("\n%s\n%-32s %14s  %-12s %9s  %s\n", title, "metric", "value", "unit", "samples",
              "base");
  for (const Metric& m : metrics) {
    std::printf("%-32s %14.6g  %-12s %9lld  %s\n", m.name.c_str(), m.value, m.unit.c_str(),
                static_cast<long long>(m.samples), m.base.c_str());
  }
}

void PrintJson(bool correct, int64_t attempted, int64_t failed,
               const std::vector<Metric>& metrics) {
  std::printf("\n{\"correct\": %s, \"attempted\": %lld, \"failed\": %lld, \"metrics\": {",
              correct ? "true" : "false", static_cast<long long>(attempted),
              static_cast<long long>(failed));
  for (size_t i = 0; i < metrics.size(); ++i) {
    std::printf("%s\"%s\": {\"value\": %.10g, \"unit\": \"%s\"}", i == 0 ? "" : ", ",
                metrics[i].name.c_str(), metrics[i].value, metrics[i].unit.c_str());
  }
  std::printf("}}\n");
  std::fflush(stdout);
}

double Sum(const std::vector<double>& values) {
  double total = 0.0;
  for (double v : values) {
    total += v;
  }
  return total;
}

// Cluster and server counters over the traced slice.
struct SliceCounters {
  double submitted = 0.0;
  double hits = 0.0;
  double spills = 0.0;
  double max_completed = 0.0;   // per replica
  double mean_completed = 0.0;  // per replica
  int64_t peak_depth = 0;
  vlora::ServerStats server;  // iteration and switch counts only
};

SliceCounters Delta(const ClusterStats& before, const ClusterStats& after) {
  SliceCounters slice;
  slice.submitted = static_cast<double>(after.submitted - before.submitted);
  slice.hits = static_cast<double>(after.affinity_hits - before.affinity_hits);
  slice.spills = static_cast<double>(after.affinity_spills - before.affinity_spills);
  double sum_completed = 0.0;
  for (size_t r = 0; r < after.replicas.size(); ++r) {
    const vlora::ReplicaSnapshot& now = after.replicas[r];
    const vlora::ReplicaSnapshot& then = before.replicas[r];
    const auto done = static_cast<double>(now.completed - then.completed);
    slice.max_completed = std::max(slice.max_completed, done);
    sum_completed += done;
    slice.peak_depth = std::max(slice.peak_depth, now.peak_depth);
    vlora::ServerStats& s = slice.server;
    s.iterations += now.server.iterations - then.server.iterations;
    s.merged_iterations += now.server.merged_iterations - then.server.merged_iterations;
    s.mixture_iterations += now.server.mixture_iterations - then.server.mixture_iterations;
    s.unmerged_iterations += now.server.unmerged_iterations - then.server.unmerged_iterations;
    s.mode_switches += now.server.mode_switches - then.server.mode_switches;
    s.adapter_swap_ins += now.server.adapter_swap_ins - then.server.adapter_swap_ins;
  }
  slice.mean_completed = Share(sum_completed, static_cast<double>(after.replicas.size()));
  return slice;
}

// Writes the first kChromeTraceEvents events as a Chrome trace and validates
// the file by reading it back. Returns the validated event count, 0 on failure.
int64_t WriteChromeTrace(const std::vector<vlora::trace::TraceEvent>& events,
                         const std::string& path) {
  const std::vector<vlora::trace::TraceEvent> head(
      events.begin(),
      events.begin() + static_cast<std::ptrdiff_t>(std::min(events.size(), kChromeTraceEvents)));
  if (!vlora::trace::WriteChromeTraceFile(head, path)) {
    return 0;
  }
  std::ifstream in(path);
  std::stringstream json;
  json << in.rdbuf();
  int64_t count = 0;
  return vlora::trace::ValidateChromeTraceJson(json.str(), &count) ? count : 0;
}

int64_t WarmupCount(const WorkloadSpec& spec, int64_t n) {
  if (spec.open_loop) {
    return std::max<int64_t>(n / 8, 8);
  }
  return std::max<int64_t>(n / 8, 2LL * spec.window * spec.turns_per_chain);
}

int Run(const Args& args) {
  WorkloadSpec spec;
  if (!LookupWorkload(args.workload, &spec)) {
    std::fprintf(stderr, "servebench: unknown workload '%s'\n", args.workload.c_str());
    return 2;
  }
  NowMs();
  const double probe_start_ms = HostProbeMs();
  const int64_t n = std::max<int64_t>(1, std::llround(args.seconds * spec.nominal_rps));
  const std::vector<vlora::LoraAdapter> adapters = MakeAdapters(spec);
  const RequestSource warmup(spec, args.seed ^ kWarmupSalt, WarmupCount(spec, n));
  // The traced run measures two slices of at most a quarter of the requests,
  // an untraced reference and the traced slice, small enough for the trace
  // rings. The slices send the same requests apart from their images, so the
  // traced slice finds no prefixes the reference cached.
  const int64_t events_per_request = kTraceEventsPerRequest[static_cast<int>(spec.kind)];
  const int64_t slice =
      std::max<int64_t>(1, std::min(n / 4, kTraceRingEvents / events_per_request));
  const RequestSource timed(spec, args.seed, args.trace ? slice : n);
  const RequestSource reference(spec, args.seed, timed.size(), /*image_salt=*/1);
  const RequestSource priming(spec, args.seed ^ kWarmupSalt,
                              spec.open_loop ? 16 : spec.window * spec.turns_per_chain,
                              /*image_salt=*/2);
  const std::vector<double> shares = timed.AdapterShares();
  std::printf("servebench workload=%s seed=%llu seconds=%g trace=%d backend=%s replicas=%d "
              "requests=%lld host_cores=%u\n",
              spec.name.c_str(), static_cast<unsigned long long>(args.seed), args.seconds,
              args.trace ? 1 : 0, vlora::ReplicaBackendName(spec.cluster.backend),
              spec.cluster.num_replicas, static_cast<long long>(timed.size()),
              std::thread::hardware_concurrency());

  // Setup: construct, register and place, several times back to back. The
  // last cluster serves the run; the others are torn down before the next
  // one is built so only one fleet is ever resident.
  std::vector<double> setup_s;
  CompletionFeed feed;  // outlives the cluster, whose observer points at it
  std::unique_ptr<ClusterServer> cluster;
  for (int i = 0; i < kSetups; ++i) {
    cluster.reset();
    Stopwatch watch;
    cluster = SetUp(spec, adapters, shares);
    setup_s.push_back(watch.ElapsedSeconds());
  }
  cluster->SetCompletionObserver([&feed](int64_t id, double) { feed.Push(id, NowMs()); });

  const std::vector<int64_t> samples = SampleIndexes(args.seed, timed.size(), kSampleChecks);
  std::vector<int64_t> keep = samples;
  if (args.trace) {
    for (int64_t i = 0; i < std::min<int64_t>(timed.size(), kCodecSamples); ++i) {
      keep.push_back(i);
    }
    std::sort(keep.begin(), keep.end());
    keep.erase(std::unique(keep.begin(), keep.end()), keep.end());
  }

  const Phase warm = RunPhase("warmup", *cluster, feed, spec, warmup, 0, {}, false);
  int64_t id_base = warmup.size();
  Phase ref;
  std::vector<vlora::trace::TraceEvent> events;
  int64_t dropped_events = 0;
  ClusterStats before;
  std::unique_ptr<vlora::trace::TraceSession> session;
  if (args.trace) {
    ref = RunPhase("reference", *cluster, feed, spec, reference, id_base, {}, false);
    id_base += reference.size();
    vlora::trace::TraceOptions options;
    options.ring_capacity = events_per_request * (priming.size() + timed.size()) + 4096;
    session = std::make_unique<vlora::trace::TraceSession>(options);
    // Each thread allocates its ring at its first event; a short priming
    // phase keeps that out of the traced slice, whose events start at its
    // first admission.
    (void)RunPhase("priming", *cluster, feed, spec, priming, id_base, {}, false);
    id_base += priming.size();
    before = cluster->Stats();
  }
  Phase run = RunPhase(args.trace ? "traced" : "timed", *cluster, feed, spec, timed, id_base,
                       keep, args.trace);
  if (session != nullptr) {
    session->Stop();
    events = session->Collect();
    dropped_events = session->dropped_events();
    session.reset();
    const int64_t first_id = id_base;
    events.erase(events.begin(),
                 std::find_if(events.begin(), events.end(), [first_id](const auto& event) {
                   return event.kind == vlora::trace::TraceEventKind::kRequestAdmitted &&
                          event.request_id >= first_id;
                 }));
  }
  int processes = 1;
  const double peak_rss_mb = PeakRssMb(*cluster, &processes);
  const ClusterStats stats = cluster->Stats();
  cluster->Shutdown();
  cluster.reset();

  // Re-run the sampled requests on a standalone engine built like a replica's.
  vlora::InferenceEngine solo(spec.config, spec.cluster.server.engine);
  std::vector<const vlora::LoraAdapter*> adapter_ptrs;
  for (const vlora::LoraAdapter& adapter : adapters) {
    adapter_ptrs.push_back(&adapter);
    solo.RegisterAdapter(&adapter);
  }
  Phase sampled;
  for (size_t i = 0; i < run.kept.size(); ++i) {
    if (std::binary_search(samples.begin(), samples.end(), run.kept_index[i])) {
      sampled.kept_index.push_back(run.kept_index[i]);
      sampled.kept.push_back(run.kept[i]);
    }
  }
  const int64_t matches = CountSampleMatches(solo, timed, sampled, id_base);
  const double match_rate =
      sampled.kept.empty() ? 1.0 : Share(matches, static_cast<double>(sampled.kept.size()));
  const int64_t bad = warm.bad_outputs + ref.bad_outputs + run.bad_outputs;
  bool correct = bad == 0 && match_rate >= kSampleMatchFloor;
  std::printf("check: bad_outputs=%lld sample_match=%lld/%zu (floor %.2f) cluster failed=%lld "
              "rejected=%lld retries=%lld quarantines=%lld rerouted=%lld\n",
              static_cast<long long>(bad), static_cast<long long>(matches), sampled.kept.size(),
              kSampleMatchFloor, static_cast<long long>(stats.failed),
              static_cast<long long>(stats.rejected), static_cast<long long>(stats.retries),
              static_cast<long long>(stats.quarantines), static_cast<long long>(stats.rerouted));

  std::vector<Metric> metrics;
  const auto completed = static_cast<int64_t>(run.latency_ms.size());
  const double gen_late_p99 = Percentile(run.late_ms, 99.0);
  if (!args.trace) {
    const double probe_end_ms = HostProbeMs();
    std::printf("host.probe_ms start=%.3f end=%.3f  gen.late_ms_p99=%.4f\n", probe_start_ms,
                probe_end_ms, gen_late_p99);
    metrics = {
        {"throughput_rps", run.throughput_rps(), "req/s", completed, ""},
        {"latency_p50_ms", Percentile(run.latency_ms, 50.0), "ms", completed, ""},
        {"latency_p95_ms", Percentile(run.latency_ms, 95.0), "ms", completed, ""},
        {"token_latency_p50_ms", Percentile(run.token_latency_ms, 50.0), "ms/token", completed, ""},
        {"slo_attainment", Share(run.slo_met, run.size), "fraction", run.size,
         Ratio(run.slo_met, run.size, "requests")},
        {"completed_frac", Share(run.succeeded, run.size), "fraction", run.size,
         Ratio(run.succeeded, run.size, "requests")},
        {"setup_s", Percentile(setup_s, 50.0), "s", kSetups, ""},
        {"peak_rss_mb", peak_rss_mb, "MB", processes, "VmHWM summed over the process tree"},
    };
    PrintTable("end-to-end", metrics);
    PrintJson(correct, run.size, run.failed(), metrics);
    return 0;
  }

  // ---- traced run: per-layer metrics ----
  const TraceFacts facts = AnalyzeTrace(events, kAdapterRank);
  const SliceCounters counters = Delta(before, stats);
  const bool in_process = spec.cluster.backend == vlora::ReplicaBackend::kThread;
  const int replicas = spec.cluster.num_replicas;
  const auto steps = static_cast<int64_t>(facts.step_ms.size());
  const double n_steps = std::max(1.0, static_cast<double>(steps));
  const double step_ms_total = Sum(facts.step_ms);
  const double requests = std::max(1.0, static_cast<double>(completed));
  const double iterations = std::max(1.0, static_cast<double>(counters.server.iterations));
  const auto submitted = static_cast<int64_t>(counters.submitted);

  // Standalone probes of single modules.
  std::vector<EngineRequest> codec_requests;
  std::vector<EngineResult> codec_results;
  std::vector<double> prompt_lens;
  for (size_t i = 0; i < run.kept.size() && codec_requests.size() < kCodecSamples; ++i) {
    EngineRequest request = timed.Make(run.kept_index[i]);
    request.id = id_base + run.kept_index[i];
    prompt_lens.push_back(static_cast<double>(request.prompt_tokens.size()));
    codec_requests.push_back(std::move(request));
    codec_results.push_back(run.kept[i]);
  }
  const CodecProbe codec = ProbeCodec(codec_requests, codec_results);
  const auto codec_samples = static_cast<int64_t>(codec_requests.size());
  const bool decodes = spec.kind == WorkloadKind::kVqaSessions;
  SoloProbe solo_probe;
  GemmProbe gemm;
  if (in_process) {
    const int64_t batch = std::max<int64_t>(1, std::llround(Percentile(facts.batch_sizes, 50.0)));
    solo_probe = ProbeSoloEngine(spec.config, spec.cluster.server.engine, adapter_ptrs,
                                 std::llround(Percentile(prompt_lens, 50.0)), batch, decodes);
    gemm = ReplayGemms(solo.atmm(), facts.shapes);
  }
  const double switch_ms = ProbeSwitchMs(solo);
  // The process-backend control plane: probed on its own cluster for the
  // in-process workloads, read from the untraced reference slice for
  // control_plane itself.
  ProcessProbe process{ref.throughput_rps(), Percentile(ref.latency_ms, 50.0), ref.size, 0};
  if (in_process) {
    process = ProbeProcessBackend(args.seed);
  }
  const std::string trace_path = args.out_dir + "/trace-" + spec.name + ".json";
  const int64_t trace_events = WriteChromeTrace(events, trace_path);
  std::printf("chrome trace: %s (%lld of %zu events, %s)\n", trace_path.c_str(),
              static_cast<long long>(trace_events), events.size(),
              trace_events > 0 ? "valid" : "INVALID");
  correct = correct && codec.round_trip_ok && process.bad_outputs == 0 && trace_events > 0;
  const double probe_end_ms = HostProbeMs();

  // Tracing overhead: the closed loops compare throughput, the open loop
  // (whose throughput is its offered rate) compares median latency.
  const double overhead =
      spec.open_loop
          ? Share(Percentile(run.latency_ms, 50.0), Percentile(ref.latency_ms, 50.0)) - 1.0
          : Share(ref.throughput_rps(), run.throughput_rps()) - 1.0;
  // Rows whose source is the in-process engine read "n/a" on the process
  // backend, whose executors' events are not collected.
  auto engine = [&](std::string base) { return in_process ? base : std::string("n/a"); };
  const char* process_base = in_process ? "control_plane probe" : "reference slice";
  const double mean_batch = Sum(facts.batch_sizes) / n_steps;
  const int max_batch = spec.cluster.server.max_batch_size;
  const double gflop = 1e9;
  auto size = [](const std::vector<double>& v) { return static_cast<int64_t>(v.size()); };
  metrics = {
      {"gen.late_ms_p99", gen_late_p99, "ms", size(run.late_ms), ""},
      {"cluster.submit_us_p50", Percentile(run.submit_us, 50.0), "us", size(run.submit_us), ""},
      {"cluster.submit_us_p99", Percentile(run.submit_us, 99.0), "us", size(run.submit_us), ""},
      {"cluster.route_us_p50", Percentile(facts.route_us, 50.0), "us", size(facts.route_us), ""},
      {"cluster.queue_wait_ms_p50", Percentile(facts.queue_wait_ms, 50.0), "ms",
       size(facts.queue_wait_ms), engine("")},
      {"cluster.queue_wait_ms_p95", Percentile(facts.queue_wait_ms, 95.0), "ms",
       size(facts.queue_wait_ms), engine("")},
      {"cluster.roundtrip_ms_p50", Percentile(facts.roundtrip_ms, 50.0), "ms",
       size(facts.roundtrip_ms), ""},
      {"cluster.affinity_hit_frac", Share(counters.hits, counters.submitted), "fraction", submitted,
       Ratio(counters.hits, counters.submitted, "submitted")},
      {"cluster.spill_frac", Share(counters.spills, counters.submitted), "fraction", submitted,
       Ratio(counters.spills, counters.submitted, "submitted")},
      {"cluster.replica_skew", Share(counters.max_completed, counters.mean_completed), "ratio",
       replicas, Ratio(counters.max_completed, counters.mean_completed, "max / mean completed")},
      {"cluster.peak_depth", static_cast<double>(counters.peak_depth), "count", replicas, ""},
      {"cluster.retries", static_cast<double>(stats.retries), "count", 1, "whole run"},
      {"cluster.failed", static_cast<double>(stats.failed), "count", 1, "whole run"},
      {"cluster.rejected", static_cast<double>(stats.rejected), "count", 1, "whole run"},
      {"cluster.process_rps", process.rps, "req/s", process.requests, process_base},
      {"cluster.process_latency_ms_p50", process.latency_ms_p50, "ms", process.requests,
       process_base},
      {"net.request_bytes", codec.request_bytes, "bytes", codec_samples, ""},
      {"net.result_bytes", codec.result_bytes, "bytes", codec_samples, ""},
      {"net.codec_us_per_request", codec.us_per_request, "us", codec_samples, ""},
      {"core.step_ms_p50", Percentile(facts.step_ms, 50.0), "ms", steps, engine("")},
      {"core.step_ms_p95", Percentile(facts.step_ms, 95.0), "ms", steps, engine("")},
      {"core.batch_fill_frac", steps > 0 ? mean_batch / max_batch : 0.0, "fraction", steps,
       engine(Ratio(mean_batch, max_batch, "mean batch / max batch"))},
      {"core.busy_frac", Share(step_ms_total, run.wall_ms * replicas), "fraction", steps,
       engine(Ratio(step_ms_total, run.wall_ms * replicas, "step ms / replica-wall ms"))},
      {"core.merged_frac", counters.server.merged_iterations / iterations, "fraction",
       counters.server.iterations,
       engine(Ratio(counters.server.merged_iterations, iterations, "iterations"))},
      {"core.mixture_frac", counters.server.mixture_iterations / iterations, "fraction",
       counters.server.iterations,
       engine(Ratio(counters.server.mixture_iterations, iterations, "iterations"))},
      {"core.unmerged_frac", counters.server.unmerged_iterations / iterations, "fraction",
       counters.server.iterations,
       engine(Ratio(counters.server.unmerged_iterations, iterations, "iterations"))},
      {"core.switches_per_kstep", counters.server.mode_switches * 1e3 / iterations,
       "count/kstep", counters.server.iterations,
       engine(Ratio(counters.server.mode_switches, iterations, "iterations"))},
      {"core.swap_ins_per_krequest", counters.server.adapter_swap_ins * 1e3 / requests,
       "count/kreq", completed,
       engine(Ratio(counters.server.adapter_swap_ins, requests, "requests"))},
      {"engine.prefill_step_ms_p50", Percentile(facts.prefill_step_ms, 50.0), "ms",
       size(facts.prefill_step_ms), engine("")},
      {"engine.decode_step_ms_p50", Percentile(facts.decode_step_ms, 50.0), "ms",
       size(facts.decode_step_ms), engine("")},
      {"engine.prefix_reuse_frac", Share(run.reused_tokens, run.prompt_tokens), "fraction",
       completed, Ratio(run.reused_tokens, run.prompt_tokens, "prompt tokens")},
      {"engine.solo_prefill_ms_per_token", solo_probe.prefill_ms_per_token, "ms/token",
       solo_probe.prefill_samples, engine("")},
      {"engine.solo_decode_step_ms", solo_probe.decode_step_ms, "ms", solo_probe.decode_samples,
       decodes ? "" : "n/a"},
      {"engine.non_gemm_frac", step_ms_total > 0 ? 1.0 - gemm.est_total_ms / step_ms_total : 0.0,
       "fraction", gemm.replayed_shapes,
       engine(Ratio(gemm.est_total_ms, step_ms_total, "replayed GEMM ms / step ms"))},
      {"kernels.dispatches_per_step", facts.step_dispatches / n_steps, "count", steps,
       engine(Ratio(facts.step_dispatches, n_steps, "steps"))},
      {"kernels.base_gflop_per_request", facts.base_flop / gflop / requests, "GFLOP", completed,
       engine("")},
      {"kernels.lora_gflop_per_request", facts.lora_flop / gflop / requests, "GFLOP", completed,
       engine("")},
      {"kernels.mb_per_request", facts.bytes / 1e6 / requests, "MB", completed,
       engine("computed from shapes")},
      {"kernels.gemm_gflops", gemm.gflops, "GFLOP/s", gemm.replayed_shapes, engine("")},
      {"lora.switch_ms", switch_ms, "ms", kSwitchProbeSamples, ""},
      {"host.probe_ms", 0.5 * (probe_start_ms + probe_end_ms), "ms", 2,
       Ratio(probe_start_ms, probe_end_ms, "start / end")},
      {"trace.overhead_frac", overhead, "fraction", 2,
       spec.open_loop ? "latency p50, traced vs reference" : "throughput, reference vs traced"},
      {"trace.dropped_events", static_cast<double>(dropped_events), "count",
       static_cast<int64_t>(events.size()), ""},
  };
  PrintTable("per-layer (traced run)", metrics);
  PrintJson(correct, ref.size + run.size, ref.failed() + run.failed(), metrics);
  return 0;
}

}  // namespace
}  // namespace servebench

int main(int argc, char** argv) {
  servebench::Args args;
  if (!servebench::ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: servebench --workload NAME --seed N --seconds S --trace 0|1 "
                 "[--out-dir DIR]\n");
    return 2;
  }
  return servebench::Run(args);
}
