#include "src/gpusim/simulator.h"

#include <algorithm>
#include <limits>
#include <unordered_map>
#include <unordered_set>

#include "src/common/stats.h"
#include "src/common/status.h"

namespace vlora {

namespace {

struct LiveRequest {
  Request request;
  int64_t prefilled_tokens = 0;
  int64_t decoded = 0;
  bool finished = false;
  double finish_ms = -1.0;
  double last_service_ms = -1.0;  // < 0: never scheduled

  bool prefilled() const { return prefilled_tokens >= request.input_tokens; }
};

// Per-device LRU residency set for adapters.
class ResidencySet {
 public:
  explicit ResidencySet(int slots) : slots_(slots) {}

  // Returns true if a swap-in was needed.
  bool EnsureResident(int adapter_id, int64_t tick) {
    if (adapter_id < 0) {
      return false;
    }
    auto it = last_use_.find(adapter_id);
    if (it != last_use_.end()) {
      it->second = tick;
      return false;
    }
    if (static_cast<int>(last_use_.size()) >= slots_) {
      int victim = -1;
      int64_t oldest = std::numeric_limits<int64_t>::max();
      for (const auto& [id, t] : last_use_) {
        if (t < oldest) {
          oldest = t;
          victim = id;
        }
      }
      last_use_.erase(victim);
    }
    last_use_[adapter_id] = tick;
    return true;
  }

 private:
  int slots_;
  std::unordered_map<int, int64_t> last_use_;
};

// Simulates one device over its share of the trace.
SimMetrics RunDevice(const std::vector<Request>& trace, SchedulerPolicy& policy,
                     const SimOptions& options, SampleStats& latencies,
                     std::vector<int64_t>& token_counts, std::vector<double>& request_latencies) {
  SimMetrics metrics;
  const SystemProfile& profile = policy.profile();

  std::vector<LiveRequest> live;
  size_t next_arrival = 0;
  double clock_ms = 0.0;
  InferMode mode = InferMode::kUnmerged;
  int merged_adapter = -1;
  ResidencySet residency(options.gpu_adapter_slots);
  int64_t tick = 0;
  double prev_iteration_ms = 0.0;  // async-swap slack window
  int64_t slo_violations = 0;

  auto all_done = [&]() {
    if (next_arrival < trace.size()) {
      return false;
    }
    for (const LiveRequest& r : live) {
      if (!r.finished) {
        return false;
      }
    }
    return true;
  };

  while (!all_done()) {
    // Admit arrivals up to the current clock.
    while (next_arrival < trace.size() && trace[next_arrival].arrival_s * 1e3 <= clock_ms) {
      live.push_back(LiveRequest{trace[next_arrival], 0, 0, false, -1.0, -1.0});
      ++next_arrival;
    }

    // Build the policy's queue view.
    std::vector<RequestView> views;
    views.reserve(live.size());
    for (size_t i = 0; i < live.size(); ++i) {
      const LiveRequest& r = live[i];
      if (r.finished) {
        continue;
      }
      RequestView view;
      view.index = static_cast<int>(i);
      view.adapter_id = r.request.adapter_id;
      view.prefilled = r.prefilled();
      view.arrival_wait_ms = clock_ms - r.request.arrival_s * 1e3;
      view.wait_ms =
          r.last_service_ms < 0.0 ? view.arrival_wait_ms : clock_ms - r.last_service_ms;
      view.input_tokens = r.request.input_tokens;
      const int64_t target = profile.uses_task_head && r.request.closed_set_output
                                 ? 1
                                 : r.request.output_tokens;
      view.remaining_outputs = target - r.decoded;
      view.app = r.request.app;
      view.closed_set_output = r.request.closed_set_output;
      view.slo_ms = r.request.slo_ms;
      views.push_back(view);
    }

    if (views.empty()) {
      // Idle: jump to the next arrival.
      VLORA_CHECK(next_arrival < trace.size());
      clock_ms = std::max(clock_ms, trace[next_arrival].arrival_s * 1e3);
      continue;
    }

    PolicyContext context{clock_ms, options.max_batch_size, mode, merged_adapter};
    IterationPlan plan = policy.Plan(views, context);
    if (plan.selected.empty()) {
      // Policy declined (e.g. merge-only with nothing matching): advance to
      // the next arrival or fail loudly if the policy deadlocked the queue.
      if (next_arrival < trace.size()) {
        clock_ms = std::max(clock_ms + 1.0, trace[next_arrival].arrival_s * 1e3);
        continue;
      }
      // No future arrivals can unblock the policy; force unmerged FCFS so the
      // simulation terminates (merge-only starvation tail).
      plan.mode = InferMode::kUnmerged;
      plan.merged_adapter = -1;
      for (const RequestView& view : views) {
        if (static_cast<int>(plan.selected.size()) >= options.max_batch_size) {
          break;
        }
        plan.selected.push_back(view.index);
      }
    }
    VLORA_CHECK(static_cast<int>(plan.selected.size()) <= options.max_batch_size);

    // --- Cost the iteration -------------------------------------------------
    // A switch costs time only when the merged weight state changes: merging
    // an adapter in, unmerging it out, or replacing it. merged <-> mixture
    // with the same adapter keeps ΔW in place and is free — deLoRA's first
    // advantage (§4.4.2).
    const int target_weights = plan.mode == InferMode::kUnmerged ? -1 : plan.merged_adapter;
    const int current_weights = mode == InferMode::kUnmerged ? -1 : merged_adapter;
    double switch_ms = 0.0;
    if (target_weights != current_weights) {
      switch_ms = profile.switch_ms;
      ++metrics.mode_switches;
    }

    // Host->device adapter transfers within one iteration overlap each other
    // and the layer-by-layer compute; only the slowest un-hidden transfer
    // delays the batch, so the per-iteration swap cost is a max, not a sum.
    double swap_ms = 0.0;
    std::unordered_set<int> batch_adapters;
    int64_t prefill_tokens = 0;
    int64_t decode_count = 0;
    int64_t lora_tokens = 0;  // token rows through bypass branches
    std::vector<int64_t> iter_token_counts(plan.selected.size());
    for (size_t sel = 0; sel < plan.selected.size(); ++sel) {
      const int index = plan.selected[sel];
      LiveRequest& r = live[static_cast<size_t>(index)];
      VLORA_CHECK(!r.finished);
      int64_t iter_tokens = 1;
      if (!r.prefilled()) {
        int64_t remaining = r.request.input_tokens - r.prefilled_tokens;
        if (options.prefill_chunk_tokens > 0) {
          remaining = std::min(remaining, options.prefill_chunk_tokens);
        }
        iter_tokens = remaining;
        prefill_tokens += remaining;
      } else {
        ++decode_count;
      }
      iter_token_counts[sel] = iter_tokens;
      if (r.request.adapter_id >= 0) {
        batch_adapters.insert(r.request.adapter_id);
        ++tick;
        if (residency.EnsureResident(r.request.adapter_id, tick)) {
          ++metrics.adapter_swaps;
          const double cost = options.cost.AdapterSwapMs();
          const double visible =
              profile.async_adapter_swap ? std::max(0.0, cost - prev_iteration_ms) : cost;
          swap_ms = std::max(swap_ms, visible);
        }
      }
      switch (plan.mode) {
        case InferMode::kMerged:
          VLORA_CHECK(r.request.adapter_id == plan.merged_adapter);
          break;
        case InferMode::kUnmerged:
          if (r.request.adapter_id >= 0) {
            lora_tokens += iter_tokens;
          }
          break;
        case InferMode::kMixture:
          // Non-merged requests run their own adapter plus the deLoRA branch.
          if (r.request.adapter_id != plan.merged_adapter) {
            lora_tokens += 2 * iter_tokens;
          }
          break;
      }
    }

    int distinct = static_cast<int>(batch_adapters.size());
    if (plan.mode == InferMode::kMixture) {
      distinct += 1;  // the deLoRA branch adds one adapter's worth of kernels
    }
    const double extra_ms =
        plan.mode == InferMode::kMerged
            ? 0.0
            : options.cost.UnmergedExtraMs(profile.op, lora_tokens, distinct);
    const double compute_ms =
        options.cost.PrefillMs(prefill_tokens) + options.cost.DecodeStepMs(decode_count);
    const double duration_ms = switch_ms + swap_ms + compute_ms + extra_ms;
    metrics.visible_swap_ms += swap_ms;
    metrics.unmerged_extra_ms += extra_ms;

    if (options.record_iterations) {
      metrics.iterations.push_back(IterationRecord{duration_ms, switch_ms, plan.mode,
                                                   static_cast<int>(plan.selected.size()),
                                                   prefill_tokens});
    }

    clock_ms += duration_ms;
    prev_iteration_ms = duration_ms;
    mode = plan.mode;
    merged_adapter = plan.mode == InferMode::kUnmerged ? -1 : plan.merged_adapter;

    // --- Advance selected requests -----------------------------------------
    for (size_t sel = 0; sel < plan.selected.size(); ++sel) {
      const int index = plan.selected[sel];
      LiveRequest& r = live[static_cast<size_t>(index)];
      r.last_service_ms = clock_ms;
      if (!r.prefilled()) {
        // Consume this iteration's prompt chunk; only a completed prefill
        // emits the first output token.
        r.prefilled_tokens += iter_token_counts[sel];
        if (!r.prefilled()) {
          continue;
        }
      }
      ++r.decoded;
      const int64_t target = profile.uses_task_head && r.request.closed_set_output
                                 ? 1
                                 : r.request.output_tokens;
      if (r.decoded >= target) {
        r.finished = true;
        r.finish_ms = clock_ms;
        const double latency = clock_ms - r.request.arrival_s * 1e3;
        latencies.Add(latency);
        request_latencies.push_back(latency);
        token_counts.push_back(r.request.output_tokens);
        if (r.request.slo_ms > 0.0 && latency > r.request.slo_ms) {
          ++slo_violations;
        }
        ++metrics.completed;
      }
    }
  }

  metrics.makespan_s = clock_ms / 1e3;
  metrics.slo_violation_rate =
      metrics.completed > 0 ? static_cast<double>(slo_violations) /
                                  static_cast<double>(metrics.completed)
                            : 0.0;
  return metrics;
}

}  // namespace

SimMetrics RunSimulation(const std::vector<Request>& trace, const PolicyFactory& make_policy,
                         const SimOptions& options) {
  VLORA_CHECK(options.num_gpus >= 1);
  VLORA_CHECK(options.max_batch_size >= 1);

  // Dispatch requests over devices according to the configured policy.
  std::vector<std::vector<Request>> shards(static_cast<size_t>(options.num_gpus));
  switch (options.dispatch) {
    case DispatchPolicy::kRoundRobin:
      for (size_t i = 0; i < trace.size(); ++i) {
        shards[i % static_cast<size_t>(options.num_gpus)].push_back(trace[i]);
      }
      break;
    case DispatchPolicy::kLeastLoaded: {
      // Outstanding work proxy: total remaining tokens (prefill + decodes)
      // assigned to the device so far. Greedy least-loaded at arrival time.
      std::vector<double> load(static_cast<size_t>(options.num_gpus), 0.0);
      for (const Request& req : trace) {
        size_t best = 0;
        for (size_t gpu = 1; gpu < load.size(); ++gpu) {
          if (load[gpu] < load[best]) {
            best = gpu;
          }
        }
        load[best] += static_cast<double>(req.input_tokens) * 0.05 +
                      static_cast<double>(req.output_tokens) * 1.0;
        shards[best].push_back(req);
      }
      break;
    }
    case DispatchPolicy::kAdapterAffinity: {
      // Same adapter -> same device: maximises merged-mode opportunity and
      // minimises swapping, at the cost of load imbalance under skew. Base
      // requests (-1) round-robin.
      size_t rr = 0;
      for (const Request& req : trace) {
        const size_t gpu = req.adapter_id >= 0
                               ? static_cast<size_t>(req.adapter_id) %
                                     static_cast<size_t>(options.num_gpus)
                               : (rr++ % static_cast<size_t>(options.num_gpus));
        shards[gpu].push_back(req);
      }
      break;
    }
  }

  SimMetrics total;
  SampleStats latencies;
  std::vector<int64_t> token_counts;
  std::vector<double> request_latencies;
  double max_makespan = 0.0;
  double slo_weighted = 0.0;

  for (int gpu = 0; gpu < options.num_gpus; ++gpu) {
    auto policy = make_policy();
    VLORA_CHECK(policy != nullptr);
    SimMetrics device = RunDevice(shards[static_cast<size_t>(gpu)], *policy, options, latencies,
                                  token_counts, request_latencies);
    total.completed += device.completed;
    total.mode_switches += device.mode_switches;
    total.adapter_swaps += device.adapter_swaps;
    total.visible_swap_ms += device.visible_swap_ms;
    total.unmerged_extra_ms += device.unmerged_extra_ms;
    slo_weighted += device.slo_violation_rate * static_cast<double>(device.completed);
    max_makespan = std::max(max_makespan, device.makespan_s);
    if (options.record_iterations && gpu == 0) {
      total.iterations = std::move(device.iterations);
    }
  }

  total.makespan_s = max_makespan;
  if (total.completed > 0) {
    double latency_sum = 0.0;
    int64_t token_sum = 0;
    for (size_t i = 0; i < request_latencies.size(); ++i) {
      latency_sum += request_latencies[i];
      token_sum += token_counts[i];
    }
    total.avg_request_latency_ms = latency_sum / static_cast<double>(total.completed);
    total.avg_token_latency_ms = latency_sum / static_cast<double>(token_sum);
    total.p50_latency_ms = latencies.Percentile(50.0);
    total.p90_latency_ms = latencies.Percentile(90.0);
    total.p99_latency_ms = latencies.Percentile(99.0);
    total.throughput_rps = static_cast<double>(total.completed) / std::max(1e-9, max_makespan);
    total.slo_violation_rate = slo_weighted / static_cast<double>(total.completed);
  }
  return total;
}

}  // namespace vlora
