// Iteration-level serving simulator.
//
// Replays a request trace against a scheduling policy at A100 scale using the
// calibrated GpuCostModel. The simulator advances in engine iterations
// (Orca-style): each iteration the policy picks a batch and a mode; the
// simulator charges switch cost + visible adapter-swap cost + prefill +
// decode + operator-dependent unmerged extra, then advances every selected
// request (a prefill-stage request consumes its whole prompt and emits its
// first token; a decode-stage one emits one token). Multi-GPU serving
// dispatches the trace round-robin over independent device instances
// (Table 3).
//
// Policies are behaviour + a SystemProfile describing the serving system's
// operator, switch cost, swap behaviour and whether vision task heads are
// available. Baseline policies live in src/baselines; V-LoRA's Algorithm-1
// policy lives in src/core.

#ifndef VLORA_SRC_GPUSIM_SIMULATOR_H_
#define VLORA_SRC_GPUSIM_SIMULATOR_H_

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "src/common/infer_mode.h"
#include "src/gpusim/cost_model.h"
#include "src/workload/request.h"

namespace vlora {

// Static description of the serving system a policy models.
struct SystemProfile {
  std::string name;
  OperatorKind op = OperatorKind::kAtmm;
  double switch_ms = 8.0;          // cost of one merge/unmerge mode switch
  bool uses_task_head = false;     // closed-set requests resolve in 1 round
  bool async_adapter_swap = false; // swap overlaps the previous iteration
};

// What a policy sees about one queued request.
struct RequestView {
  int index = 0;  // stable index to return in IterationPlan::selected
  int adapter_id = -1;
  bool prefilled = false;
  // Time since the request was last included in a batch (or since arrival if
  // never scheduled). This is the waiting term of Algorithm 1's credit: a
  // request being served every iteration is not starving no matter how long
  // its decode takes.
  double wait_ms = 0.0;
  // Time since arrival; used for FCFS ordering and SLO accounting.
  double arrival_wait_ms = 0.0;
  int64_t input_tokens = 0;
  int64_t remaining_outputs = 0;
  AppKind app = AppKind::kVisualRetrieval;
  bool closed_set_output = false;
  double slo_ms = 0.0;
};

struct PolicyContext {
  double now_ms = 0.0;
  int max_batch_size = 0;
  InferMode current_mode = InferMode::kUnmerged;
  int merged_adapter = -1;
};

struct IterationPlan {
  std::vector<int> selected;  // RequestView::index values
  InferMode mode = InferMode::kUnmerged;
  int merged_adapter = -1;  // required for kMerged / kMixture
};

class SchedulerPolicy {
 public:
  virtual ~SchedulerPolicy() = default;
  virtual const SystemProfile& profile() const = 0;
  virtual IterationPlan Plan(const std::vector<RequestView>& queue,
                             const PolicyContext& context) = 0;
};

using PolicyFactory = std::function<std::unique_ptr<SchedulerPolicy>()>;

enum class DispatchPolicy {
  kRoundRobin,       // the paper's Table 3 setup: independent replicas
  kLeastLoaded,      // route to the device with the least outstanding work
  kAdapterAffinity,  // hash the adapter id to a device: minimises swapping
};

struct SimOptions {
  int num_gpus = 1;
  int max_batch_size = 64;
  int gpu_adapter_slots = 8;  // adapters resident per device
  GpuCostModel cost{};
  bool record_iterations = false;
  // SARATHI-style chunked prefill: a prompt consumes at most this many tokens
  // per iteration, letting decode-stage requests piggyback instead of
  // stalling behind a long prefill. 0 = whole prompt in one iteration (the
  // paper's setup).
  int64_t prefill_chunk_tokens = 0;
  // Multi-GPU request dispatch (inter-GPU scheduling is the paper's stated
  // future work; round-robin reproduces Table 3).
  DispatchPolicy dispatch = DispatchPolicy::kRoundRobin;
};

struct IterationRecord {
  double duration_ms = 0.0;
  double switch_ms = 0.0;
  InferMode mode = InferMode::kUnmerged;
  int batch_size = 0;
  int64_t prefill_tokens = 0;
};

struct SimMetrics {
  int64_t completed = 0;
  double avg_token_latency_ms = 0.0;    // Σ request latency / Σ app output tokens
  double avg_request_latency_ms = 0.0;
  double p50_latency_ms = 0.0;
  double p90_latency_ms = 0.0;
  double p99_latency_ms = 0.0;
  double throughput_rps = 0.0;          // completed / makespan
  double makespan_s = 0.0;
  double slo_violation_rate = 0.0;
  int64_t mode_switches = 0;
  int64_t adapter_swaps = 0;
  double visible_swap_ms = 0.0;
  double unmerged_extra_ms = 0.0;       // total operator extra paid
  std::vector<IterationRecord> iterations;  // only if record_iterations
};

SimMetrics RunSimulation(const std::vector<Request>& trace, const PolicyFactory& make_policy,
                         const SimOptions& options);

}  // namespace vlora

#endif  // VLORA_SRC_GPUSIM_SIMULATOR_H_
