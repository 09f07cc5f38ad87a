#include "src/core/server.h"

#include <algorithm>

#include "src/common/trace.h"

namespace vlora {

std::vector<std::unique_ptr<LoraAdapter>> MaterializeAdapters(
    const std::vector<KnowledgeItem>& items, const GeneratorResult& result,
    const ModelConfig& config, int64_t rank, Rng& rng) {
  std::vector<std::unique_ptr<LoraAdapter>> adapters;
  adapters.reserve(result.adapters.size());
  int counter = 0;
  for (const GeneratedAdapterSpec& spec : result.adapters) {
    auto adapter = std::make_unique<LoraAdapter>(LoraAdapter::Random(
        "gen-" + std::to_string(counter++), config.num_layers, config.d_model, rank, rng));
    for (int index : spec.item_indices) {
      adapter->AddFusedDomain(items[static_cast<size_t>(index)].domain);
    }
    if (spec.has_task_head && spec.head_options > 0) {
      VisionTaskHead head;
      head.task = spec.head_task;
      head.weight = Tensor::Random(Shape(config.d_model, spec.head_options), rng, 0.2f);
      adapter->SetTaskHead(std::move(head));
    }
    adapters.push_back(std::move(adapter));
  }
  return adapters;
}

VloraServer::VloraServer(const ModelConfig& config, const ServerOptions& options)
    : options_(options),
      engine_(config, options.engine),
      pool_(options.device_pool_bytes),
      adapter_manager_(&pool_) {}

int VloraServer::AddAdapter(std::unique_ptr<LoraAdapter> adapter) {
  VLORA_CHECK(adapter != nullptr);
  const int id = engine_.RegisterAdapter(adapter.get());
  // The manager holds an accounting handle (tensor storage is shared) so the
  // unified pool tracks device residency per §5.
  const int manager_id = adapter_manager_.Register(*adapter);
  VLORA_CHECK(manager_id == id);
  adapters_.push_back(std::move(adapter));
  VLORA_CHECK(id == static_cast<int>(adapters_.size()) - 1);
  return id;
}

const LoraAdapter& VloraServer::adapter(int id) const {
  VLORA_CHECK(id >= 0 && id < num_adapters());
  return *adapters_[static_cast<size_t>(id)];
}

void VloraServer::Submit(EngineRequest request) {
  VLORA_CHECK(!submit_ms_.contains(request.id));
  submit_ms_[request.id] = logical_clock_ms_;
  engine_.Submit(std::move(request));
}

void VloraServer::PrewarmAdapter(int adapter_id) {
  VLORA_CHECK(adapter_id >= 0 && adapter_id < num_adapters());
  adapter_manager_.EnsureResident(adapter_id);
}

std::vector<EngineResult> VloraServer::StepOnce() {
  // Build the Algorithm-1 queue view from the engine's live sequences. The
  // logical clock advances by the estimated iteration time, which is what the
  // credit term measures against θ.
  std::vector<InferenceEngine::QueueEntry> queue = engine_.Queue();
  if (queue.empty()) {
    return {};
  }
  std::vector<RequestView> views;
  views.reserve(queue.size());
  for (size_t i = 0; i < queue.size(); ++i) {
    const auto& entry = queue[i];
    RequestView view;
    view.index = static_cast<int>(i);
    view.adapter_id = entry.adapter_id;
    view.prefilled = entry.prefilled;
    view.arrival_wait_ms = logical_clock_ms_ - submit_ms_.at(entry.request_id);
    auto service_it = last_service_ms_.find(entry.request_id);
    view.wait_ms = service_it == last_service_ms_.end() ? view.arrival_wait_ms
                                                        : logical_clock_ms_ - service_it->second;
    view.input_tokens = entry.prompt_tokens;
    view.remaining_outputs = entry.remaining_new_tokens;
    view.closed_set_output = entry.use_task_head;
    views.push_back(view);
  }

  PolicyContext context;
  context.now_ms = logical_clock_ms_;
  context.max_batch_size = options_.max_batch_size;
  context.current_mode = engine_.mode();
  context.merged_adapter = engine_.merged_adapter();

  IterationPlan plan = Alg1Schedule(views, context, options_.alg1);
  if (plan.selected.empty()) {
    logical_clock_ms_ += options_.alg1.exec_estimate_ms;
    return {};
  }
  // RAII span (Begin here, End on every return path); tid comes from the
  // calling thread's replica attribution.
  trace::BatchStepSpan step_span(static_cast<int64_t>(plan.selected.size()));
  static Counter* const batch_steps = MetricsRegistry::Global().counter("engine.batch_steps");
  batch_steps->Increment();

  // Residency: every adapter the batch touches must be on the device; the
  // asynchronous prefetch window is the previous iteration's estimated time.
  for (int index : plan.selected) {
    const int adapter_id = queue[static_cast<size_t>(index)].adapter_id;
    if (adapter_id >= 0) {
      const SwapResult swap =
          adapter_manager_.EnsureResident(adapter_id, options_.alg1.exec_estimate_ms);
      if (!swap.was_resident) {
        ++stats_.adapter_swap_ins;
        stats_.visible_swap_ms += swap.visible_ms;
        stats_.adapter_evictions += static_cast<int64_t>(swap.evicted.size());
      }
    }
  }

  const int64_t switches_before = engine_.mode_switch_count();
  engine_.SetMode(plan.mode, plan.merged_adapter);
  const bool switched = engine_.mode_switch_count() != switches_before;

  std::vector<int64_t> request_ids;
  request_ids.reserve(plan.selected.size());
  for (int index : plan.selected) {
    request_ids.push_back(queue[static_cast<size_t>(index)].request_id);
    last_service_ms_[queue[static_cast<size_t>(index)].request_id] = logical_clock_ms_;
  }
  std::vector<EngineResult> finished = engine_.StepSelected(request_ids);

  ++stats_.iterations;
  switch (plan.mode) {
    case InferMode::kMerged:
      ++stats_.merged_iterations;
      break;
    case InferMode::kUnmerged:
      ++stats_.unmerged_iterations;
      break;
    case InferMode::kMixture:
      ++stats_.mixture_iterations;
      break;
  }
  if (switched) {
    ++stats_.mode_switches;
  }
  logical_clock_ms_ +=
      options_.alg1.exec_estimate_ms + (switched ? options_.alg1.switch_ms : 0.0);

  for (const EngineResult& result : finished) {
    submit_ms_.erase(result.request_id);
    last_service_ms_.erase(result.request_id);
  }
  step_span.set_completed(static_cast<int64_t>(finished.size()));
  return finished;
}

std::vector<EngineResult> VloraServer::RunAll() {
  std::vector<EngineResult> all;
  while (engine_.HasWork()) {
    std::vector<EngineResult> finished = StepOnce();
    all.insert(all.end(), std::make_move_iterator(finished.begin()),
               std::make_move_iterator(finished.end()));
  }
  return all;
}

}  // namespace vlora
