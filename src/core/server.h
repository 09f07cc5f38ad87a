// VloraServer: the end-to-end V-LoRA runtime over the real engine.
//
// Ties together the offline and online phases of Fig 8: adapters produced by
// the accuracy-aware generator are materialised (low-rank factors + vision
// task heads) and registered with the inference engine; at runtime the
// orchestrator applies Algorithm 1 every engine iteration — choosing the
// batch, the inference mode and the merged adapter — and drives the engine's
// swift mode switcher accordingly.
//
// A server has one owner thread, which submits and steps: a replica's worker
// loop, or whoever calls RunAll. It takes no lock.

#ifndef VLORA_SRC_CORE_SERVER_H_
#define VLORA_SRC_CORE_SERVER_H_

#include <memory>
#include <unordered_map>
#include <vector>

#include "src/core/generator.h"
#include "src/core/scheduler.h"
#include "src/engine/engine.h"

namespace vlora {

// Builds concrete LoRA adapters (random low-rank factors at the model's
// dimensions; a task head when the spec carries one) from generator output.
// In a deployment this is the supervised fine-tuning step of §4.2.1; the
// substitution is documented in DESIGN.md.
std::vector<std::unique_ptr<LoraAdapter>> MaterializeAdapters(
    const std::vector<KnowledgeItem>& items, const GeneratorResult& result,
    const ModelConfig& config, int64_t rank, Rng& rng);

struct ServerOptions {
  EngineOptions engine;
  Alg1Options alg1;
  int max_batch_size = 8;
  // Device memory budget shared by adapters and (accounting-only here) the KV
  // cache, per §5's unified memory management. Sized generously by default so
  // small deployments never swap; shrink to exercise the swap path.
  int64_t device_pool_bytes = 64LL << 20;
};

struct ServerStats {
  int64_t iterations = 0;
  int64_t merged_iterations = 0;
  int64_t unmerged_iterations = 0;
  int64_t mixture_iterations = 0;
  int64_t mode_switches = 0;
  int64_t adapter_swap_ins = 0;
  int64_t adapter_evictions = 0;
  double visible_swap_ms = 0.0;  // per the adapter manager's transfer model
};

class VloraServer {
 public:
  VloraServer(const ModelConfig& config, const ServerOptions& options = {});

  // Takes ownership; returns the engine adapter id.
  int AddAdapter(std::unique_ptr<LoraAdapter> adapter);
  const LoraAdapter& adapter(int id) const;
  int num_adapters() const { return static_cast<int>(adapters_.size()); }

  InferenceEngine& engine() { return engine_; }
  const AdapterManager& adapter_manager() const { return adapter_manager_; }

  // Enqueues a request (EngineRequest::id must be unique), stamping its
  // logical enqueue time; it joins the next StepOnce.
  void Submit(EngineRequest request);

  // Forces an adapter onto the device outside the serving path (placement
  // warm-up); does not count toward swap statistics. Serving thread only, or
  // before serving starts.
  void PrewarmAdapter(int adapter_id);

  // One orchestrated iteration: Algorithm 1 picks batch + mode, the engine
  // switches if needed and executes. Returns newly finished results.
  std::vector<EngineResult> StepOnce();

  // Drains everything, returning results in completion order.
  std::vector<EngineResult> RunAll();

  const ServerStats& stats() const { return stats_; }

 private:
  ServerOptions options_;
  InferenceEngine engine_;
  UnifiedMemoryPool pool_;
  AdapterManager adapter_manager_;
  std::vector<std::unique_ptr<LoraAdapter>> adapters_;
  std::unordered_map<int64_t, double> submit_ms_;        // id -> logical enqueue time
  std::unordered_map<int64_t, double> last_service_ms_;  // id -> last scheduled time
  double logical_clock_ms_ = 0.0;
  ServerStats stats_;
};

}  // namespace vlora

#endif  // VLORA_SRC_CORE_SERVER_H_
