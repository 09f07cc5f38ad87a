// Adapter registry and GPU residency management.
//
// V-LoRA keeps the base LMM on the GPU permanently and swaps only LoRA
// adapters (A and B factors, ~43 MB each for Qwen-VL rank 64) between host
// and device, asynchronously, computing ΔW on demand with ATMM instead of
// precomputing it in host memory (§5 "LoRA adapter swap"). Resident adapters
// draw from a UnifiedMemoryPool byte budget. The paper's unified memory
// management (adopted from S-LoRA) also charges the KV cache to it; the engine
// here bounds its KV cache by block count instead (KvBlockManager), so the
// pool holds adapter weights alone.
//
// The manager tracks which adapters are device-resident, evicts LRU on
// pressure, and reports the swap latency each operation would cost on the
// paper's testbed via a small transfer cost model (PCIe-like bandwidth plus
// fixed launch cost). Asynchronous prefetch is modelled by letting a swap
// overlap the previous batch: a prefetched adapter arriving before its batch
// starts costs zero visible latency.

#ifndef VLORA_SRC_LORA_ADAPTER_MANAGER_H_
#define VLORA_SRC_LORA_ADAPTER_MANAGER_H_

#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "src/common/status.h"
#include "src/lora/adapter.h"

namespace vlora {

// The device byte budget for resident adapter weights.
class UnifiedMemoryPool {
 public:
  explicit UnifiedMemoryPool(int64_t capacity_bytes);

  // Attempts to reserve; returns false (without side effects) on exhaustion.
  bool Reserve(int64_t bytes);
  void Release(int64_t bytes);

  int64_t capacity() const { return capacity_; }
  int64_t used() const { return used_; }
  int64_t available() const { return capacity_ - used_; }

 private:
  int64_t capacity_;
  int64_t used_ = 0;
};

struct SwapCostModel {
  // Host->device transfer bandwidth. 16 GB/s ≈ PCIe 4.0 x16 effective, the
  // A100 testbed's link.
  double bandwidth_gb_per_s = 16.0;
  double fixed_ms = 0.5;  // launch + allocator fixed cost

  double TransferMs(int64_t bytes) const {
    return fixed_ms + static_cast<double>(bytes) / (bandwidth_gb_per_s * 1e6);
  }
};

struct SwapResult {
  bool was_resident = false;   // no transfer needed
  bool hidden_by_async = false;  // prefetch overlapped prior batch
  double visible_ms = 0.0;     // latency visible to the batch
  double transfer_ms = 0.0;    // raw transfer cost
  std::vector<int> evicted;    // adapter ids evicted to make room
};

class AdapterManager {
 public:
  AdapterManager(UnifiedMemoryPool* pool, SwapCostModel cost_model = {});

  // Takes ownership of the adapter; returns its id.
  int Register(LoraAdapter adapter);

  int num_adapters() const { return static_cast<int>(adapters_.size()); }
  const LoraAdapter& Get(int id) const;
  bool IsResident(int id) const;

  // Ensures the adapter is device-resident, evicting least-recently-used
  // adapters if the pool is full. `async_slack_ms` is how much idle transfer
  // time was available since the adapter was requested (prefetch window); the
  // visible cost is max(0, transfer - slack).
  SwapResult EnsureResident(int id, double async_slack_ms = 0.0);

  // Marks use for LRU accounting without a residency check (merged-mode hits).
  void Touch(int id);

  // Totals for the benches.
  int64_t total_swap_ins() const { return total_swap_ins_; }
  int64_t total_evictions() const { return total_evictions_; }

 private:
  void EvictOneLru(SwapResult& result);

  UnifiedMemoryPool* pool_;
  SwapCostModel cost_model_;
  std::vector<LoraAdapter> adapters_;
  std::unordered_map<int, int64_t> resident_last_use_;  // id -> lru tick
  int64_t lru_tick_ = 0;
  int64_t total_swap_ins_ = 0;
  int64_t total_evictions_ = 0;
};

}  // namespace vlora

#endif  // VLORA_SRC_LORA_ADAPTER_MANAGER_H_
