#include "src/lora/adapter_manager.h"

#include <algorithm>
#include <limits>

namespace vlora {

UnifiedMemoryPool::UnifiedMemoryPool(int64_t capacity_bytes) : capacity_(capacity_bytes) {
  VLORA_CHECK(capacity_bytes > 0);
}

bool UnifiedMemoryPool::Reserve(int64_t bytes) {
  VLORA_CHECK(bytes >= 0);
  if (used_ + bytes > capacity_) {
    return false;
  }
  used_ += bytes;
  return true;
}

void UnifiedMemoryPool::Release(int64_t bytes) {
  VLORA_CHECK(bytes >= 0 && bytes <= used_);
  used_ -= bytes;
}

AdapterManager::AdapterManager(UnifiedMemoryPool* pool, SwapCostModel cost_model)
    : pool_(pool), cost_model_(cost_model) {
  VLORA_CHECK(pool != nullptr);
}

int AdapterManager::Register(LoraAdapter adapter) {
  adapters_.push_back(std::move(adapter));
  return static_cast<int>(adapters_.size()) - 1;
}

const LoraAdapter& AdapterManager::Get(int id) const {
  VLORA_CHECK(id >= 0 && id < num_adapters());
  return adapters_[static_cast<size_t>(id)];
}

bool AdapterManager::IsResident(int id) const { return resident_last_use_.contains(id); }

void AdapterManager::Touch(int id) {
  auto it = resident_last_use_.find(id);
  if (it != resident_last_use_.end()) {
    it->second = ++lru_tick_;
  }
}

void AdapterManager::EvictOneLru(SwapResult& result) {
  VLORA_CHECK(!resident_last_use_.empty());
  int victim = -1;
  int64_t oldest = std::numeric_limits<int64_t>::max();
  for (const auto& [id, tick] : resident_last_use_) {
    if (tick < oldest) {
      oldest = tick;
      victim = id;
    }
  }
  pool_->Release(Get(victim).SizeBytesFp16());
  resident_last_use_.erase(victim);
  result.evicted.push_back(victim);
  ++total_evictions_;
}

SwapResult AdapterManager::EnsureResident(int id, double async_slack_ms) {
  VLORA_CHECK(id >= 0 && id < num_adapters());
  SwapResult result;
  if (IsResident(id)) {
    result.was_resident = true;
    Touch(id);
    return result;
  }
  const int64_t bytes = Get(id).SizeBytesFp16();
  while (!pool_->Reserve(bytes)) {
    // Device-to-host eviction of (A, B) factors is asynchronous and off the
    // critical path (the host copy already exists), so it adds no visible
    // latency here; running out of evictable adapters is a config error.
    EvictOneLru(result);
  }
  resident_last_use_[id] = ++lru_tick_;
  result.transfer_ms = cost_model_.TransferMs(bytes);
  result.visible_ms = std::max(0.0, result.transfer_ms - async_slack_ms);
  result.hidden_by_async = result.visible_ms == 0.0;
  ++total_swap_ins_;
  return result;
}

}  // namespace vlora
