#include "src/engine/kv_cache.h"

#include <algorithm>

namespace vlora {

KvBlockManager::KvBlockManager(const ModelConfig& config, int64_t block_size, int64_t num_blocks)
    : config_(config), block_size_(block_size), num_blocks_(num_blocks) {
  VLORA_CHECK(block_size > 0 && num_blocks > 0);
  storage_.resize(static_cast<size_t>(num_blocks * FloatsPerBlock()));
  refcounts_.assign(static_cast<size_t>(num_blocks), 0);
  free_list_.reserve(static_cast<size_t>(num_blocks));
  for (int64_t i = num_blocks - 1; i >= 0; --i) {
    free_list_.push_back(i);
  }
}

int64_t KvBlockManager::FloatsPerBlock() const {
  return 2LL * config_.num_layers * block_size_ * config_.d_model;
}

int64_t KvBlockManager::AllocateBlock() {
  // Under pressure, reclaim LRU cached prefix blocks: they hold only the
  // cache's reference and exist purely as a reuse optimisation.
  while (free_list_.empty()) {
    if (!EvictOneCachedBlock()) {
      return -1;
    }
  }
  const int64_t id = free_list_.back();
  free_list_.pop_back();
  refcounts_[static_cast<size_t>(id)] = 1;
  return id;
}

void KvBlockManager::AddRef(int64_t block_id) {
  VLORA_CHECK(block_id >= 0 && block_id < num_blocks_);
  VLORA_CHECK(refcounts_[static_cast<size_t>(block_id)] > 0);
  ++refcounts_[static_cast<size_t>(block_id)];
}

void KvBlockManager::Release(int64_t block_id) {
  VLORA_CHECK(block_id >= 0 && block_id < num_blocks_);
  int& refs = refcounts_[static_cast<size_t>(block_id)];
  VLORA_CHECK(refs > 0);
  if (--refs == 0) {
    // Registered blocks cannot reach zero here: the cache holds a reference
    // that only EvictOneCachedBlock drops.
    VLORA_CHECK(!block_to_hash_.contains(block_id));
    free_list_.push_back(block_id);
  }
}

int KvBlockManager::RefCount(int64_t block_id) const {
  VLORA_CHECK(block_id >= 0 && block_id < num_blocks_);
  return refcounts_[static_cast<size_t>(block_id)];
}

float* KvBlockManager::KPtr(int64_t block_id, int layer) {
  VLORA_CHECK(block_id >= 0 && block_id < num_blocks_);
  VLORA_CHECK(layer >= 0 && layer < config_.num_layers);
  const int64_t layer_stride = 2 * block_size_ * config_.d_model;
  return storage_.data() + block_id * FloatsPerBlock() + layer * layer_stride;
}

float* KvBlockManager::VPtr(int64_t block_id, int layer) {
  return KPtr(block_id, layer) + block_size_ * config_.d_model;
}

const float* KvBlockManager::KPtr(int64_t block_id, int layer) const {
  return const_cast<KvBlockManager*>(this)->KPtr(block_id, layer);
}

const float* KvBlockManager::VPtr(int64_t block_id, int layer) const {
  return const_cast<KvBlockManager*>(this)->VPtr(block_id, layer);
}

float* KvBlockManager::BlockData(int64_t block_id) {
  VLORA_CHECK(block_id >= 0 && block_id < num_blocks_);
  return storage_.data() + block_id * FloatsPerBlock();
}

const float* KvBlockManager::BlockData(int64_t block_id) const {
  return const_cast<KvBlockManager*>(this)->BlockData(block_id);
}

uint64_t KvBlockManager::ChainHash(uint64_t prev_hash, const int32_t* tokens, int64_t count) {
  // FNV-1a over the previous hash and the token ids.
  uint64_t h = 0xCBF29CE484222325ull;
  auto mix = [&h](uint64_t v) {
    h ^= v;
    h *= 0x100000001B3ull;
  };
  mix(prev_hash);
  mix(prev_hash >> 32);
  for (int64_t i = 0; i < count; ++i) {
    mix(static_cast<uint64_t>(static_cast<uint32_t>(tokens[i])));
  }
  return h;
}

int64_t KvBlockManager::LookupPrefixBlock(uint64_t chain_hash) {
  auto it = prefix_index_.find(chain_hash);
  if (it == prefix_index_.end()) {
    ++prefix_misses_;
    return -1;
  }
  ++prefix_hits_;
  // Refresh LRU position.
  auto lru_it = std::find(cache_lru_.begin(), cache_lru_.end(), it->second);
  if (lru_it != cache_lru_.end()) {
    cache_lru_.erase(lru_it);
    cache_lru_.push_back(it->second);
  }
  return it->second;
}

void KvBlockManager::RegisterPrefixBlock(uint64_t chain_hash, int64_t block_id) {
  VLORA_CHECK(block_id >= 0 && block_id < num_blocks_);
  if (prefix_index_.contains(chain_hash) || block_to_hash_.contains(block_id)) {
    return;
  }
  prefix_index_[chain_hash] = block_id;
  block_to_hash_[block_id] = chain_hash;
  AddRef(block_id);  // the cache's own reference
  cache_lru_.push_back(block_id);
}

bool KvBlockManager::EvictOneCachedBlock() {
  if (cache_lru_.empty()) {
    return false;
  }
  const int64_t block_id = cache_lru_.front();
  cache_lru_.erase(cache_lru_.begin());
  auto hash_it = block_to_hash_.find(block_id);
  VLORA_CHECK(hash_it != block_to_hash_.end());
  prefix_index_.erase(hash_it->second);
  block_to_hash_.erase(hash_it);
  // Drop the cache reference directly (Release would re-check registration).
  int& refs = refcounts_[static_cast<size_t>(block_id)];
  VLORA_CHECK(refs > 0);
  if (--refs == 0) {
    free_list_.push_back(block_id);
  }
  return true;
}

}  // namespace vlora
