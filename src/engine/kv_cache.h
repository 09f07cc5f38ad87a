// Paged KV cache with prefix reuse.
//
// vLLM-style block manager: the KV store is carved into fixed-size blocks of
// `block_size` token positions; a sequence owns an ordered list of blocks.
// Blocks are reference-counted so identical prompt prefixes (the same image
// re-queried in multi-round VQA) share physical blocks — the CacheBlend /
// SGLang prefix-matching reuse §5 describes. Block memory is charged to the
// UnifiedMemoryPool shared with adapter weights.
//
// Layout: one block stores K and V for all layers for its token positions,
// per layer its K then its V:
//   K: kt[d_model][block_size]  a key panel (KvSpan, transformer_ops.h):
//                               column c of the key at token t-in-block is
//                               kt[c][t], written by WriteKeyRow
//   V: v[block_size][d_model]   row t is the value at token t-in-block
// The attention tile reads both where they lie. A block stays self-contained
// and the per-layer stride computable; KvHandle pages copy its bytes as is.

#ifndef VLORA_SRC_ENGINE_KV_CACHE_H_
#define VLORA_SRC_ENGINE_KV_CACHE_H_

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "src/common/status.h"
#include "src/engine/model_config.h"
#include "src/lora/adapter_manager.h"

namespace vlora {

class KvBlockManager {
 public:
  // `pool` may be null for standalone tests; then block memory is uncharged.
  KvBlockManager(const ModelConfig& config, int64_t block_size, int64_t num_blocks,
                 UnifiedMemoryPool* pool = nullptr);
  ~KvBlockManager();

  KvBlockManager(const KvBlockManager&) = delete;
  KvBlockManager& operator=(const KvBlockManager&) = delete;

  int64_t block_size() const { return block_size_; }
  int64_t num_blocks() const { return num_blocks_; }
  int64_t num_free_blocks() const { return static_cast<int64_t>(free_list_.size()); }
  int64_t FloatsPerBlock() const;
  int64_t BytesPerBlock() const { return FloatsPerBlock() * static_cast<int64_t>(sizeof(float)); }

  // Allocates a fresh block with refcount 1. Returns -1 if exhausted.
  int64_t AllocateBlock();
  // Increments the refcount (prefix sharing).
  void AddRef(int64_t block_id);
  // Decrements; frees on zero. Unregisters any prefix-hash entry.
  void Release(int64_t block_id);
  int RefCount(int64_t block_id) const;

  // Pointer to K (or V) for `layer` within the block: K is the layer's key
  // panel, block_size keys wide; row t of V is token t-in-block, d_model
  // floats wide (layout above).
  float* KPtr(int64_t block_id, int layer);
  float* VPtr(int64_t block_id, int layer);
  const float* KPtr(int64_t block_id, int layer) const;
  const float* VPtr(int64_t block_id, int layer) const;

  // The whole block as one flat region of FloatsPerBlock() floats, for
  // paged-KV export/import (KvHandle page copies).
  float* BlockData(int64_t block_id);
  const float* BlockData(int64_t block_id) const;

  // --- Prefix reuse -------------------------------------------------------
  // Chain hash of a full block of tokens given the previous chain hash.
  static uint64_t ChainHash(uint64_t prev_hash, const int32_t* tokens, int64_t count);
  // Looks up a shareable block whose chain-hash matches; -1 if none. A hit
  // refreshes the block's LRU position in the cache.
  int64_t LookupPrefixBlock(uint64_t chain_hash);
  // Registers a fully-written block under its chain hash (idempotent; first
  // writer wins). The cache takes its own reference, so the block outlives
  // the sequence that produced it — multi-round VQA over the same image hits
  // the cache even after earlier rounds finished (§5, CacheBlend/SGLang).
  // Cached blocks are evicted LRU when the free list or memory pool runs dry.
  void RegisterPrefixBlock(uint64_t chain_hash, int64_t block_id);

  // Drops the LRU cached block's cache reference; returns false if nothing is
  // evictable. Exposed for tests; AllocateBlock calls it on pressure.
  bool EvictOneCachedBlock();
  int64_t num_cached_blocks() const { return static_cast<int64_t>(cache_lru_.size()); }

  // Reuse statistics.
  int64_t prefix_hits() const { return prefix_hits_; }
  int64_t prefix_misses() const { return prefix_misses_; }

 private:
  ModelConfig config_;
  int64_t block_size_;
  int64_t num_blocks_;
  UnifiedMemoryPool* pool_;
  std::vector<float> storage_;
  std::vector<int> refcounts_;
  std::vector<int64_t> free_list_;
  std::unordered_map<uint64_t, int64_t> prefix_index_;
  std::unordered_map<int64_t, uint64_t> block_to_hash_;
  std::vector<int64_t> cache_lru_;  // cached block ids, LRU first
  int64_t prefix_hits_ = 0;
  int64_t prefix_misses_ = 0;
};

// Per-sequence cache state: ordered block list plus logical length.
struct SequenceCache {
  std::vector<int64_t> blocks;
  int64_t length = 0;          // tokens with KV present
  uint64_t chain_hash = 0;     // running prefix hash over completed blocks

  int64_t CapacityTokens(int64_t block_size) const {
    return static_cast<int64_t>(blocks.size()) * block_size;
  }
};

}  // namespace vlora

#endif  // VLORA_SRC_ENGINE_KV_CACHE_H_
