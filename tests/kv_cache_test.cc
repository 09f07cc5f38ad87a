#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "src/engine/kv_cache.h"
#include "src/engine/model_config.h"
#include "src/kernels/transformer_ops.h"

namespace vlora {
namespace {

TEST(KvBlockManagerTest, AllocateAndFree) {
  KvBlockManager kv(TinyConfig(), 8, 4);
  EXPECT_EQ(kv.num_free_blocks(), 4);
  const int64_t a = kv.AllocateBlock();
  const int64_t b = kv.AllocateBlock();
  EXPECT_NE(a, b);
  EXPECT_EQ(kv.num_free_blocks(), 2);
  EXPECT_EQ(kv.RefCount(a), 1);
  kv.Release(a);
  EXPECT_EQ(kv.num_free_blocks(), 3);
}

TEST(KvBlockManagerTest, ExhaustionReturnsMinusOne) {
  KvBlockManager kv(TinyConfig(), 8, 2);
  EXPECT_GE(kv.AllocateBlock(), 0);
  EXPECT_GE(kv.AllocateBlock(), 0);
  EXPECT_EQ(kv.AllocateBlock(), -1);
}

TEST(KvBlockManagerTest, RefCounting) {
  KvBlockManager kv(TinyConfig(), 8, 2);
  const int64_t block = kv.AllocateBlock();
  kv.AddRef(block);
  EXPECT_EQ(kv.RefCount(block), 2);
  kv.Release(block);
  EXPECT_EQ(kv.RefCount(block), 1);
  EXPECT_EQ(kv.num_free_blocks(), 1);  // still held
  kv.Release(block);
  EXPECT_EQ(kv.num_free_blocks(), 2);
}

TEST(KvBlockManagerTest, KvPointersDistinctPerLayer) {
  ModelConfig config = TinyConfig();
  KvBlockManager kv(config, 8, 2);
  const int64_t block = kv.AllocateBlock();
  float* k0 = kv.KPtr(block, 0);
  float* v0 = kv.VPtr(block, 0);
  float* k1 = kv.KPtr(block, 1);
  EXPECT_EQ(v0 - k0, 8 * config.d_model);
  EXPECT_EQ(k1 - k0, 2 * 8 * config.d_model);
  // Writes round-trip.
  k0[3] = 42.0f;
  EXPECT_EQ(kv.KPtr(block, 0)[3], 42.0f);
}

// A block's K is a key panel block_size keys wide (transformer_ops.h): a key
// row written through the append helper reads back at (column, position),
// leaves the rest of the panel and the block's V untouched.
TEST(KvBlockManagerTest, KeyRowReadsBackAtColumnAndPosition) {
  const ModelConfig config = TinyConfig();
  const int64_t d = config.d_model;
  for (int64_t block_size : {8, 16}) {
    KvBlockManager kv(config, block_size, 2);
    const int64_t block = kv.AllocateBlock();
    float* k = kv.KPtr(block, 1);
    std::fill_n(kv.BlockData(block), kv.FloatsPerBlock(), -1.0f);
    std::vector<float> key(static_cast<size_t>(d));
    for (int64_t c = 0; c < d; ++c) {
      key[static_cast<size_t>(c)] = static_cast<float>(c);
    }
    const int64_t pos = block_size - 3;
    WriteKeyRow(key.data(), d, block_size, pos, k);
    for (int64_t c = 0; c < d; ++c) {
      for (int64_t t = 0; t < block_size; ++t) {
        EXPECT_EQ(k[c * block_size + t], t == pos ? static_cast<float>(c) : -1.0f)
            << "block size " << block_size << " column " << c << " position " << t;
      }
    }
    const float* v = kv.VPtr(block, 1);
    EXPECT_TRUE(std::all_of(v, v + block_size * d, [](float x) { return x == -1.0f; }));
  }
}

TEST(KvBlockManagerTest, ChainHashOrderSensitive) {
  int32_t tokens_a[] = {1, 2, 3, 4};
  int32_t tokens_b[] = {4, 3, 2, 1};
  const uint64_t ha = KvBlockManager::ChainHash(0, tokens_a, 4);
  const uint64_t hb = KvBlockManager::ChainHash(0, tokens_b, 4);
  EXPECT_NE(ha, hb);
  // Chaining matters: same tokens after different prefixes differ.
  EXPECT_NE(KvBlockManager::ChainHash(ha, tokens_a, 4),
            KvBlockManager::ChainHash(hb, tokens_a, 4));
}

TEST(KvBlockManagerTest, PrefixRegisterLookup) {
  KvBlockManager kv(TinyConfig(), 8, 4);
  const int64_t block = kv.AllocateBlock();
  int32_t tokens[] = {5, 6, 7, 8, 9, 10, 11, 12};
  const uint64_t hash = KvBlockManager::ChainHash(1, tokens, 8);
  EXPECT_EQ(kv.LookupPrefixBlock(hash), -1);
  kv.RegisterPrefixBlock(hash, block);
  EXPECT_EQ(kv.LookupPrefixBlock(hash), block);
  EXPECT_EQ(kv.prefix_hits(), 1);
  EXPECT_EQ(kv.prefix_misses(), 1);
}

TEST(KvBlockManagerTest, FirstRegistrationWins) {
  KvBlockManager kv(TinyConfig(), 8, 4);
  const int64_t a = kv.AllocateBlock();
  const int64_t b = kv.AllocateBlock();
  kv.RegisterPrefixBlock(99, a);
  kv.RegisterPrefixBlock(99, b);
  EXPECT_EQ(kv.LookupPrefixBlock(99), a);
}

TEST(KvBlockManagerTest, CachedBlockOutlivesItsSequence) {
  // The defining property of the persistent prefix cache (§5): the producing
  // sequence releases its reference, but the block stays registered until the
  // cache evicts it.
  KvBlockManager kv(TinyConfig(), 8, 4);
  const int64_t block = kv.AllocateBlock();
  kv.RegisterPrefixBlock(7, block);
  EXPECT_EQ(kv.RefCount(block), 2);  // sequence + cache
  kv.Release(block);                 // sequence finished
  EXPECT_EQ(kv.LookupPrefixBlock(7), block);
  EXPECT_EQ(kv.num_cached_blocks(), 1);
  // Explicit eviction frees it.
  EXPECT_TRUE(kv.EvictOneCachedBlock());
  EXPECT_EQ(kv.LookupPrefixBlock(7), -1);
  EXPECT_EQ(kv.num_free_blocks(), 4);
}

TEST(KvBlockManagerTest, AllocationPressureEvictsCachedBlocks) {
  KvBlockManager kv(TinyConfig(), 8, 2);
  const int64_t a = kv.AllocateBlock();
  kv.RegisterPrefixBlock(1, a);
  kv.Release(a);  // only the cache holds it now
  const int64_t b = kv.AllocateBlock();
  EXPECT_NE(b, a);  // one genuinely free block remained
  // The next allocation must reclaim the cached block.
  const int64_t c = kv.AllocateBlock();
  EXPECT_EQ(c, a);
  EXPECT_EQ(kv.LookupPrefixBlock(1), -1);
}

TEST(KvBlockManagerTest, LruEvictionOrderRefreshedByHits) {
  KvBlockManager kv(TinyConfig(), 8, 4);
  const int64_t a = kv.AllocateBlock();
  const int64_t b = kv.AllocateBlock();
  kv.RegisterPrefixBlock(1, a);
  kv.RegisterPrefixBlock(2, b);
  kv.Release(a);
  kv.Release(b);
  // A hit on `a` makes `b` the LRU victim.
  EXPECT_EQ(kv.LookupPrefixBlock(1), a);
  EXPECT_TRUE(kv.EvictOneCachedBlock());
  EXPECT_EQ(kv.LookupPrefixBlock(1), a);
  EXPECT_EQ(kv.LookupPrefixBlock(2), -1);
}

TEST(KvBlockManagerTest, SharedBlockRefcounting) {
  KvBlockManager kv(TinyConfig(), 8, 4);
  const int64_t block = kv.AllocateBlock();
  kv.RegisterPrefixBlock(3, block);
  kv.AddRef(block);  // second sequence shares it
  EXPECT_EQ(kv.RefCount(block), 3);
  kv.Release(block);
  kv.Release(block);
  // Both sequences done; the cache reference keeps it registered and alive.
  EXPECT_EQ(kv.RefCount(block), 1);
  EXPECT_EQ(kv.LookupPrefixBlock(3), block);
}

TEST(KvBlockManagerTest, ChargesUnifiedPool) {
  ModelConfig config = TinyConfig();
  UnifiedMemoryPool pool(1 << 24);
  {
    KvBlockManager kv(config, 8, 4, &pool);
    const int64_t block = kv.AllocateBlock();
    EXPECT_EQ(pool.used_kv(), kv.BytesPerBlock());
    kv.Release(block);
    EXPECT_EQ(pool.used_kv(), 0);
    // Destructor releases any remaining charge.
    kv.AllocateBlock();
    EXPECT_GT(pool.used_kv(), 0);
  }
  EXPECT_EQ(pool.used_kv(), 0);
}

TEST(KvBlockManagerTest, PoolExhaustionBlocksAllocation) {
  ModelConfig config = TinyConfig();
  KvBlockManager probe(config, 8, 1);
  UnifiedMemoryPool pool(probe.BytesPerBlock());  // exactly one block
  KvBlockManager kv(config, 8, 4, &pool);
  EXPECT_GE(kv.AllocateBlock(), 0);
  EXPECT_EQ(kv.AllocateBlock(), -1);  // pool, not free list, is the limit
}

}  // namespace
}  // namespace vlora
