#include <gtest/gtest.h>

#include "src/lora/adapter_manager.h"

namespace vlora {
namespace {

LoraAdapter MakeAdapter(const std::string& name, Rng& rng) {
  // 3 targets x 2 layers x 2 x 64 x 8 = 6144 params = 12288 B fp16.
  return LoraAdapter::Random(name, 2, 64, 8, rng);
}
constexpr int64_t kAdapterBytes = 12288;

TEST(UnifiedMemoryPoolTest, ReserveAndRelease) {
  UnifiedMemoryPool pool(1000);
  EXPECT_TRUE(pool.Reserve(600));
  EXPECT_TRUE(pool.Reserve(400));
  EXPECT_FALSE(pool.Reserve(1));
  EXPECT_EQ(pool.used(), 1000);
  pool.Release(600);
  EXPECT_EQ(pool.available(), 600);
  EXPECT_TRUE(pool.Reserve(600));
}

TEST(SwapCostModelTest, TransferScalesWithBytes) {
  SwapCostModel model;
  EXPECT_GT(model.TransferMs(100 << 20), model.TransferMs(10 << 20));
  EXPECT_NEAR(model.TransferMs(0), model.fixed_ms, 1e-12);
}

TEST(AdapterManagerTest, RegisterAndGet) {
  UnifiedMemoryPool pool(1 << 20);
  AdapterManager manager(&pool);
  Rng rng(1);
  const int id = manager.Register(MakeAdapter("a", rng));
  EXPECT_EQ(id, 0);
  EXPECT_EQ(manager.num_adapters(), 1);
  EXPECT_EQ(manager.Get(0).name(), "a");
  EXPECT_FALSE(manager.IsResident(0));
}

TEST(AdapterManagerTest, EnsureResidentChargesPool) {
  UnifiedMemoryPool pool(1 << 20);
  AdapterManager manager(&pool);
  Rng rng(2);
  const int id = manager.Register(MakeAdapter("a", rng));
  const SwapResult result = manager.EnsureResident(id);
  EXPECT_FALSE(result.was_resident);
  EXPECT_GT(result.visible_ms, 0.0);
  EXPECT_TRUE(manager.IsResident(id));
  EXPECT_EQ(pool.used(), manager.Get(id).SizeBytesFp16());
  // Second call is a residency hit.
  const SwapResult again = manager.EnsureResident(id);
  EXPECT_TRUE(again.was_resident);
  EXPECT_EQ(again.visible_ms, 0.0);
  EXPECT_EQ(manager.total_swap_ins(), 1);
}

TEST(AdapterManagerTest, LruEvictionUnderPressure) {
  Rng rng(3);
  // Pool fits exactly two adapters.
  UnifiedMemoryPool pool(2 * kAdapterBytes);
  AdapterManager manager(&pool);
  const int a = manager.Register(MakeAdapter("a", rng));
  const int b = manager.Register(MakeAdapter("b", rng));
  const int c = manager.Register(MakeAdapter("c", rng));
  manager.EnsureResident(a);
  manager.EnsureResident(b);
  manager.Touch(a);  // b becomes the LRU victim
  const SwapResult result = manager.EnsureResident(c);
  ASSERT_EQ(result.evicted.size(), 1u);
  EXPECT_EQ(result.evicted[0], b);
  EXPECT_TRUE(manager.IsResident(a));
  EXPECT_FALSE(manager.IsResident(b));
  EXPECT_TRUE(manager.IsResident(c));
  EXPECT_EQ(manager.total_evictions(), 1);
}

TEST(AdapterManagerTest, AsyncSlackHidesTransfer) {
  UnifiedMemoryPool pool(1 << 20);
  AdapterManager manager(&pool);
  Rng rng(4);
  const int id = manager.Register(MakeAdapter("a", rng));
  const double transfer = SwapCostModel{}.TransferMs(manager.Get(id).SizeBytesFp16());
  const SwapResult result = manager.EnsureResident(id, /*async_slack_ms=*/transfer + 1.0);
  EXPECT_TRUE(result.hidden_by_async);
  EXPECT_EQ(result.visible_ms, 0.0);
  EXPECT_GT(result.transfer_ms, 0.0);
}

TEST(AdapterManagerTest, PartialSlackReducesVisibleCost) {
  UnifiedMemoryPool pool(1 << 20);
  AdapterManager manager(&pool);
  Rng rng(5);
  const int id = manager.Register(MakeAdapter("a", rng));
  const double transfer = SwapCostModel{}.TransferMs(manager.Get(id).SizeBytesFp16());
  const SwapResult result = manager.EnsureResident(id, transfer / 2.0);
  EXPECT_FALSE(result.hidden_by_async);
  EXPECT_NEAR(result.visible_ms, transfer / 2.0, 1e-9);
}

}  // namespace
}  // namespace vlora
