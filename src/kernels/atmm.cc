#include "src/kernels/atmm.h"

#include <algorithm>

#include "src/common/trace.h"

namespace vlora {

void AtmmDispatcher::Register(const ShapeKey& key, const TileConfig& config) {
  Register(key, config, ActiveKernelVariant());
}

void AtmmDispatcher::Register(const ShapeKey& key, const TileConfig& config,
                              KernelVariant variant) {
  VLORA_CHECK(config.Valid());
  tables_[static_cast<size_t>(variant)][key] = config;
}

TileConfig AtmmDispatcher::HeuristicConfig(int64_t m, int64_t n, int64_t k) {
  return HeuristicConfig(m, n, k, KernelVariant::kScalar);
}

TileConfig AtmmDispatcher::HeuristicConfig(int64_t m, int64_t n, int64_t k,
                                           KernelVariant variant) {
  // Shape-driven defaults: keep the packed panels inside ~256 KiB of cache,
  // avoid tiles wider/taller than the matrix, and use a larger micro-kernel
  // once there is enough work to amortise it.
  TileConfig config;
  auto floor_pow2 = [](int64_t v, int lo, int hi) {
    int r = lo;
    while (r * 2 <= hi && r * 2 <= v) {
      r *= 2;
    }
    return r;
  };
  config.nr = n >= 8 ? 8 : 4;
  if (variant == KernelVariant::kAvx2 && n >= 16) {
    // The FMA kernel pays one scalar broadcast per A element; nr = 16 feeds
    // two vector FMAs per broadcast instead of one.
    config.nr = 16;
  }
  // 5-8 rows take one 8-row micro-panel rather than two 4-row ones, so a
  // decode batch reads its weights in place (ReadsBInPlace) at equal FLOPs.
  config.mr = m > 4 ? 8 : 4;
  config.nc = floor_pow2(n, config.nr, 128);
  config.mc = floor_pow2(m, config.mr, m >= 1024 ? 256 : 64);
  config.kc = floor_pow2(k, 16, k >= 2048 ? 256 : 128);
  // Round nc/mc to multiples of the micro-kernel (power-of-two so automatic).
  if (!config.Valid()) {
    config = TileConfig{};
  }
  return config;
}

TileConfig AtmmDispatcher::Select(int64_t m, int64_t n, int64_t k) const {
  return Select(m, n, k, ActiveKernelVariant());
}

TileConfig AtmmDispatcher::Select(int64_t m, int64_t n, int64_t k, KernelVariant variant) const {
  const ShapeTable& table = tables_[static_cast<size_t>(variant)];
  // Exact hit first.
  auto it = table.find(ShapeKey{m, n, k});
  if (it != table.end()) {
    return it->second;
  }
  // Snap m to the profiling grid (round up, then down) with n/k exact: n and k
  // come from model dimensions and adapter ranks, which are fixed per model,
  // so only the token-count dimension varies continuously at runtime.
  const int64_t m_up = ((m + kMStep - 1) / kMStep) * kMStep;
  it = table.find(ShapeKey{m_up, n, k});
  if (it != table.end()) {
    return it->second;
  }
  const int64_t m_down = std::max<int64_t>(kMStep, (m / kMStep) * kMStep);
  it = table.find(ShapeKey{m_down, n, k});
  if (it != table.end()) {
    return it->second;
  }
  return HeuristicConfig(m, n, k, variant);
}

void AtmmDispatcher::Execute(const float* a, const float* b, float* c, int64_t m, int64_t n,
                             int64_t k) {
  const KernelVariant variant = ActiveKernelVariant();
  const TileConfig config = Select(m, n, k, variant);
  static Counter* const dispatches = MetricsRegistry::Global().counter("atmm.dispatches");
  dispatches->Increment();
  trace::EmitKernelDispatch(m, n, k, config.mc, config.nc, config.kc, config.mr, config.nr);
  GemmTiled(a, b, c, m, n, k, config, workspace_, variant);
}

void AtmmDispatcher::Execute(const Tensor& a, const Tensor& b, Tensor& c) {
  VLORA_CHECK(a.shape().rank() == 2 && b.shape().rank() == 2 && c.shape().rank() == 2);
  VLORA_CHECK(a.shape().dim(1) == b.shape().dim(0));
  VLORA_CHECK(c.shape().dim(0) == a.shape().dim(0) && c.shape().dim(1) == b.shape().dim(1));
  Execute(a.data(), b.data(), c.data(), a.shape().dim(0), b.shape().dim(1), a.shape().dim(1));
}

int64_t AtmmDispatcher::TableSize() const {
  int64_t total = 0;
  for (const ShapeTable& table : tables_) {
    total += static_cast<int64_t>(table.size());
  }
  return total;
}

int64_t AtmmDispatcher::TableSize(KernelVariant variant) const {
  return static_cast<int64_t>(tables_[static_cast<size_t>(variant)].size());
}

}  // namespace vlora
