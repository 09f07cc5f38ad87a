#include "src/kernels/atmm.h"

#include "src/common/trace.h"

namespace vlora {

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
  if (variant != KernelVariant::kScalar && n >= 16) {
    // The FMA kernel pays one scalar broadcast per A element; nr = 16 feeds
    // two ymm FMAs per broadcast instead of one. AVX-512 takes AVX2's config
    // unchanged: the same kc fixes each output's summation order, so the
    // bits and ReadsBInPlace's decisions match AVX2's.
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

void AtmmDispatcher::Execute(const float* a, const float* b, float* c, int64_t m, int64_t n,
                             int64_t k) {
  Announce(m, n, k);
  Compute(a, b, c, m, n, k);
}

void AtmmDispatcher::Announce(int64_t m, int64_t n, int64_t k) {
  if (!trace::Tracer::enabled()) {
    return;
  }
  const TileConfig config = HeuristicConfig(m, n, k, ActiveKernelVariant());
  trace::EmitKernelDispatch(m, n, k, config.mc, config.nc, config.kc, config.mr, config.nr);
}

void AtmmDispatcher::Compute(const float* a, const float* b, float* c, int64_t m, int64_t n,
                             int64_t k) {
  const KernelVariant variant = ActiveKernelVariant();
  GemmTiled(a, b, c, m, n, k, HeuristicConfig(m, n, k, variant), workspace_, variant);
}

void AtmmDispatcher::Execute(const Tensor& a, const Tensor& b, Tensor& c) {
  VLORA_CHECK(a.shape().rank() == 2 && b.shape().rank() == 2 && c.shape().rank() == 2);
  VLORA_CHECK(a.shape().dim(1) == b.shape().dim(0));
  VLORA_CHECK(c.shape().dim(0) == a.shape().dim(0) && c.shape().dim(1) == b.shape().dim(1));
  Execute(a.data(), b.data(), c.data(), a.shape().dim(0), b.shape().dim(1), a.shape().dim(1));
}

}  // namespace vlora
