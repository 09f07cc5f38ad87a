// ATMM: adaptive-tiling matrix multiplication (§4.3).
//
// AtmmDispatcher owns the hash tables that map input shapes to their optimal
// tiling configuration (filled by RunTilingSearch, §4.3.2 / Appendix B) and
// executes GEMMs with the per-shape best configuration. Shapes between
// profiled grid points snap to the nearest profiled bucket; shapes outside the
// table fall back to a size-driven heuristic so ATMM never fails, it only
// loses a little optimality. Only benches and tests run the search; a serving
// engine's dispatcher starts empty and runs on HeuristicConfig.
//
// There is one table per KernelVariant: the optimal tile depends on the
// micro-kernel ISA (an 8-wide FMA kernel is memory-bound where the scalar one
// is compute-bound). A configuration profiled under one variant is never
// served to another.

#ifndef VLORA_SRC_KERNELS_ATMM_H_
#define VLORA_SRC_KERNELS_ATMM_H_

#include <array>
#include <cstdint>
#include <unordered_map>

#include "src/common/annotations.h"
#include "src/kernels/gemm.h"
#include "src/kernels/kernel_variant.h"
#include "src/kernels/tile_config.h"
#include "src/tensor/tensor.h"

namespace vlora {

// Hash-table key for an input shape pair (m x k) * (k x n). The paper packs
// the shapes into a 128-bit integer key; 21 bits per dimension in a 64-bit
// key is ample for our shape range.
struct ShapeKey {
  int64_t m;
  int64_t n;
  int64_t k;

  bool operator==(const ShapeKey& o) const { return m == o.m && n == o.n && k == o.k; }
  uint64_t Packed() const {
    return (static_cast<uint64_t>(m) << 42) | (static_cast<uint64_t>(n) << 21) |
           static_cast<uint64_t>(k);
  }
};

struct ShapeKeyHash {
  size_t operator()(const ShapeKey& key) const {
    uint64_t x = key.Packed();
    x ^= x >> 33;
    x *= 0xFF51AFD7ED558CCDull;
    x ^= x >> 33;
    return static_cast<size_t>(x);
  }
};

// Thread-safety: a dispatcher has one owner thread and takes no lock.
// RunTilingSearch registers serially, and Execute reuses one packed-panel
// workspace across calls, so each execution thread (each replica engine,
// vision tower, trainer call and bench) builds its own dispatcher.
class AtmmDispatcher {
 public:
  AtmmDispatcher() = default;

  // Registers the optimal config for a profiled shape (called by the search).
  // The two-argument form registers for the active variant.
  void Register(const ShapeKey& key, const TileConfig& config);
  void Register(const ShapeKey& key, const TileConfig& config, KernelVariant variant);

  // Picks the config for a runtime shape: exact hit, else nearest registered
  // bucket (snapping m to the profiling grid), else the heuristic fallback.
  // Only the variant's table is consulted — entries profiled for a different
  // variant are never served. The three-argument form reads the active
  // variant's table.
  TileConfig Select(int64_t m, int64_t n, int64_t k) const;
  TileConfig Select(int64_t m, int64_t n, int64_t k, KernelVariant variant) const;

  // Shape-driven fallback used when the table has no suitable entry. The
  // variant-aware form biases the register tile for the kernel ISA (the FMA
  // kernels amortise their scalar broadcast over a wider nr; AVX-512 gets
  // AVX2's config, for AVX2's bits); the three-argument form is scalar's.
  static TileConfig HeuristicConfig(int64_t m, int64_t n, int64_t k);
  static TileConfig HeuristicConfig(int64_t m, int64_t n, int64_t k, KernelVariant variant);

  // C += A * B with the adaptively selected configuration, on the active
  // kernel variant.
  void Execute(const float* a, const float* b, float* c, int64_t m, int64_t n,
               int64_t k) VLORA_HOT;
  void Execute(const Tensor& a, const Tensor& b, Tensor& c);

  // Number of registered entries across every variant's table, or in one
  // variant's table.
  int64_t TableSize() const;
  int64_t TableSize(KernelVariant variant) const;

  // Grid step used to bucket the m (token-count) dimension. Matches the step
  // the search profiles with; §4.3.2 uses 32 for the same reason.
  static constexpr int64_t kMStep = 32;

 private:
  using ShapeTable = std::unordered_map<ShapeKey, TileConfig, ShapeKeyHash>;

  std::array<ShapeTable, kNumKernelVariants> tables_;  // by variant
  GemmWorkspace workspace_;
};

}  // namespace vlora

#endif  // VLORA_SRC_KERNELS_ATMM_H_
