// Tiling configuration for the three-level tiled GEMM.
//
// The paper's ATMM tiles a CUDA GEMM into thread-block tiles, warp tiles and
// thread tiles (Fig 12 / Fig 24). On the CPU the analogous hierarchy is:
//
//   block tile   (mc x kc panel of A, kc x nc panel of B) -> L2/L1 cache
//   register tile (mr x nr micro-kernel)                  -> registers
//
// Exactly as on the GPU, the best configuration depends on the input shape:
// small tiles on large inputs cause redundant memory traffic (the "frequent
// global memory access" failure of Table 1), large tiles on skinny inputs
// waste cache capacity and blow past matrix edges (the "low SM utilisation"
// failure). ATMM picks the configuration per shape: serving by a size-driven
// rule (AtmmDispatcher::HeuristicConfig), the paper benches from a profiled
// table (bench/bench_tiling_search.h).

#ifndef VLORA_SRC_KERNELS_TILE_CONFIG_H_
#define VLORA_SRC_KERNELS_TILE_CONFIG_H_

#include <cstdint>
#include <string>

namespace vlora {

struct TileConfig {
  int mc = 64;   // rows of the packed A block
  int nc = 64;   // cols of the packed B block
  int kc = 128;  // shared (reduction) dimension of both blocks
  int mr = 8;    // micro-kernel rows
  int nr = 8;    // micro-kernel cols

  bool Valid() const {
    // Mirrors the paper's "expert knowledge" pruning: every level must divide
    // the level above and all dimensions are powers of two >= 4.
    auto pow2 = [](int v) { return v > 0 && (v & (v - 1)) == 0; };
    return pow2(mc) && pow2(nc) && pow2(kc) && pow2(mr) && pow2(nr) && mr >= 4 && nr >= 4 &&
           mr <= 16 && nr <= 16 && mc % mr == 0 && nc % nr == 0 && mc >= mr && nc >= nr;
  }

  // Workspace floats needed for packed panels (double-buffered: one panel in
  // use, one being prefetched, mirroring ATMM's shared-memory double buffer).
  int64_t WorkspaceFloats() const {
    return 2LL * (static_cast<int64_t>(mc) * kc + static_cast<int64_t>(kc) * nc);
  }

  bool operator==(const TileConfig& o) const {
    return mc == o.mc && nc == o.nc && kc == o.kc && mr == o.mr && nr == o.nr;
  }

  std::string ToString() const {
    return "(" + std::to_string(mc) + "," + std::to_string(nc) + "," + std::to_string(kc) + "," +
           std::to_string(mr) + "," + std::to_string(nr) + ")";
  }
};

// Static configurations used by the baseline operators and by the Table 1
// reproduction, mapped onto the CPU hierarchy:
//  - Punica's SGMV kernel is decode-optimised (its m-tile is small), so its
//    CPU analog uses tiny block tiles — fast at decode shapes, memory-traffic
//    bound at prefill shapes (Table 1's "frequent global memory access").
//  - S-LoRA's kernel runs on CUDA cores rather than tensor cores; its analog
//    pairs mid-sized block tiles with the small 4x4 micro-kernel.
//  - TableConfig1/2 are the paper's Config 1 / Config 2: each wins one of the
//    two Table 1 input shapes and loses the other.
inline TileConfig PunicaStaticConfig() { return TileConfig{16, 16, 64, 4, 4}; }
inline TileConfig SloraStaticConfig() { return TileConfig{64, 32, 32, 4, 4}; }
inline TileConfig TableConfig1() { return TileConfig{64, 32, 32, 8, 8}; }
inline TileConfig TableConfig2() { return TileConfig{256, 128, 256, 8, 8}; }

}  // namespace vlora

#endif  // VLORA_SRC_KERNELS_TILE_CONFIG_H_
