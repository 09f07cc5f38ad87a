// Profile-based optimal tiling search (§4.3.2, Algorithm 2).
//
// Treats kernel performance as a black box: for every input shape on the
// search grid and every candidate configuration, it times the tiled GEMM and
// records the fastest configuration in the ATMM hash table. The search space
// is pruned with the paper's expert knowledge: tile dimensions are powers of
// two bounded by the cache hierarchy, shapes step at the model-dimension
// granularity, and the m (token) dimension steps at kMStep.
//
// The search runs once per requested KernelVariant and registers each winner
// into that variant's table — the best tile under an 8-wide FMA kernel is not
// the best tile under the scalar kernel, and serving a config across variants
// would re-introduce the mistuned-kernel regression the table exists to avoid.

#ifndef VLORA_SRC_KERNELS_TILING_SEARCH_H_
#define VLORA_SRC_KERNELS_TILING_SEARCH_H_

#include <cstdint>
#include <vector>

#include "src/kernels/atmm.h"
#include "src/kernels/kernel_variant.h"
#include "src/kernels/tile_config.h"

namespace vlora {

struct TilingSearchOptions {
  // (n, k) pairs to profile: for LoRA serving these are (rank, d_model) for
  // the down projection and (d_model, rank) for the up projection.
  std::vector<std::pair<int64_t, int64_t>> nk_pairs;
  // Token-count (m) range to profile, stepping AtmmDispatcher::kMStep.
  int64_t m_min = 32;
  int64_t m_max = 512;
  // Skip m values whose index is not a multiple of this (coarsens the grid to
  // keep CI-time searches fast while preserving coverage).
  int64_t m_stride_multiplier = 4;
  // Repetitions per (shape, config) timing; the best-of is recorded to reduce
  // scheduler noise.
  int repetitions = 3;
  // Candidate set; empty means DefaultCandidateConfigs().
  std::vector<TileConfig> candidates;
  // Cap on packed-panel workspace, mimicking shared-memory capacity limits.
  int64_t max_workspace_floats = 1 << 20;
  // Kernel variants to profile; empty means {ActiveKernelVariant()}. Variants
  // the host cannot execute are skipped with a warning, never profiled blind.
  std::vector<KernelVariant> variants;
};

struct TilingSearchResult {
  // Grid shapes profiled, summed over every variant pass.
  int64_t shapes_profiled = 0;
  int64_t configs_tried = 0;
  int64_t variants_profiled = 0;
  double elapsed_seconds = 0.0;
};

// Runs the search and populates `dispatcher`'s hash tables.
TilingSearchResult RunTilingSearch(const TilingSearchOptions& options,
                                   AtmmDispatcher& dispatcher);

// Times one (shape, config) pair: best-of-repetitions milliseconds. The
// five-argument form profiles the active variant.
double ProfileConfig(int64_t m, int64_t n, int64_t k, const TileConfig& config, int repetitions);
double ProfileConfig(int64_t m, int64_t n, int64_t k, const TileConfig& config, int repetitions,
                     KernelVariant variant);

}  // namespace vlora

#endif  // VLORA_SRC_KERNELS_TILING_SEARCH_H_
