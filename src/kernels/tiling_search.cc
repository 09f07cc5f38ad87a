#include "src/kernels/tiling_search.h"

#include <algorithm>
#include <limits>

#include "src/common/logging.h"
#include "src/common/rng.h"
#include "src/common/stopwatch.h"
#include "src/kernels/gemm.h"

namespace vlora {

std::vector<TileConfig> DefaultCandidateConfigs() {
  std::vector<TileConfig> configs;
  const int mcs[] = {16, 32, 64, 128, 256};
  const int ncs[] = {16, 32, 64, 128};
  const int kcs[] = {32, 64, 128, 256};
  const std::pair<int, int> kernels[] = {{4, 4}, {4, 8}, {8, 4}, {8, 8}, {8, 16}, {16, 8}};
  for (int mc : mcs) {
    for (int nc : ncs) {
      for (int kc : kcs) {
        for (auto [mr, nr] : kernels) {
          TileConfig config{mc, nc, kc, mr, nr};
          if (config.Valid() && HasMicroKernel(mr, nr)) {
            configs.push_back(config);
          }
        }
      }
    }
  }
  return configs;
}

double ProfileConfig(int64_t m, int64_t n, int64_t k, const TileConfig& config, int repetitions,
                     KernelVariant variant) {
  Rng rng(0xA77Eull ^ static_cast<uint64_t>(m * 131 + n * 17 + k));
  Tensor a = Tensor::Random(Shape(m, k), rng, 1.0f);
  Tensor b = Tensor::Random(Shape(k, n), rng, 1.0f);
  Tensor c = Tensor::Zeros(Shape(m, n));
  GemmWorkspace workspace;
  auto run = [&] { GemmTiled(a.data(), b.data(), c.data(), m, n, k, config, workspace, variant); };
  // Warm-up pass populates caches and the workspace buffer.
  run();
  double best_ms = std::numeric_limits<double>::infinity();
  for (int rep = 0; rep < repetitions; ++rep) {
    c.Fill(0.0f);
    Stopwatch timer;
    run();
    best_ms = std::min(best_ms, timer.ElapsedMillis());
  }
  return best_ms;
}

double ProfileConfig(int64_t m, int64_t n, int64_t k, const TileConfig& config, int repetitions) {
  return ProfileConfig(m, n, k, config, repetitions, ActiveKernelVariant());
}

TilingSearchResult RunTilingSearch(const TilingSearchOptions& options,
                                   AtmmDispatcher& dispatcher) {
  Stopwatch total;
  TilingSearchResult result;
  std::vector<TileConfig> candidates =
      options.candidates.empty() ? DefaultCandidateConfigs() : options.candidates;
  std::vector<KernelVariant> variants = options.variants;
  if (variants.empty()) {
    variants = {ActiveKernelVariant()};
  }

  const int64_t step = AtmmDispatcher::kMStep * std::max<int64_t>(1, options.m_stride_multiplier);
  for (KernelVariant variant : variants) {
    if (variant == KernelVariant::kAvx2 && !Avx2Available()) {
      VLORA_LOG(Warning) << "tiling search: skipping avx2 pass, host cannot execute it";
      continue;
    }
    ++result.variants_profiled;
    for (const auto& [n, k] : options.nk_pairs) {
      for (int64_t m = options.m_min; m <= options.m_max; m += step) {
        double best_ms = std::numeric_limits<double>::infinity();
        TileConfig best = AtmmDispatcher::HeuristicConfig(m, n, k, variant);
        for (const TileConfig& config : candidates) {
          if (config.WorkspaceFloats() > options.max_workspace_floats) {
            continue;
          }
          // Skip configurations whose block tiles dwarf the matrix: they pay
          // full packing cost for mostly-padded panels (the "low
          // utilisation" regime), and pruning them keeps the search fast.
          if (config.mc > 4 * m || config.nc > 4 * n || config.kc > 4 * k) {
            continue;
          }
          ++result.configs_tried;
          const double ms = ProfileConfig(m, n, k, config, options.repetitions, variant);
          if (ms < best_ms) {
            best_ms = ms;
            best = config;
          }
        }
        dispatcher.Register(ShapeKey{m, n, k}, best, variant);
        ++result.shapes_profiled;
        VLORA_LOG(Debug) << "tiling search [" << KernelVariantName(variant) << "] m=" << m
                         << " n=" << n << " k=" << k << " best " << best.ToString() << " "
                         << best_ms << " ms";
      }
    }
  }
  result.elapsed_seconds = total.ElapsedSeconds();
  return result;
}

}  // namespace vlora
