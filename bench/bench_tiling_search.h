// ATMM's offline tiling search (§4.3.2, Algorithm 2) and the shape table it
// fills, shared by the Table 1 and Fig 17/18 benches.
//
// The search treats the kernel as a black box: for every shape on its grid
// and every candidate configuration, it times the tiled GEMM and records the
// fastest. The space is pruned with the paper's expert knowledge: tile
// dimensions are powers of two bounded by the cache hierarchy, a candidate's
// workspace is capped, block tiles may not dwarf the matrix, and the m
// (token) dimension steps at TileTable::kMStep. The serving rule's own tile
// is timed beside the candidates, never pruned, so a searched tile is never
// one the rule beats.
//
// Serving does not run this: AtmmDispatcher tiles every GEMM with
// HeuristicConfig. A table searched over the LoRA shapes a replica serves was
// slower on decode segments, faster by a few microseconds on prefill shrinks,
// and changed output bits (EXPERIMENTS.md, "ATMM's shape table on the serving
// path").
//
// A table holds tiles for the active kernel variant, the one its bench runs.

#ifndef VLORA_BENCH_BENCH_TILING_SEARCH_H_
#define VLORA_BENCH_BENCH_TILING_SEARCH_H_

#include <algorithm>
#include <cstdint>
#include <limits>
#include <map>
#include <tuple>
#include <utility>
#include <vector>

#include "src/common/logging.h"
#include "src/common/rng.h"
#include "src/common/stopwatch.h"
#include "src/kernels/atmm.h"
#include "src/kernels/gemm.h"
#include "src/kernels/kernel_variant.h"
#include "src/kernels/tile_config.h"
#include "src/tensor/tensor.h"

namespace vlora {
namespace bench {

// Candidate grid explored by the search. Kept modest so the "offline" search
// finishes in seconds; the paper's CUTLASS search takes <30 min on an A100.
inline std::vector<TileConfig> DefaultCandidateConfigs() {
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

// Shape table: the tile recorded for each profiled (m, n, k).
class TileTable {
 public:
  // Grid step of the m dimension; §4.3.2 profiles at the same step.
  static constexpr int64_t kMStep = 32;

  void Register(int64_t m, int64_t n, int64_t k, const TileConfig& config) {
    VLORA_CHECK(config.Valid());
    tiles_[{m, n, k}] = config;
  }

  // Exact hit first; else m snaps to the profiling grid (round up, then down)
  // with n and k exact, since those come from model dimensions and adapter
  // ranks and only the token count varies at run time; else the serving rule.
  TileConfig Select(int64_t m, int64_t n, int64_t k) const {
    ++selects_;
    const int64_t m_up = ((m + kMStep - 1) / kMStep) * kMStep;
    const int64_t m_down = std::max<int64_t>(kMStep, (m / kMStep) * kMStep);
    for (int64_t key_m : {m, m_up, m_down}) {
      auto it = tiles_.find({key_m, n, k});
      if (it != tiles_.end()) {
        ++hits_;
        return it->second;
      }
    }
    return AtmmDispatcher::HeuristicConfig(m, n, k, ActiveKernelVariant());
  }

  int64_t size() const { return static_cast<int64_t>(tiles_.size()); }
  // Share of Select calls the table answered rather than the serving rule.
  double SuppliedShare() const {
    return selects_ == 0 ? 0.0 : static_cast<double>(hits_) / static_cast<double>(selects_);
  }

 private:
  std::map<std::tuple<int64_t, int64_t, int64_t>, TileConfig> tiles_;
  mutable int64_t selects_ = 0;
  mutable int64_t hits_ = 0;
};

// Times one (shape, config) pair: best-of-repetitions milliseconds after a
// warm-up pass.
inline double ProfileConfig(int64_t m, int64_t n, int64_t k, const TileConfig& config,
                            int repetitions, KernelVariant variant = ActiveKernelVariant()) {
  Rng rng(0xA77Eull ^ static_cast<uint64_t>(m * 131 + n * 17 + k));
  Tensor a = Tensor::Random(Shape(m, k), rng, 1.0f);
  Tensor b = Tensor::Random(Shape(k, n), rng, 1.0f);
  Tensor c = Tensor::Zeros(Shape(m, n));
  GemmWorkspace workspace;
  auto run = [&] { GemmTiled(a.data(), b.data(), c.data(), m, n, k, config, workspace, variant); };
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

struct TilingSearchOptions {
  // (n, k) pairs to profile: for LoRA these are (rank, d_model) for the
  // shrink and (d_model, rank) for the expand.
  std::vector<std::pair<int64_t, int64_t>> nk_pairs;
  // Token-count (m) range to profile, stepping TileTable::kMStep.
  int64_t m_min = 32;
  int64_t m_max = 512;
  // Repetitions per (shape, config) timing; the best is recorded.
  int repetitions = 3;
  // Candidate set; empty means DefaultCandidateConfigs().
  std::vector<TileConfig> candidates;
};

// Cap on a candidate's packed-panel workspace, mimicking the shared-memory
// capacity a GPU tile must fit.
inline constexpr int64_t kMaxWorkspaceFloats = 1 << 20;

struct TilingSearchResult {
  int64_t shapes_profiled = 0;
  int64_t configs_tried = 0;
};

// Runs the search and records each shape's winner in `table`: the fastest
// of the serving rule's tile and the unpruned candidates. `configs_tried`
// counts candidates only.
inline TilingSearchResult RunTilingSearch(const TilingSearchOptions& options, TileTable& table) {
  TilingSearchResult result;
  const std::vector<TileConfig> candidates =
      options.candidates.empty() ? DefaultCandidateConfigs() : options.candidates;
  for (const auto& [n, k] : options.nk_pairs) {
    for (int64_t m = options.m_min; m <= options.m_max; m += TileTable::kMStep) {
      TileConfig best = AtmmDispatcher::HeuristicConfig(m, n, k, ActiveKernelVariant());
      double best_ms = ProfileConfig(m, n, k, best, options.repetitions);
      for (const TileConfig& config : candidates) {
        // Block tiles that dwarf the matrix pay full packing cost for mostly
        // padded panels (the "low utilisation" regime).
        if (config.WorkspaceFloats() > kMaxWorkspaceFloats || config.mc > 4 * m ||
            config.nc > 4 * n || config.kc > 4 * k) {
          continue;
        }
        ++result.configs_tried;
        const double ms = ProfileConfig(m, n, k, config, options.repetitions);
        if (ms < best_ms) {
          best_ms = ms;
          best = config;
        }
      }
      table.Register(m, n, k, best);
      ++result.shapes_profiled;
    }
  }
  return result;
}

}  // namespace bench
}  // namespace vlora

#endif  // VLORA_BENCH_BENCH_TILING_SEARCH_H_
