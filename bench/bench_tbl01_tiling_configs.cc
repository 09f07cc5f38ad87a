// Table 1: the same static tiling configuration is fast on one input shape
// and slow on another (up to 1.9x gap); adaptive tiling picks the best per
// shape. This bench runs the REAL CPU tiled GEMM — the numbers are measured,
// not modelled.
//
// Input 1 mirrors the paper's (256 x 4096) x (4096 x 32) LoRA down-projection
// shape exactly; input 2 keeps the paper's d = 4096 and rank = 128 but uses
// 2048 token rows instead of 8192 to keep single-thread CPU time reasonable.

#include <algorithm>
#include <limits>

#include "bench/bench_tiling_search.h"
#include "bench/bench_util.h"

namespace vlora {
namespace {

struct InputShape {
  const char* label;
  int64_t m;
  int64_t k;
  int64_t n;
};

double TimeConfigMs(const InputShape& shape, const TileConfig& config, int reps,
                    KernelVariant variant = ActiveKernelVariant()) {
  return bench::ProfileConfig(shape.m, shape.n, shape.k, config, reps, variant);
}

void Run() {
  bench::PrintHeader(
      "Table 1 — static tiling vs input shape (REAL CPU tiled GEMM)",
      "Punica's static config loses up to 1.9x against the per-shape optimum; "
      "no single config wins both inputs");

  const InputShape inputs[] = {
      {"input1 (256x4096 * 4096x32)", 256, 4096, 32},
      {"input2 (1024x4096 * 4096x128)", 1024, 4096, 128},
  };
  struct NamedConfig {
    const char* name;
    TileConfig config;
  };
  const NamedConfig configs[] = {
      {"Punica static", PunicaStaticConfig()},
      {"Config 1", TableConfig1()},
      {"Config 2", TableConfig2()},
  };

  // Offline search over exactly these two shapes (the paper's hash-table
  // build, restricted to a pruned candidate set so the bench stays fast).
  bench::TilingSearchOptions search;
  search.candidates = {
      PunicaStaticConfig(),     SloraStaticConfig(),      TableConfig1(),
      TableConfig2(),           {128, 32, 128, 8, 8},     {128, 64, 256, 8, 16},
      {256, 32, 256, 8, 8},     {64, 32, 256, 8, 8},
  };
  search.repetitions = 2;
  bench::TileTable atmm;
  for (const InputShape& shape : inputs) {
    search.nk_pairs = {{shape.n, shape.k}};
    search.m_min = shape.m;
    search.m_max = shape.m;
    bench::RunTilingSearch(search, atmm);
  }

  AsciiTable table({"configuration", inputs[0].label, inputs[1].label});
  std::vector<std::vector<double>> measured;
  for (const NamedConfig& config : configs) {
    std::vector<double> row;
    for (const InputShape& shape : inputs) {
      row.push_back(TimeConfigMs(shape, config.config, 3));
    }
    measured.push_back(row);
    table.AddRow(std::string(config.name) + " " + config.config.ToString(), row, 3);
  }
  std::vector<double> atmm_row;
  for (const InputShape& shape : inputs) {
    atmm_row.push_back(TimeConfigMs(shape, atmm.Select(shape.m, shape.n, shape.k), 3));
  }
  table.AddRow("ATMM (adaptive)", atmm_row, 3);
  table.Print("Table 1 reproduction (ms, best of 3)");

  for (size_t i = 0; i < 2; ++i) {
    double worst = 0.0;
    double best = std::numeric_limits<double>::infinity();
    for (const auto& row : measured) {
      worst = std::max(worst, row[i]);
      best = std::min(best, row[i]);
    }
    std::printf("%s: worst static / best static = %.2fx; ATMM within %.2fx of best static\n",
                inputs[i].label, worst / best, atmm_row[i] / best);
  }
  std::printf("Paper shape: static configs differ by up to 1.9x across inputs; the adaptive "
              "choice tracks the per-shape optimum.\n");

  // Second axis of the table (this reproduction's CPU analog of picking the
  // kernel, not just the tile): the same shapes on every KernelVariant. The
  // active variant runs the searched tile, the others their serving rule's.
  // Speedups are against the scalar variant on the same shape.
  if (!Avx2Available()) {
    std::printf("note: AVX2 unavailable on this host/build — scalar compute path only\n");
  }
  auto tile_for = [&atmm](const InputShape& shape, KernelVariant variant) {
    return variant == ActiveKernelVariant()
               ? atmm.Select(shape.m, shape.n, shape.k)
               : AtmmDispatcher::HeuristicConfig(shape.m, shape.n, shape.k, variant);
  };
  AsciiTable paths({"compute path", std::string(inputs[0].label) + " ms",
                    "speedup", std::string(inputs[1].label) + " ms", "speedup"});
  std::vector<double> baseline_ms;
  for (const InputShape& shape : inputs) {
    baseline_ms.push_back(TimeConfigMs(shape, tile_for(shape, KernelVariant::kScalar), 2,
                                       KernelVariant::kScalar));
  }
  for (KernelVariant variant : AvailableKernelVariants()) {
    std::vector<double> row;
    for (size_t i = 0; i < 2; ++i) {
      const double ms = variant == KernelVariant::kScalar
                            ? baseline_ms[i]
                            : TimeConfigMs(inputs[i], tile_for(inputs[i], variant), 2, variant);
      row.push_back(ms);
      row.push_back(baseline_ms[i] / ms);
    }
    paths.AddRow(KernelVariantName(variant), row, 3);
  }
  paths.Print("Compute paths (scalar-vs-AVX2; per-variant ATMM tile)");
}

}  // namespace
}  // namespace vlora

int main() {
  vlora::Run();
  return 0;
}
