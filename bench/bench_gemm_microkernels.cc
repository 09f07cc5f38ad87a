// Microbenchmarks for the tiled GEMM at LoRA-serving shapes.
//
// The register-tile table comes first: every (mr, nr) micro-kernel of every
// variant alone on L1-resident panels, in GFLOP/s, beside loops of
// independent FMA chains that measure the core's peak at each vector width
// (ymm, and zmm on AVX-512 hosts). A tile whose accumulators stay in
// registers runs near its width's peak; one that spills them to the stack
// shows up at about half of it.
//
// The compute-path table prints, per shape, the measured latency of every
// kernel variant plus its speedup over the scalar baseline. On hosts without
// AVX2 or AVX-512 the table drops those rows — the binary always runs.
//
// Two stage tables follow, each a median over repeated timings so they can
// be compared across commits: prefill-shape GEMMs (whether B is read in
// place or packed, ReadsBInPlace) and SmallConfig attention over paged KV
// blocks (a causal prefill and single decode rows, in µs and K+V GB/s).
//
// The google-benchmark section below keeps the original per-configuration
// throughput and dispatcher-overhead microbenchmarks.

#include <benchmark/benchmark.h>

#include <algorithm>
#include <cstdio>
#include <limits>
#include <string>
#include <vector>

#include "src/common/stopwatch.h"
#include "src/common/table.h"
#include "src/kernels/atmm.h"
#include "src/kernels/gemm.h"
#include "src/kernels/microkernel.h"
#include "src/kernels/transformer_ops.h"
#include "src/tensor/tensor.h"

namespace vlora {
namespace {

// Best of 7 timings of fn, which performs `flops` floating-point operations,
// in GFLOP/s, after one warm-up call.
template <typename Fn>
double BestGflops(Fn&& fn, double flops) {
  fn();
  double best_ms = std::numeric_limits<double>::infinity();
  for (int rep = 0; rep < 7; ++rep) {
    Stopwatch timer;
    fn();
    best_ms = std::min(best_ms, timer.ElapsedMillis());
  }
  return flops / best_ms / 1e6;
}

// Each micro-kernel's full tile over kc 128 reduction steps, its A and B
// panels packed and L1-resident (B at ldb = nr), called back to back. Each
// row is held against the FMA peak of its own vector width: the AVX-512
// table's nr = 16 tiles run on zmm, the rest against the ymm peak.
void PrintRegisterTiles() {
  constexpr int64_t kKc = 128;
  constexpr double kFlopsPerRun = 64e6;  // about a millisecond at the FMA peak
  // GFLOP/s of 12 independent FMA chains `lanes` wide.
  auto peak_of = [&](float (*loop)(int64_t), int lanes) {
    const double flops_per_step = kFmaPeakChains * lanes * 2.0;
    const int64_t steps = static_cast<int64_t>(kFlopsPerRun / flops_per_step);
    float sink = 0.0f;
    const double gflops =
        BestGflops([&] { sink += loop(steps); }, static_cast<double>(steps) * flops_per_step);
    benchmark::DoNotOptimize(sink);
    return gflops;
  };
  const double ymm_peak = Avx2Available() ? peak_of(FmaPeakLoopAvx2, 8) : 0.0;
  const double zmm_peak = Avx512Available() ? peak_of(FmaPeakLoopAvx512, 16) : 0.0;
  AsciiTable table({"variant", "tile (mr x nr)", "GFLOP/s (best of 7)", "of FMA peak"});
  for (KernelVariant variant : AvailableKernelVariants()) {
    for (const MicroKernelEntry& entry : MicroKernelTable(variant)) {
      Rng rng(23);
      std::vector<float> a(static_cast<size_t>(kKc * entry.mr));
      std::vector<float> b(static_cast<size_t>(kKc * entry.nr));
      for (float& x : a) {
        x = static_cast<float>(rng.NextUniform(-1.0, 1.0));
      }
      for (float& x : b) {
        x = static_cast<float>(rng.NextUniform(-1.0, 1.0));
      }
      std::vector<float> c(static_cast<size_t>(entry.mr * entry.nr), 0.0f);
      const double flops_per_call = 2.0 * entry.mr * entry.nr * kKc;
      const int64_t calls = static_cast<int64_t>(kFlopsPerRun / flops_per_call);
      const double gflops = BestGflops(
          [&] {
            for (int64_t i = 0; i < calls; ++i) {
              entry.full(kKc, a.data(), b.data(), entry.nr, c.data(), entry.nr);
            }
          },
          static_cast<double>(calls) * flops_per_call);
      benchmark::DoNotOptimize(c.data());
      const double peak =
          variant == KernelVariant::kAvx512 && entry.nr == 16 ? zmm_peak : ymm_peak;
      table.AddRow({KernelVariantName(variant),
                    std::to_string(entry.mr) + " x " + std::to_string(entry.nr),
                    AsciiTable::FormatDouble(gflops, 1),
                    peak > 0.0 ? AsciiTable::FormatDouble(100.0 * gflops / peak, 0) + "%" : "-"});
    }
  }
  if (ymm_peak > 0.0) {
    table.AddRow({"avx2", "FMA peak (12 ymm chains)", AsciiTable::FormatDouble(ymm_peak, 1),
                  "100%"});
  }
  if (zmm_peak > 0.0) {
    table.AddRow({"avx512", "FMA peak (12 zmm chains)", AsciiTable::FormatDouble(zmm_peak, 1),
                  "100%"});
  }
  table.Print("Register tiles alone: kc 128, L1-resident packed panels");
}

struct BenchShape {
  const char* label;
  int64_t m;
  int64_t k;
  int64_t n;
};

double TimeMs(const BenchShape& shape, KernelVariant variant, int reps) {
  Rng rng(11);
  Tensor a = Tensor::Random(Shape(shape.m, shape.k), rng, 1.0f);
  Tensor b = Tensor::Random(Shape(shape.k, shape.n), rng, 1.0f);
  Tensor c = Tensor::Zeros(Shape(shape.m, shape.n));
  GemmWorkspace workspace;
  const TileConfig config = AtmmDispatcher::HeuristicConfig(shape.m, shape.n, shape.k, variant);
  GemmTiled(a.data(), b.data(), c.data(), shape.m, shape.n, shape.k, config, workspace,
            variant);  // warm-up
  double best = std::numeric_limits<double>::infinity();
  for (int rep = 0; rep < reps; ++rep) {
    c.Fill(0.0f);
    Stopwatch timer;
    GemmTiled(a.data(), b.data(), c.data(), shape.m, shape.n, shape.k, config, workspace,
              variant);
    best = std::min(best, timer.ElapsedMillis());
  }
  return best;
}

void PrintComputePathComparison() {
  const BenchShape shapes[] = {
      {"prefill 256x1024*1024x64", 256, 1024, 64},
      {"prefill 256x64*64x1024", 256, 64, 1024},
      {"decode 1x1024*1024x1024", 1, 1024, 1024},
      // SmallConfig decode step: batch-8 Q/K/V/O projection, LM head, and
      // one row's LoRA shrink (rank 8). All three read B in place.
      {"decode 8x128*128x128 (SmallConfig projection)", 8, 128, 128},
      {"decode 8x128*128x512 (SmallConfig LM head)", 8, 128, 512},
      {"decode 1x128*128x8 (SmallConfig LoRA shrink)", 1, 128, 8},
  };
  const int reps = 5;

  std::printf("\nCompute-path comparison (speedup vs scalar; per-variant ATMM heuristic tile)\n");
  if (!Avx2Available()) {
    std::printf("note: AVX2 unavailable on this host/build — scalar row only\n");
  }
  for (const BenchShape& shape : shapes) {
    const double baseline = TimeMs(shape, KernelVariant::kScalar, reps);
    AsciiTable table({"compute path", "ms (best of 5)", "speedup"});
    for (KernelVariant variant : AvailableKernelVariants()) {
      const double ms =
          variant == KernelVariant::kScalar ? baseline : TimeMs(shape, variant, reps);
      table.AddRow(KernelVariantName(variant), {ms, baseline / ms}, 4);
    }
    table.Print(shape.label);
  }
}

// Median over `reps` timings of `calls` back-to-back runs of fn, in µs per
// call, after one warm-up run.
template <typename Fn>
double MedianMicrosPerCall(Fn&& fn, int calls, int reps) {
  fn();
  std::vector<double> samples;
  for (int rep = 0; rep < reps; ++rep) {
    Stopwatch timer;
    for (int i = 0; i < calls; ++i) {
      fn();
    }
    samples.push_back(timer.ElapsedMicros() / calls);
  }
  std::sort(samples.begin(), samples.end());
  return samples[samples.size() / 2];
}

// GEMMs at SmallConfig prefill shapes (40-row VQA turns, the 392-row video
// prompt). Narrow B is read in place at any height; the 1024-wide B packs.
void PrintPrefillGemmStages() {
  const BenchShape shapes[] = {
      {"40x128*128x128", 40, 128, 128},   {"40x128*128x512", 40, 128, 512},
      {"392x128*128x128", 392, 128, 128}, {"392x128*128x512", 392, 128, 512},
      {"40x128*128x1024", 40, 128, 1024},
  };
  AsciiTable table({"shape", "variant", "B", "us (median of 21)", "GFLOP/s"});
  for (const BenchShape& shape : shapes) {
    Rng rng(13);
    Tensor a = Tensor::Random(Shape(shape.m, shape.k), rng, 1.0f);
    Tensor b = Tensor::Random(Shape(shape.k, shape.n), rng, 1.0f);
    Tensor c = Tensor::Zeros(Shape(shape.m, shape.n));
    GemmWorkspace workspace;
    for (KernelVariant variant : AvailableKernelVariants()) {
      const TileConfig config =
          AtmmDispatcher::HeuristicConfig(shape.m, shape.n, shape.k, variant);
      const double us = MedianMicrosPerCall(
          [&] {
            GemmTiled(a.data(), b.data(), c.data(), shape.m, shape.n, shape.k, config, workspace,
                      variant);
          },
          20, 21);
      const bool in_place = ReadsBInPlace(shape.m, config.mr, shape.n, config.nr);
      table.AddRow({shape.label, KernelVariantName(variant), in_place ? "in place" : "packed",
                    AsciiTable::FormatDouble(us, 2),
                    AsciiTable::FormatDouble(2.0 * shape.m * shape.n * shape.k / us / 1e3, 2)});
    }
  }
  table.Print("Prefill-shape GEMMs (AtmmDispatcher heuristic tile)");
}

// SmallConfig attention (8 heads of 16) over paged 16-row KV blocks laid out
// as the engine stores them: per block a key panel, then value rows.
struct PagedKv {
  static constexpr int64_t kBlock = 16;
  static constexpr int64_t kDim = 128;
  std::vector<float> pool;
  std::vector<KvSpan> spans;

  explicit PagedKv(int64_t keys) {
    const int64_t blocks = (keys + kBlock - 1) / kBlock;
    Rng rng(17);
    pool.resize(static_cast<size_t>(blocks * 2 * kBlock * kDim));
    for (float& x : pool) {
      x = static_cast<float>(rng.NextUniform(-1.0, 1.0));
    }
    for (int64_t b = 0; b < blocks; ++b) {
      const float* k = pool.data() + b * 2 * kBlock * kDim;
      spans.push_back({k, k + kBlock * kDim, std::min(kBlock, keys - b * kBlock)});
    }
  }
};

void PrintAttentionStages() {
  const int64_t d = PagedKv::kDim;
  AsciiTable table({"stage", "variant", "us per call (median of 21)", "K+V GB/s"});
  auto add = [&](const std::string& label, int64_t rows, int64_t keys, int calls) {
    const PagedKv kv(keys);
    Rng rng(19);
    Tensor q = Tensor::Random(Shape(rows, d), rng, 1.0f);
    Tensor out = Tensor::Zeros(Shape(rows, d));
    const AttentionArgs args{.q = q.data(), .out = out.data(), .num_rows = rows,
                             .first_pos = keys - rows, .spans = kv.spans.data(),
                             .num_spans = static_cast<int64_t>(kv.spans.size()), .ld = d,
                             .panel = PagedKv::kBlock, .num_heads = 8, .d_head = 16};
    // K and V bytes the tiles read: each 64-row query block reads every key
    // its causal rows can see.
    double bytes = 0.0;
    for (int64_t r0 = 0; r0 < rows; r0 += 64) {
      bytes += 2.0 * static_cast<double>(std::min(keys, keys - rows + r0 + 64) * d) * 4.0;
    }
    for (KernelVariant variant : AvailableKernelVariants()) {
      const double us = MedianMicrosPerCall([&] { Attention(args, variant); }, calls, 21);
      table.AddRow({label, KernelVariantName(variant), AsciiTable::FormatDouble(us, 2),
                    AsciiTable::FormatDouble(bytes / us / 1e3, 2)});
    }
  };
  add("prefill 392 rows, causal", 392, 392, 2);
  for (int64_t keys : {96, 256, 1024}) {
    add("decode 1 row over " + std::to_string(keys) + " keys", 1, keys, 32);
  }
  table.Print("Attention, 8 heads of 16, paged 16-row KV blocks");
  std::printf(
      "long-context target (not a gate): decode over 1024 keys reads >= 15 GB/s of K+V\n");
}

void BM_GemmTiledDown(benchmark::State& state) {
  const int64_t m = state.range(0);  // token rows
  const int64_t k = 1024;            // d_model
  const int64_t n = 64;              // adapter rank
  Rng rng(1);
  Tensor a = Tensor::Random(Shape(m, k), rng, 1.0f);
  Tensor b = Tensor::Random(Shape(k, n), rng, 1.0f);
  Tensor c = Tensor::Zeros(Shape(m, n));
  GemmWorkspace workspace;
  const TileConfig config{static_cast<int>(std::min<int64_t>(64, m >= 64 ? 64 : 16)), 32, 128, 8,
                          8};
  for (auto _ : state) {
    c.Fill(0.0f);
    GemmTiled(a, b, c, config.Valid() ? config : TileConfig{}, workspace);
    benchmark::DoNotOptimize(c.data());
  }
  state.SetItemsProcessed(state.iterations() * 2 * m * n * k);
}
BENCHMARK(BM_GemmTiledDown)->Arg(16)->Arg(128)->Arg(1024);

void BM_AtmmExecute(benchmark::State& state) {
  const int64_t m = state.range(0);
  AtmmDispatcher dispatcher;
  Rng rng(2);
  Tensor a = Tensor::Random(Shape(m, 1024), rng, 1.0f);
  Tensor b = Tensor::Random(Shape(1024, 64), rng, 1.0f);
  Tensor c = Tensor::Zeros(Shape(m, 64));
  for (auto _ : state) {
    c.Fill(0.0f);
    dispatcher.Execute(a, b, c);
    benchmark::DoNotOptimize(c.data());
  }
  state.SetItemsProcessed(state.iterations() * 2 * m * 64 * 1024);
}
BENCHMARK(BM_AtmmExecute)->Arg(16)->Arg(256);

void BM_GemmNaiveReference(benchmark::State& state) {
  const int64_t m = state.range(0);
  Rng rng(3);
  Tensor a = Tensor::Random(Shape(m, 1024), rng, 1.0f);
  Tensor b = Tensor::Random(Shape(1024, 64), rng, 1.0f);
  Tensor c = Tensor::Zeros(Shape(m, 64));
  for (auto _ : state) {
    c.Fill(0.0f);
    GemmNaive(a.data(), b.data(), c.data(), m, 64, 1024);
    benchmark::DoNotOptimize(c.data());
  }
  state.SetItemsProcessed(state.iterations() * 2 * m * 64 * 1024);
}
BENCHMARK(BM_GemmNaiveReference)->Arg(16)->Arg(256);

}  // namespace
}  // namespace vlora

int main(int argc, char** argv) {
  vlora::PrintRegisterTiles();
  vlora::PrintComputePathComparison();
  vlora::PrintPrefillGemmStages();
  vlora::PrintAttentionStages();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
