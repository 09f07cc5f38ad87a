// Parallel block tiles and parallel prefill steps, REAL measurements.
//
// Part 1, the mechanical demonstration of Table 1's "low SM utilisation"
// failure mode: a tiling configuration gives a compute group one index per
// A-side block tile; with fewer block tiles than threads (the SM analog),
// cores idle and the speedup collapses — Fig 12(b)'s story of Config 2
// occupying 64 of 108 SMs.
//
// Part 2, the serving engine's split step: a SmallConfig merged prefill step
// at compute_threads 1 and 2, each step after a 150 ms idle gap, as open-loop
// serving sees it. Helpers are pinned, and the stepping thread kept off their
// CPUs, the way a replica does it. Only gaps show a wake path that loses a
// scheduler tick; back-to-back steps, printed beside them, hide it.

#include <chrono>
#include <thread>

#include "bench/bench_util.h"
#include "src/cluster/replica.h"
#include "src/common/stats.h"
#include "src/common/stopwatch.h"
#include "src/engine/engine.h"
#include "src/kernels/gemm.h"

namespace vlora {
namespace {

double TimeMs(const std::function<void()>& fn, int reps) {
  fn();  // warm-up
  double best = 1e30;
  for (int rep = 0; rep < reps; ++rep) {
    Stopwatch timer;
    fn();
    best = std::min(best, timer.ElapsedMillis());
  }
  return best;
}

void RunBlockTiles(int threads) {
  ComputeGroup group(threads);
  Rng rng(0x7117);
  const int64_t k = 1024;
  const int64_t n = 64;
  AsciiTable table({"m (rows)", "mc", "block tiles", "occupancy %", "serial ms", "parallel ms",
                    "speedup"});
  for (int64_t m : {128, 512, 2048}) {
    Tensor a = Tensor::Random(Shape(m, k), rng, 1.0f);
    Tensor b = Tensor::Random(Shape(k, n), rng, 1.0f);
    Tensor c = Tensor::Zeros(Shape(m, n));
    for (int mc : {32, 128, 2048}) {
      if (mc > 4 * m) {
        continue;
      }
      TileConfig config{mc, 32, 128, 8, 8};
      if (!config.Valid()) {
        continue;
      }
      const int64_t blocks = (m + mc - 1) / mc;
      const double occupancy =
          100.0 * static_cast<double>(std::min<int64_t>(blocks, threads)) / threads;
      GemmWorkspace ws_serial;
      GemmWorkspace ws_parallel;
      const double serial_ms = TimeMs(
          [&] {
            c.Fill(0.0f);
            GemmTiled(a, b, c, config, ws_serial);
          },
          3);
      const double parallel_ms = TimeMs(
          [&] {
            c.Fill(0.0f);
            GemmTiledParallel(a.data(), b.data(), c.data(), m, n, k, config, ws_parallel, group);
          },
          3);
      table.AddRow({std::to_string(m), std::to_string(mc), std::to_string(blocks),
                    AsciiTable::FormatDouble(occupancy, 0),
                    AsciiTable::FormatDouble(serial_ms, 3),
                    AsciiTable::FormatDouble(parallel_ms, 3),
                    AsciiTable::FormatDouble(serial_ms / parallel_ms, 2) + "x"});
    }
  }
  table.Print("Block-tile occupancy vs speedup");
  if (threads >= 4) {
    std::printf("Shape check: speedup tracks occupancy — a config with one giant block tile "
                "gains nothing from %d workers, exactly why static large tiles lose on small "
                "inputs in Table 1.\n", threads);
  } else {
    std::printf("NOTE: this machine exposes only %d hardware threads, so the parallel headroom "
                "is minimal and the occupancy effect is muted; on a many-core host (or the "
                "paper's 108-SM A100) the single-block-tile rows fall far behind.\n", threads);
  }
}

// Median ms of `steps` merged prefill steps of `rows` fresh prompt tokens,
// each after `gap_ms` idle (0: back to back).
double PrefillStepMs(int compute_threads, int64_t rows, double gap_ms, int steps) {
  const ModelConfig config = SmallConfig();
  EngineOptions options;
  options.compute_threads = compute_threads;
  InferenceEngine engine(config, options);
  engine.PinComputeHelpers(HelperCpus(0, compute_threads));
  KeepOffHelperCpus(0, compute_threads);
  Rng rng(0x9A9);
  const LoraAdapter adapter =
      LoraAdapter::Random("video", config.num_layers, config.d_model, 8, rng);
  engine.RegisterAdapter(&adapter);
  engine.SetMode(InferMode::kMerged, 0);
  SampleStats step_ms;
  for (int step = -2; step < steps; ++step) {  // two warm-up steps
    EngineRequest request;
    request.id = step + 2;
    request.adapter_id = 0;
    request.max_new_tokens = 1;
    for (int64_t t = 0; t < rows; ++t) {  // fresh tokens: no prefix reuse
      request.prompt_tokens.push_back(
          static_cast<int32_t>(rng.NextInt(2, config.vocab_size - 1)));
    }
    engine.Submit(std::move(request));
    if (gap_ms > 0.0) {
      std::this_thread::sleep_for(std::chrono::duration<double, std::milli>(gap_ms));
    }
    Stopwatch timer;
    const std::vector<EngineResult> done = engine.Step();
    const double ms = timer.ElapsedMillis();
    VLORA_CHECK(done.size() == 1);
    if (step >= 0) {
      step_ms.Add(ms);
    }
  }
  return step_ms.Percentile(50.0);
}

void RunPrefillSteps() {
  constexpr double kGapMs = 150.0;
  constexpr int kSteps = 20;
  AsciiTable table({"prompt rows", "threads", "gapped p50 ms", "back-to-back p50 ms"});
  for (int64_t rows : {128, 392}) {
    for (int threads : {1, 2}) {
      table.AddRow({std::to_string(rows), std::to_string(threads),
                    AsciiTable::FormatDouble(PrefillStepMs(threads, rows, kGapMs, kSteps), 2),
                    AsciiTable::FormatDouble(PrefillStepMs(threads, rows, 0.0, kSteps), 2)});
    }
  }
  table.Print("SmallConfig merged prefill step, median of " + std::to_string(kSteps) +
              " steps, each after a " + AsciiTable::FormatDouble(kGapMs, 0) + " ms idle gap");
  std::printf("Outputs are bitwise equal at every thread count (compute_group_test).\n");
}

void Run() {
  const int threads = static_cast<int>(std::max(2u, std::thread::hardware_concurrency()));
  bench::PrintHeader(
      "Parallel tiles — block-tile count vs worker utilisation (REAL, " +
          std::to_string(threads) + " threads)",
      "oversized tiles -> fewer block tiles than workers -> idle cores "
      "(Table 1 / Fig 12(b) 'low SM utilisation')");
  RunBlockTiles(threads);
  RunPrefillSteps();
}

}  // namespace
}  // namespace vlora

int main() {
  vlora::Run();
  return 0;
}
