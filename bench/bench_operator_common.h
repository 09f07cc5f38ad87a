// Shared workload + timing harness for the real-kernel operator benches
// (Fig 17 latency, Fig 18 stability). The four LoRA batching operators run on
// the actual CPU tiled kernels; measurements are wall-clock, not modelled.
//
// The model dimension is scaled to 1024 (the paper uses 4096 on an A100) so
// a single CPU thread finishes the sweep in seconds; adapter ranks and the
// heterogeneous segmentation match the serving workload's mix.

#ifndef VLORA_BENCH_BENCH_OPERATOR_COMMON_H_
#define VLORA_BENCH_BENCH_OPERATOR_COMMON_H_

#include <memory>
#include <set>
#include <vector>

#include "bench/bench_tiling_search.h"
#include "bench/bench_util.h"
#include "src/common/stats.h"
#include "src/common/stopwatch.h"
#include "src/kernels/lora_ops.h"

namespace vlora {
namespace bench {

inline constexpr int64_t kDModel = 1024;
inline constexpr int64_t kRanks[] = {16, 32, 64};

struct OperatorWorkload {
  std::vector<Tensor> downs;
  std::vector<Tensor> ups;
  std::vector<AdapterWeightsView> views;
  Rng rng{0xC0FFEE};

  OperatorWorkload() {
    for (int64_t rank : kRanks) {
      downs.push_back(Tensor::Random(Shape(kDModel, rank), rng, 0.3f));
      ups.push_back(Tensor::Random(Shape(rank, kDModel), rng, 0.3f));
    }
    for (size_t i = 0; i < downs.size(); ++i) {
      views.push_back(AdapterWeightsView{.down = &downs[i], .up = &ups[i], .scaling = 1.0f});
    }
  }

  // Random heterogeneous segmentation of a token batch over 2-4 adapters,
  // re-drawn per round ("large amounts of diverse inputs", §6.3.2).
  std::vector<LoraSegment> RandomSegments(int64_t total_rows) {
    std::vector<LoraSegment> segments;
    const int num_segments = static_cast<int>(rng.NextInt(2, 4));
    int64_t cursor = 0;
    for (int s = 0; s < num_segments && cursor < total_rows; ++s) {
      int64_t len = s == num_segments - 1
                        ? total_rows - cursor
                        : std::max<int64_t>(1, total_rows / num_segments +
                                                   rng.NextInt(-total_rows / 8,
                                                               total_rows / 8));
      len = std::min(len, total_rows - cursor);
      segments.push_back(LoraSegment{cursor, cursor + len,
                                     static_cast<int>(rng.NextInt(0, 2))});
      cursor += len;
    }
    if (cursor < total_rows) {
      segments.push_back(LoraSegment{cursor, total_rows, 0});
    }
    return segments;
  }

  // The segmentations of `rounds` rounds at `total_rows`, drawn before any
  // of them runs, so that ATMM's table can be searched over their shapes.
  std::vector<std::vector<LoraSegment>> DrawRounds(int64_t total_rows, int rounds) {
    std::vector<std::vector<LoraSegment>> drawn;
    for (int round = 0; round < rounds; ++round) {
      drawn.push_back(RandomSegments(total_rows));
    }
    return drawn;
  }
};

// Builds ATMM's shape table for the GEMMs the drawn rounds run: one per
// segment row count, each LoRA rank and both projections — the offline
// profile-based search of §4.3.2 over a reduced candidate set. The operator
// runs one GEMM pair per segment, so searching the batch sizes alone would
// leave most segments to the serving rule.
inline void BuildAtmmTable(TileTable& table,
                           const std::vector<std::vector<std::vector<LoraSegment>>>& rounds) {
  std::vector<TileConfig> candidates = {
      {16, 16, 64, 4, 4},  {32, 32, 64, 8, 8},    {64, 32, 128, 8, 8},
      {64, 64, 128, 8, 8}, {128, 64, 128, 8, 16}, {256, 64, 256, 8, 8},
      {128, 128, 256, 8, 8},
  };
  TilingSearchOptions options;
  options.candidates = candidates;
  options.repetitions = 2;
  for (int64_t rank : kRanks) {
    options.nk_pairs.push_back({rank, kDModel});   // down projection
    options.nk_pairs.push_back({kDModel, rank});   // up projection
  }
  std::set<int64_t> segment_rows;
  for (const auto& batch_rounds : rounds) {
    for (const std::vector<LoraSegment>& segments : batch_rounds) {
      for (const LoraSegment& segment : segments) {
        segment_rows.insert(segment.NumRows());
      }
    }
  }
  for (int64_t rows : segment_rows) {
    options.m_min = rows;
    options.m_max = rows;
    RunTilingSearch(options, table);
  }
}

struct OperatorTiming {
  SampleStats per_round_ms;
};

// Times the drawn rounds of the operator at a fixed token batch size, the
// first `warmups` of them untimed (the paper uses 100 rounds after 10
// warm-ups; we scale rounds with batch size to keep total time bounded).
inline OperatorTiming TimeOperator(LoraBatchOperator& op, OperatorWorkload& workload,
                                   int64_t batch_tokens,
                                   const std::vector<std::vector<LoraSegment>>& rounds,
                                   int warmups) {
  OperatorTiming timing;
  Tensor x = Tensor::Random(Shape(batch_tokens, kDModel), workload.rng, 1.0f);
  Tensor y = Tensor::Zeros(Shape(batch_tokens, kDModel));
  for (size_t round = 0; round < rounds.size(); ++round) {
    y.Fill(0.0f);
    Stopwatch timer;
    op.Run(x, rounds[round], workload.views, y);
    const double ms = timer.ElapsedMillis();
    if (round >= static_cast<size_t>(warmups)) {
      timing.per_round_ms.Add(ms);
    }
  }
  return timing;
}

// ATMM, S-LoRA, Punica and Einsum, in that order. ATMM runs each segment's
// GEMMs with the tiles `table` records; the table must outlive the operators.
inline std::vector<std::unique_ptr<LoraBatchOperator>> MakeOperators(const TileTable& table) {
  std::vector<std::unique_ptr<LoraBatchOperator>> ops;
  ops.push_back(std::make_unique<StaticTileLoraOperator>(
      "ATMM", [&table](int64_t m, int64_t n, int64_t k) { return table.Select(m, n, k); }));
  ops.push_back(MakeSloraOperator());
  ops.push_back(MakePunicaOperator());
  ops.push_back(std::make_unique<EinsumLoraOperator>());
  return ops;
}

}  // namespace bench
}  // namespace vlora

#endif  // VLORA_BENCH_BENCH_OPERATOR_COMMON_H_
