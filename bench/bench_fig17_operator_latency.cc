// Fig 17: mean latency of the LoRA batching operators across token batch
// sizes. Paper: ATMM is 2.7x / 2.3x / 3.4x faster than S-LoRA / Punica /
// dLoRA(Einsum) on average, and at decode-stage (small) shapes it matches
// S-LoRA while beating Punica 2.6x and dLoRA 4.5x. REAL CPU measurements.

#include <cmath>

#include "bench/bench_operator_common.h"

namespace vlora {
namespace {

void Run() {
  bench::PrintHeader("Fig 17 — operator mean latency vs token batch size (REAL CPU kernels)",
                     "ATMM fastest on average (2.7x/2.3x/3.4x vs S-LoRA/Punica/dLoRA); "
                     "comparable to S-LoRA at decode shapes");
  const std::vector<int64_t> batch_sizes = {4, 16, 64, 256, 1024};
  constexpr int kWarmups = 5;
  bench::OperatorWorkload workload;
  // Every operator runs the same drawn rounds; ATMM's table is searched
  // over the segments they hold.
  std::vector<std::vector<std::vector<LoraSegment>>> rounds;
  for (int64_t batch : batch_sizes) {
    const int timed = batch >= 1024 ? 15 : (batch >= 256 ? 30 : 60);
    rounds.push_back(workload.DrawRounds(batch, kWarmups + timed));
  }
  bench::TileTable atmm_table;
  bench::BuildAtmmTable(atmm_table, rounds);
  auto operators = bench::MakeOperators(atmm_table);

  std::vector<std::string> header = {"batch tokens"};
  for (const auto& op : operators) {
    header.push_back(op->name() + " ms");
  }
  AsciiTable table(header);

  std::vector<double> geo_sums(operators.size(), 0.0);
  for (size_t b = 0; b < batch_sizes.size(); ++b) {
    const int64_t batch = batch_sizes[b];
    std::vector<std::string> row = {std::to_string(batch)};
    std::vector<double> means;
    for (size_t i = 0; i < operators.size(); ++i) {
      const bench::OperatorTiming timing =
          bench::TimeOperator(*operators[i], workload, batch, rounds[b], kWarmups);
      const double mean = timing.per_round_ms.Mean();
      means.push_back(mean);
      row.push_back(AsciiTable::FormatDouble(mean, 3));
    }
    for (size_t i = 0; i < means.size(); ++i) {
      geo_sums[i] += std::log(means[i]);
    }
    table.AddRow(row);
  }
  table.Print("Fig 17 reproduction (mean ms per operator call)");

  const double atmm_geo = std::exp(geo_sums[0] / static_cast<double>(batch_sizes.size()));
  std::printf("Geometric-mean speedup of ATMM: vs %s %.2fx, vs %s %.2fx, vs %s %.2fx\n",
              operators[1]->name().c_str(),
              std::exp(geo_sums[1] / static_cast<double>(batch_sizes.size())) / atmm_geo,
              operators[2]->name().c_str(),
              std::exp(geo_sums[2] / static_cast<double>(batch_sizes.size())) / atmm_geo,
              operators[3]->name().c_str(),
              std::exp(geo_sums[3] / static_cast<double>(batch_sizes.size())) / atmm_geo);
  std::printf("Paper shape: ATMM lowest at every batch size; Einsum worst from padding + "
              "unblocked GEMM.\n");
  std::printf("ATMM's searched table supplied %.0f%% of the row's tiles (%lld shapes).\n",
              100.0 * atmm_table.SuppliedShare(), static_cast<long long>(atmm_table.size()));
}

}  // namespace
}  // namespace vlora

int main() {
  vlora::Run();
  return 0;
}
