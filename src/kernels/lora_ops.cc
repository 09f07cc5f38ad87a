#include "src/kernels/lora_ops.h"

#include <algorithm>
#include <cstring>

namespace vlora {

namespace {

// Scales rows [0, rows) x [0, cols) of `mid` by `scaling` in place. Applied to
// the intermediate (X * down) so the final accumulation into Y is a plain
// GEMM for every operator.
void ScaleRows(float* mid, int64_t rows, int64_t cols, float scaling) {
  if (scaling == 1.0f) {
    return;
  }
  const int64_t n = rows * cols;
  for (int64_t i = 0; i < n; ++i) {
    mid[i] *= scaling;
  }
}

float* EnsureFloats(std::vector<float>& buffer, int64_t floats) {
  if (static_cast<int64_t>(buffer.size()) < floats) {
    buffer.resize(static_cast<size_t>(floats));
  }
  return buffer.data();
}

}  // namespace

AtmmLoraOperator::AtmmLoraOperator(AtmmDispatcher* dispatcher) : dispatcher_(dispatcher) {
  VLORA_CHECK(dispatcher != nullptr);
}

void AtmmLoraOperator::Run(const Tensor& x, const std::vector<LoraSegment>& segments,
                           const std::vector<AdapterWeightsView>& adapters, Tensor& y) {
  VLORA_CHECK(x.shape() == y.shape());
  ValidateSegments(segments, x.shape().dim(0), static_cast<int64_t>(adapters.size()));
  const int64_t d = x.shape().dim(1);
  for (const LoraSegment& segment : segments) {
    const AdapterWeightsView& adapter = adapters[static_cast<size_t>(segment.adapter_index)];
    VLORA_CHECK(adapter.d_model() == d);
    const int64_t rows = segment.NumRows();
    const int64_t rank = adapter.rank();
    float* mid = EnsureFloats(intermediate_, rows * rank);
    std::memset(mid, 0, static_cast<size_t>(rows * rank) * sizeof(float));
    const float* x_seg = x.data() + segment.row_begin * d;
    float* y_seg = y.data() + segment.row_begin * d;
    dispatcher_->Execute(x_seg, adapter.down->data(), mid, rows, rank, d);
    ScaleRows(mid, rows, rank, adapter.scaling);
    dispatcher_->Execute(mid, adapter.up->data(), y_seg, rows, d, rank);
  }
}

StaticTileLoraOperator::StaticTileLoraOperator(std::string name, const TileConfig& config)
    : name_(std::move(name)), config_(config) {
  VLORA_CHECK(config_.Valid());
}

void StaticTileLoraOperator::Run(const Tensor& x, const std::vector<LoraSegment>& segments,
                                 const std::vector<AdapterWeightsView>& adapters, Tensor& y) {
  VLORA_CHECK(x.shape() == y.shape());
  ValidateSegments(segments, x.shape().dim(0), static_cast<int64_t>(adapters.size()));
  const int64_t d = x.shape().dim(1);
  for (const LoraSegment& segment : segments) {
    const AdapterWeightsView& adapter = adapters[static_cast<size_t>(segment.adapter_index)];
    VLORA_CHECK(adapter.d_model() == d);
    const int64_t rows = segment.NumRows();
    const int64_t rank = adapter.rank();
    float* mid = EnsureFloats(intermediate_, rows * rank);
    std::memset(mid, 0, static_cast<size_t>(rows * rank) * sizeof(float));
    const float* x_seg = x.data() + segment.row_begin * d;
    GemmTiled(x_seg, adapter.down->data(), mid, rows, rank, d, config_, workspace_);
    ScaleRows(mid, rows, rank, adapter.scaling);
    float* y_seg = y.data() + segment.row_begin * d;
    GemmTiled(mid, adapter.up->data(), y_seg, rows, d, rank, config_, workspace_);
  }
}

std::unique_ptr<StaticTileLoraOperator> MakeSloraOperator() {
  return std::make_unique<StaticTileLoraOperator>("S-LoRA", SloraStaticConfig());
}

std::unique_ptr<StaticTileLoraOperator> MakePunicaOperator() {
  return std::make_unique<StaticTileLoraOperator>("Punica", PunicaStaticConfig());
}

EinsumLoraOperator::EinsumLoraOperator() = default;

void EinsumLoraOperator::Run(const Tensor& x, const std::vector<LoraSegment>& segments,
                             const std::vector<AdapterWeightsView>& adapters, Tensor& y) {
  VLORA_CHECK(x.shape() == y.shape());
  ValidateSegments(segments, x.shape().dim(0), static_cast<int64_t>(adapters.size()));
  const int64_t d = x.shape().dim(1);

  // Batched-GEMM semantics: every operand in the batch must share one shape,
  // so all segments pad to (max_rows x d) and all adapters to rank max_rank.
  int64_t max_rows = 0;
  int64_t max_rank = 0;
  for (const LoraSegment& segment : segments) {
    max_rows = std::max(max_rows, segment.NumRows());
    max_rank = std::max(max_rank,
                        adapters[static_cast<size_t>(segment.adapter_index)].rank());
  }
  if (max_rows == 0) {
    return;
  }

  float* pad_x = EnsureFloats(padded_x_, max_rows * d);
  float* pad_mid = EnsureFloats(padded_mid_, max_rows * max_rank);
  float* pad_down = EnsureFloats(padded_down_, d * max_rank);
  float* pad_up = EnsureFloats(padded_up_, max_rank * d);

  for (const LoraSegment& segment : segments) {
    const AdapterWeightsView& adapter = adapters[static_cast<size_t>(segment.adapter_index)];
    const int64_t rows = segment.NumRows();
    const int64_t rank = adapter.rank();

    // Copy-and-pad the operands (the reshape/contiguous copies torch.einsum
    // performs on strided gather inputs).
    std::memset(pad_x, 0, static_cast<size_t>(max_rows * d) * sizeof(float));
    std::memcpy(pad_x, x.data() + segment.row_begin * d,
                static_cast<size_t>(rows * d) * sizeof(float));
    std::memset(pad_down, 0, static_cast<size_t>(d * max_rank) * sizeof(float));
    for (int64_t row = 0; row < d; ++row) {
      std::memcpy(pad_down + row * max_rank, adapter.down->data() + row * rank,
                  static_cast<size_t>(rank) * sizeof(float));
    }
    std::memset(pad_up, 0, static_cast<size_t>(max_rank * d) * sizeof(float));
    std::memcpy(pad_up, adapter.up->data(), static_cast<size_t>(rank * d) * sizeof(float));

    // Unblocked batched GEMM over the padded operands.
    std::memset(pad_mid, 0, static_cast<size_t>(max_rows * max_rank) * sizeof(float));
    GemmNaive(pad_x, pad_down, pad_mid, max_rows, max_rank, d);
    ScaleRows(pad_mid, max_rows, max_rank, adapter.scaling);

    // Accumulate only the live rows back into Y.
    float* y_seg = y.data() + segment.row_begin * d;
    GemmNaive(pad_mid, pad_up, y_seg, rows, d, max_rank);
  }
}

}  // namespace vlora
