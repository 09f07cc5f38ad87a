#include "src/kernels/quant.h"

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <cstring>

#include "src/common/status.h"
#include "src/kernels/gemm.h"
#include "src/kernels/microkernel.h"

namespace vlora {

namespace {

int64_t RoundUp(int64_t value, int64_t multiple) {
  return (value + multiple - 1) / multiple * multiple;
}

// Quantizes one block of `count` values (count <= kQuantBlockSize) from `src`
// into `dst`; quants beyond `count` are zero (the padding contract).
void QuantizeBlockQ8(const float* src, int count, BlockQ8* dst) {
  float max_abs = 0.0f;
  for (int i = 0; i < count; ++i) {
    max_abs = std::max(max_abs, std::fabs(src[i]));
  }
  const float scale = max_abs / 127.0f;
  dst->scale = scale;
  const float inv_scale = scale > 0.0f ? 1.0f / scale : 0.0f;
  for (int i = 0; i < count; ++i) {
    const long q = std::lroundf(src[i] * inv_scale);
    dst->q[i] = static_cast<int8_t>(std::clamp<long>(q, -127, 127));
  }
  for (int i = count; i < kQuantBlockSize; ++i) {
    dst->q[i] = 0;
  }
}

void QuantizeBlockQ4(const float* src, int count, BlockQ4* dst) {
  float max_abs = 0.0f;
  for (int i = 0; i < count; ++i) {
    max_abs = std::max(max_abs, std::fabs(src[i]));
  }
  const float scale = max_abs / 7.0f;
  dst->scale = scale;
  const float inv_scale = scale > 0.0f ? 1.0f / scale : 0.0f;
  uint8_t quants[kQuantBlockSize];
  for (int i = 0; i < count; ++i) {
    const long q = std::lroundf(src[i] * inv_scale);
    quants[i] = static_cast<uint8_t>(std::clamp<long>(q, -7, 7) + 8);
  }
  for (int i = count; i < kQuantBlockSize; ++i) {
    quants[i] = 8;  // biased zero
  }
  for (int i = 0; i < kQuantBlockSize / 2; ++i) {
    dst->q[i] = static_cast<uint8_t>(quants[2 * i] | (quants[2 * i + 1] << 4));
  }
}

// Scalar dequant of elements [lo, hi) of one block into dst[0 .. hi-lo).
void DequantBlockRangeQ8(const uint8_t* block_bytes, int lo, int hi, float* dst) {
  const BlockQ8* block = reinterpret_cast<const BlockQ8*>(block_bytes);
  for (int i = lo; i < hi; ++i) {
    dst[i - lo] = block->scale * static_cast<float>(block->q[i]);
  }
}

void DequantBlockRangeQ4(const uint8_t* block_bytes, int lo, int hi, float* dst) {
  const BlockQ4* block = reinterpret_cast<const BlockQ4*>(block_bytes);
  for (int i = lo; i < hi; ++i) {
    const uint8_t byte = block->q[i / 2];
    const int q = static_cast<int>((i % 2 == 0) ? (byte & 0x0F) : (byte >> 4)) - 8;
    dst[i - lo] = block->scale * static_cast<float>(q);
  }
}

void DequantBlockRange(WeightFormat format, const uint8_t* block_bytes, int lo, int hi,
                       float* dst) {
  if (format == WeightFormat::kQ8) {
    DequantBlockRangeQ8(block_bytes, lo, hi, dst);
  } else {
    DequantBlockRangeQ4(block_bytes, lo, hi, dst);
  }
}

// Dequant-fused PackB: packs the kc_eff x nc_eff panel of B starting at
// (pc, jc) into micro-col panels, dequantizing each B row once into row_buf
// (nc_eff floats) on the way through — blocks are read exactly once per panel.
void PackBQuantized(const QuantizedMatrix& b, int64_t pc, int64_t jc, int64_t kc_eff,
                    int64_t nc_eff, int nr, float* packed, float* row_buf,
                    KernelVariant variant) {
  for (int64_t p = 0; p < kc_eff; ++p) {
    b.DequantizeRowRange(pc + p, jc, jc + nc_eff, row_buf, variant);
    for (int64_t jr = 0; jr < nc_eff; jr += nr) {
      const int cols = static_cast<int>(std::min<int64_t>(nr, nc_eff - jr));
      float* dst = packed + (jr / nr) * (kc_eff * nr) + p * nr;
      for (int j = 0; j < cols; ++j) {
        dst[j] = row_buf[jr + j];
      }
      for (int j = cols; j < nr; ++j) {
        dst[j] = 0.0f;
      }
    }
  }
}

}  // namespace

size_t QuantBlockBytes(WeightFormat format) {
  switch (format) {
    case WeightFormat::kQ8:
      return sizeof(BlockQ8);
    case WeightFormat::kQ4:
      return sizeof(BlockQ4);
    case WeightFormat::kFp32:
      break;
  }
  VLORA_CHECK(false && "kFp32 is not a block format");
  return 0;
}

int QuantMaxLevel(WeightFormat format) {
  switch (format) {
    case WeightFormat::kQ8:
      return 127;
    case WeightFormat::kQ4:
      return 7;
    case WeightFormat::kFp32:
      break;
  }
  VLORA_CHECK(false && "kFp32 is not a block format");
  return 0;
}

float MaxAbsErrorBound(WeightFormat format, float block_max_abs) {
  // Half a quantization step, plus a whisker for the fp32 scale itself being
  // rounded (the scale is computed in fp32, so the grid points move by up to
  // one ulp of the scale times the quant level).
  const float scale = block_max_abs / static_cast<float>(QuantMaxLevel(format));
  return 0.5f * scale * (1.0f + 1e-5f);
}

QuantizedMatrix QuantizedMatrix::Quantize(const float* src, int64_t rows, int64_t cols,
                                          WeightFormat format) {
  VLORA_CHECK(rows > 0 && cols > 0);
  const size_t block_bytes = QuantBlockBytes(format);

  QuantizedMatrix out;
  out.format_ = format;
  out.rows_ = rows;
  out.cols_ = cols;
  out.blocks_per_row_ = (cols + kQuantBlockSize - 1) / kQuantBlockSize;
  // Round the row stride up to the alignment so every row starts aligned.
  out.row_stride_bytes_ = static_cast<size_t>(
      RoundUp(static_cast<int64_t>(out.blocks_per_row_ * block_bytes), kQuantAlignment));

  const size_t total_bytes = static_cast<size_t>(rows) * out.row_stride_bytes_;
  uint8_t* raw = static_cast<uint8_t*>(std::aligned_alloc(kQuantAlignment, total_bytes));
  VLORA_CHECK(raw != nullptr);
  std::memset(raw, 0, total_bytes);  // stride padding is deterministic zero
  out.data_ = std::shared_ptr<uint8_t[]>(raw, std::free);

  for (int64_t r = 0; r < rows; ++r) {
    const float* src_row = src + r * cols;
    uint8_t* dst_row = raw + static_cast<size_t>(r) * out.row_stride_bytes_;
    for (int64_t blk = 0; blk < out.blocks_per_row_; ++blk) {
      const int64_t col = blk * kQuantBlockSize;
      const int count = static_cast<int>(std::min<int64_t>(kQuantBlockSize, cols - col));
      uint8_t* dst = dst_row + static_cast<size_t>(blk) * block_bytes;
      if (format == WeightFormat::kQ8) {
        QuantizeBlockQ8(src_row + col, count, reinterpret_cast<BlockQ8*>(dst));
      } else {
        QuantizeBlockQ4(src_row + col, count, reinterpret_cast<BlockQ4*>(dst));
      }
    }
  }
  return out;
}

QuantizedMatrix QuantizedMatrix::Quantize(const Tensor& src, WeightFormat format) {
  VLORA_CHECK(src.shape().rank() == 2);
  return Quantize(src.data(), src.shape().dim(0), src.shape().dim(1), format);
}

void QuantizedMatrix::DequantizeRowRange(int64_t row, int64_t col_begin, int64_t col_end,
                                         float* dst, KernelVariant variant) const {
  VLORA_CHECK(!empty());
  VLORA_CHECK(row >= 0 && row < rows_);
  VLORA_CHECK(col_begin >= 0 && col_begin <= col_end && col_end <= cols_);
  const size_t block_bytes = QuantBlockBytes(format_);
  const uint8_t* row_blocks = RowBlocks(row);

  int64_t col = col_begin;
  // Leading partial block (col not on a block boundary): scalar.
  if (col % kQuantBlockSize != 0 && col < col_end) {
    const int64_t blk = col / kQuantBlockSize;
    const int64_t block_start = blk * kQuantBlockSize;
    const int64_t stop = std::min<int64_t>(col_end, block_start + kQuantBlockSize);
    DequantBlockRange(format_, row_blocks + static_cast<size_t>(blk) * block_bytes,
                      static_cast<int>(col - block_start), static_cast<int>(stop - block_start),
                      dst);
    dst += stop - col;
    col = stop;
  }
  if (col >= col_end) {
    return;
  }
  // From here col is block-aligned; the row helpers handle full blocks plus a
  // scalar tail bounded by the logical column count.
  const uint8_t* aligned_blocks =
      row_blocks + static_cast<size_t>(col / kQuantBlockSize) * block_bytes;
  if (variant == KernelVariant::kAvx2) {
    if (QuantDequantRowFn fast = Avx2QuantDequantRow(format_)) {
      fast(aligned_blocks, col_end - col, dst);
      return;
    }
  }
  while (col < col_end) {
    const int64_t blk = col / kQuantBlockSize;
    const int count = static_cast<int>(std::min<int64_t>(kQuantBlockSize, col_end - col));
    DequantBlockRange(format_, row_blocks + static_cast<size_t>(blk) * block_bytes, 0, count,
                      dst);
    dst += count;
    col += count;
  }
}

void GemmQuantized(const float* a, const QuantizedMatrix& b, float* c, int64_t m, int64_t n,
                   int64_t k, const TileConfig& config, GemmWorkspace& workspace,
                   KernelVariant variant) {
  VLORA_CHECK(!b.empty());
  VLORA_CHECK(b.rows() == k && b.cols() == n);
  if (m == 1) {
    GemvQuantized(a, b, c, variant);
    return;
  }
  VLORA_CHECK(config.Valid());
  const MicroKernelEntry* kernel = FindMicroKernel(variant, config.mr, config.nr);
  VLORA_CHECK(kernel != nullptr);

  const int64_t mc = config.mc;
  const int64_t nc = config.nc;
  const int64_t kc = config.kc;

  // A panels + B panels + one dequantized B row.
  float* pack_a = workspace.Ensure(mc * kc + kc * nc + nc);
  float* pack_b = pack_a + mc * kc;
  float* row_buf = pack_b + kc * nc;

  // B is dequantized while packing, so it is always read from packed panels.
  for (int64_t jc = 0; jc < n; jc += nc) {
    const int64_t nc_eff = std::min(nc, n - jc);
    for (int64_t pc = 0; pc < k; pc += kc) {
      const int64_t kc_eff = std::min(kc, k - pc);
      PackBQuantized(b, pc, jc, kc_eff, nc_eff, config.nr, pack_b, row_buf, variant);
      for (int64_t ic = 0; ic < m; ic += mc) {
        const int64_t mc_eff = std::min(mc, m - ic);
        PackAPanels(a + ic * k + pc, k, mc_eff, kc_eff, config.mr, pack_a);
        RunMicroKernels(*kernel, pack_a, mc_eff, pack_b, kc_eff, config.nr, nc_eff, kc_eff,
                        c + ic * n + jc, n);
      }
    }
  }
}

void GemmQuantized(const float* a, const QuantizedMatrix& b, float* c, int64_t m, int64_t n,
                   int64_t k, const TileConfig& config, GemmWorkspace& workspace) {
  GemmQuantized(a, b, c, m, n, k, config, workspace, ActiveKernelVariant());
}

void GemvQuantized(const float* x, const QuantizedMatrix& b, float* y, KernelVariant variant) {
  VLORA_CHECK(!b.empty());
  const int64_t k = b.rows();
  const int64_t n = b.cols();
  if (variant == KernelVariant::kAvx2) {
    if (QuantAxpyRowFn fast = Avx2QuantAxpyRow(b.format())) {
      for (int64_t p = 0; p < k; ++p) {
        fast(b.RowBlocks(p), n, x[p], y);
      }
      return;
    }
  }
  const size_t block_bytes = QuantBlockBytes(b.format());
  for (int64_t p = 0; p < k; ++p) {
    const uint8_t* row_blocks = b.RowBlocks(p);
    const float x_p = x[p];
    for (int64_t col = 0; col < n; col += kQuantBlockSize) {
      const int count = static_cast<int>(std::min<int64_t>(kQuantBlockSize, n - col));
      const uint8_t* block = row_blocks + static_cast<size_t>(col / kQuantBlockSize) * block_bytes;
      if (b.format() == WeightFormat::kQ8) {
        const BlockQ8* q8 = reinterpret_cast<const BlockQ8*>(block);
        const float s = x_p * q8->scale;
        for (int i = 0; i < count; ++i) {
          y[col + i] += s * static_cast<float>(q8->q[i]);
        }
      } else {
        const BlockQ4* q4 = reinterpret_cast<const BlockQ4*>(block);
        const float s = x_p * q4->scale;
        for (int i = 0; i < count; ++i) {
          const uint8_t byte = q4->q[i / 2];
          const int q = static_cast<int>((i % 2 == 0) ? (byte & 0x0F) : (byte >> 4)) - 8;
          y[col + i] += s * static_cast<float>(q);
        }
      }
    }
  }
}

}  // namespace vlora
