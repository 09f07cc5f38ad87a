#include "src/kernels/transformer_ops.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "src/common/status.h"
#include "src/kernels/microkernel.h"

namespace vlora {

void RmsNormRows(const float* x, const float* gain, float* out, int64_t rows, int64_t d) {
  for (int64_t r = 0; r < rows; ++r) {
    const float* row = x + r * d;
    float ss = 0.0f;
    for (int64_t i = 0; i < d; ++i) {
      ss += row[i] * row[i];
    }
    const float inv = 1.0f / std::sqrt(ss / static_cast<float>(d) + 1e-5f);
    float* out_row = out + r * d;
    for (int64_t i = 0; i < d; ++i) {
      out_row[i] = row[i] * inv * gain[i];
    }
  }
}

void SiluScalar(float* x, int64_t n) {
  for (int64_t i = 0; i < n; ++i) {
    x[i] = x[i] / (1.0f + std::exp(-x[i]));
  }
}

void SiluInPlace(float* x, int64_t n, KernelVariant variant) {
  if (variant != KernelVariant::kScalar) {  // AVX-512 keeps the AVX2 loop
    SiluAvx2(x, n);
  } else {
    SiluScalar(x, n);
  }
}

void AddPositionEmbedding(float* row, int64_t d, int64_t position) {
  for (int64_t i = 0; i < d; i += 2) {
    const double angle = static_cast<double>(position) /
                         std::pow(10000.0, static_cast<double>(i) / static_cast<double>(d));
    row[i] += 0.1f * static_cast<float>(std::sin(angle));
    if (i + 1 < d) {
      row[i + 1] += 0.1f * static_cast<float>(std::cos(angle));
    }
  }
}

PositionEmbeddingTable::PositionEmbeddingTable(int64_t d, int64_t max_rows)
    : d_(d), max_rows_(max_rows) {
  VLORA_CHECK(d > 0 && max_rows >= 0);
}

void PositionEmbeddingTable::Add(float* row, int64_t position) {
  if (position >= max_rows_) {
    AddPositionEmbedding(row, d_, position);
    return;
  }
  const int64_t filled = filled_rows();
  if (position >= filled) {
    // Grow by doubling, capped at max_rows. max_rows itself is not reserved
    // up front: nothing bounds it (a model config from the wire checks > 0).
    const int64_t rows = std::min(max_rows_, std::max(2 * filled, position + 1));
    rows_.reserve(static_cast<size_t>(rows * d_));
    rows_.resize(static_cast<size_t>((position + 1) * d_), 0.0f);
    for (int64_t p = filled; p <= position; ++p) {
      AddPositionEmbedding(rows_.data() + p * d_, d_, p);
    }
  }
  const float* embedding = rows_.data() + position * d_;
  for (int64_t i = 0; i < d_; ++i) {
    row[i] += embedding[i];
  }
}

void AttentionTileScalar(const AttentionTile& t) {
  for (int64_t r = t.First(); r < t.rows; ++r) {
    const int64_t n = t.Visible(r);
    float* acc = t.out + r * t.ld;
    float scores[kAttentionTile];
    float m_new = t.m[r];
    for (int64_t j = 0; j < n; ++j) {
      float dot = 0.0f;
      for (int64_t c = 0; c < t.d_head; ++c) {
        dot += t.q[r * t.ld + c] * t.k[c * t.panel + j];
      }
      scores[j] = dot * t.scale;
      m_new = std::max(m_new, scores[j]);
    }
    // Online softmax: rescale earlier tiles' sums to the new max, add this tile.
    const float alpha = std::exp(t.m[r] - m_new);
    t.l[r] *= alpha;
    for (int64_t c = 0; c < t.d_head; ++c) {
      acc[c] *= alpha;
    }
    for (int64_t j = 0; j < n; ++j) {
      const float p = std::exp(scores[j] - m_new);
      t.l[r] += p;
      for (int64_t c = 0; c < t.d_head; ++c) {
        acc[c] += p * t.v[j * t.ld + c];
      }
    }
    t.m[r] = m_new;
  }
}

void PackKeyPanel(const float* k, int64_t rows, int64_t ld, float* kt) {
  for (int64_t j = 0; j < rows; ++j) {
    WriteKeyRow(k + j * ld, ld, rows, j, kt);
  }
}

void Attention(const AttentionArgs& a, KernelVariant variant) {
  int64_t keys = 0;
  for (int64_t s = 0; s < a.num_spans; ++s) {
    VLORA_CHECK(a.spans[s].rows <= a.panel);
    keys += a.spans[s].rows;
  }
  // Every head fits the row stride; a causal row needs its own key cached.
  VLORA_CHECK(a.num_heads > 0 && a.d_head > 0 && a.num_heads * a.d_head <= a.ld);
  VLORA_CHECK(a.num_rows >= 0 && a.first_pos >= 0 &&
              (a.causal ? a.first_pos + a.num_rows <= keys : keys > 0));
  float m[kAttentionQueryBlock];
  float l[kAttentionQueryBlock];
  AttentionTile tile{.ld = a.ld, .panel = a.panel, .d_head = a.d_head, .m = m, .l = l};
  tile.scale = 1.0f / std::sqrt(static_cast<float>(a.d_head));
  for (int64_t r0 = 0; r0 < a.num_rows; r0 += kAttentionQueryBlock) {
    tile.rows = std::min(kAttentionQueryBlock, a.num_rows - r0);
    const int64_t block_pos = a.first_pos + r0;
    // Keys [0, end) are visible to some row of the block; end <= keys.
    const int64_t end = a.causal ? block_pos + tile.rows : keys;
    for (int64_t off = 0; off < a.num_heads * a.d_head; off += a.d_head) {
      tile.q = a.q + r0 * a.ld + off;
      tile.out = a.out + r0 * a.ld + off;
      for (int64_t r = 0; r < tile.rows; ++r) {
        m[r] = -std::numeric_limits<float>::infinity();
        l[r] = 0.0f;
        std::fill_n(tile.out + r * a.ld, a.d_head, 0.0f);
      }
      int64_t span_pos = 0;  // absolute position of the span's row 0
      for (int64_t s = 0; span_pos < end; ++s) {
        const KvSpan& span = a.spans[s];
        for (int64_t t0 = 0; t0 < span.rows && span_pos + t0 < end; t0 += kAttentionTile) {
          tile.k = span.k + off * a.panel + t0;
          tile.v = span.v + t0 * a.ld + off;
          tile.keys = std::min(kAttentionTile, span.rows - t0);
          // Causal row r sits at block_pos + r and sees the keys up to itself.
          tile.row_offset = a.causal ? block_pos - span_pos - t0 + 1 : kAttentionTile;
          if (variant == KernelVariant::kAvx512) {
            AttentionTileAvx512(tile);
          } else if (variant == KernelVariant::kAvx2) {
            AttentionTileAvx2(tile);
          } else {
            AttentionTileScalar(tile);
          }
        }
        span_pos += span.rows;
      }
      for (int64_t r = 0; r < tile.rows; ++r) {
        for (int64_t c = 0; c < a.d_head; ++c) {
          tile.out[r * a.ld + c] /= l[r];
        }
      }
    }
  }
}

}  // namespace vlora
