// Transformer operators shared by the inference engine, the vision tower and
// the LoRA trainer: one RMSNorm, SiLU, position embedding and attention.
// DESIGN.md §12 describes the attention kernel and its per-row invariant.

#ifndef VLORA_SRC_KERNELS_TRANSFORMER_OPS_H_
#define VLORA_SRC_KERNELS_TRANSFORMER_OPS_H_

#include <cstdint>
#include <vector>

#include "src/common/annotations.h"
#include "src/kernels/kernel_variant.h"

namespace vlora {

// out[r] = x[r] / sqrt(mean(x[r]^2) + 1e-5) * gain for `rows` rows of width d.
void RmsNormRows(const float* x, const float* gain, float* out, int64_t rows, int64_t d);

// x = x * sigmoid(x), elementwise over n values. The scalar loop
// (SiluScalar, microkernel.h) defines the semantics; the AVX2 one, which the
// AVX-512 variant runs too, only rounds apart, except below -87.33, where
// both results are tiny.
void SiluInPlace(float* x, int64_t n, KernelVariant variant = ActiveKernelVariant());

// Adds the sinusoidal embedding of absolute `position` to one d-wide row.
void AddPositionEmbedding(float* row, int64_t d, int64_t position);

// AddPositionEmbedding from a table: each position's row is computed once,
// by AddPositionEmbedding on a zeroed row, and then added as stored. That is
// bitwise what AddPositionEmbedding adds, since no stored value is -0 (every
// angle is >= 0). Rows are filled on first use, up to the highest position
// reached; positions at or past max_rows call AddPositionEmbedding instead.
class PositionEmbeddingTable {
 public:
  PositionEmbeddingTable(int64_t d, int64_t max_rows);

  void Add(float* row, int64_t position);
  int64_t filled_rows() const { return static_cast<int64_t>(rows_.size()) / d_; }

 private:
  int64_t d_;
  int64_t max_rows_;
  std::vector<float> rows_;  // the filled rows; capacity at most max_rows rows
};

// `rows` cached keys and values at consecutive positions, read in place.
// K is a key panel `panel` keys wide (AttentionArgs::panel, rows <= panel):
// column c of key j lies at k[c * panel + j], so each column of a key tile is
// contiguous and the tile loads it as is. V is row-major: row j at
// v + j * ld. A KV block stores its K this way with panel = block size
// (kv_cache.h).
struct KvSpan {
  const float* k = nullptr;
  const float* v = nullptr;
  int64_t rows = 0;
};

// Stores the d floats of `key` as key j of the panel kt, `panel` keys wide.
inline void WriteKeyRow(const float* key, int64_t d, int64_t panel, int64_t j, float* kt) {
  for (int64_t c = 0; c < d; ++c) {
    kt[c * panel + j] = key[c];
  }
}

// Packs `rows` dense keys (row j at k + j * ld, ld floats wide) into one
// panel kt of rows * ld floats, `rows` keys wide: a single span over them
// has panel = rows.
void PackKeyPanel(const float* k, int64_t rows, int64_t ld, float* kt);

struct AttentionArgs {
  const float* q = nullptr;  // num_rows query rows; row i at q + i * ld
  float* out = nullptr;      // written, same layout as q; must not overlap q
  int64_t num_rows = 0;
  int64_t first_pos = 0;          // absolute position of query row 0
  const KvSpan* spans = nullptr;  // keys in order; span 0 starts at position 0
  int64_t num_spans = 0;
  int64_t ld = 0;     // row stride of q, out and every span's V (d_model)
  int64_t panel = 0;  // width of every span's key panel (KvSpan)
  int num_heads = 0;
  int64_t d_head = 0;
  bool causal = true;  // the row at position p sees keys [0, p]; else all keys
};

// Multi-head softmax(q kᵀ / sqrt(d_head)) v, an online softmax over 16-key
// tiles of the spans; writes num_heads * d_head columns per row, each a
// function of the row's position and the keys only. The scalar tile kernel
// defines the semantics; the AVX2 one (microkernel_avx2.cc) only rounds
// apart, and the AVX-512 one (microkernel_avx512.cc) is bitwise the AVX2 one.
void Attention(const AttentionArgs& args, KernelVariant variant = ActiveKernelVariant()) VLORA_HOT;

}  // namespace vlora

#endif  // VLORA_SRC_KERNELS_TRANSFORMER_OPS_H_
