// Data model for batched heterogeneous LoRA computation.
//
// A token batch is a single row-major matrix X (total_tokens x d) in which
// consecutive row ranges ("segments") belong to different requests and hence
// potentially different LoRA adapters. The unmerged-inference operators in
// lora_ops.h consume this layout; it is the same gather-style formulation
// used by Punica's SGMV and S-LoRA's custom kernels.

#ifndef VLORA_SRC_KERNELS_SEGMENTED_GEMM_H_
#define VLORA_SRC_KERNELS_SEGMENTED_GEMM_H_

#include <cstdint>
#include <vector>

#include "src/tensor/tensor.h"

namespace vlora {

struct LoraSegment {
  int64_t row_begin = 0;  // first row of X owned by this segment
  int64_t row_end = 0;    // one past the last row
  int adapter_index = 0;  // index into the adapter weight list

  int64_t NumRows() const { return row_end - row_begin; }
};

// Non-owning view of one adapter's low-rank factors. down is d x r, up is
// r x d; the adapter's contribution to a token row x is (x * down) * up,
// multiplied by `scaling` (the usual alpha / r factor).
struct AdapterWeightsView {
  const Tensor* down = nullptr;
  const Tensor* up = nullptr;
  float scaling = 1.0f;

  int64_t rank() const { return down->shape().dim(1); }
  int64_t d_model() const { return down->shape().dim(0); }
};

// Validates that every segment lies within [0, x_rows) and references a valid
// adapter. Segments may leave gaps (rows served by the merged adapter need no
// bypass) and may overlap (mixture mode runs a request's own adapter plus the
// negative deLoRA branch over the same rows). Aborts on violation: segment
// construction is a scheduler responsibility and an invalid batch is a
// programming error.
void ValidateSegments(const std::vector<LoraSegment>& segments, int64_t x_rows,
                      int64_t num_adapters);

}  // namespace vlora

#endif  // VLORA_SRC_KERNELS_SEGMENTED_GEMM_H_
