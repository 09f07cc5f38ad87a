// LoRA factor fine-tuning (§4.2.1's "standard supervised learning pipeline
// that computes the cross-entropy loss").
//
// Trains, by gradient descent on real cross-entropy, the low-rank factors of
// the LAST layer's Wo projection together with a vision task head, keeping
// the base model frozen. Restricting the trainable factors to the final
// layer keeps the backward pass local: the classified feature is the last
// token's hidden state, which depends on that Wo only through row-wise ops
// (output projection -> residual -> MLP block -> final RMSNorm), so the
// whole gradient is a few vector-Jacobian products per example. Gradients
// are validated against finite differences in the tests.
//
// The trainer owns a forward pass that mirrors the engine's math exactly
// (tests assert feature equality), caching the intermediates the backward
// needs.

#ifndef VLORA_SRC_CORE_LORA_TRAINER_H_
#define VLORA_SRC_CORE_LORA_TRAINER_H_

#include <vector>

#include "src/engine/model.h"
#include "src/lora/adapter.h"

namespace vlora {

struct LoraTrainExample {
  std::vector<int32_t> prompt_tokens;
  int label = 0;
};

struct LoraTrainerOptions {
  int num_classes = 2;
  int epochs = 30;
  float factor_lr = 0.05f;  // learning rate for the LoRA factors
  float head_lr = 0.3f;     // learning rate for the task head
};

struct LoraTrainResult {
  double initial_loss = 0.0;
  double final_loss = 0.0;
  double train_accuracy = 0.0;
};

class LoraTrainer {
 public:
  // `model` is the frozen base; `adapter` must adapt exactly {kWo} and match
  // the model's dimensions. The adapter's last-layer factors and `head` are
  // updated in place.
  LoraTrainer(TransformerModel* model, LoraAdapter* adapter);

  // Forward pass for one prompt; returns the final-layer-normalised hidden
  // state of the last token (identical to the engine's captured feature).
  std::vector<float> FinalHidden(const std::vector<int32_t>& prompt);

  // Cross-entropy loss of the head on one example (no update).
  double ExampleLoss(const LoraTrainExample& example, const VisionTaskHead& head);

  // SGD over examples; returns loss/accuracy trajectory endpoints.
  LoraTrainResult Train(const std::vector<LoraTrainExample>& examples, VisionTaskHead& head,
                        const LoraTrainerOptions& options);

 private:
  struct ForwardCache {
    std::vector<float> attn_row;  // last layer's attention output, last token
    std::vector<float> x2;        // after the Wo residual
    std::vector<float> mid;       // MLP pre-activation
    std::vector<float> x3;        // after the MLP residual
    std::vector<float> hidden;    // final-normalised feature
  };

  // Full forward with caches for the last token's backward.
  ForwardCache ForwardWithCache(const std::vector<int32_t>& prompt);

  // Accumulates dL/d(down, up) of the last layer's kWo factors and dL/dW of
  // the head for one example; returns the example loss.
  double BackwardOneExample(const ForwardCache& cache, int label, const VisionTaskHead& head,
                            Tensor& grad_down, Tensor& grad_up, Tensor& grad_head);

  TransformerModel* model_;
  LoraAdapter* adapter_;
};

}  // namespace vlora

#endif  // VLORA_SRC_CORE_LORA_TRAINER_H_
