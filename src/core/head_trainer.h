// Vision task head trainer.
//
// §4.2 trains the vision task head "as a part of the LoRA adapter" with
// standard supervised learning (cross-entropy). Here the head is fitted as a
// linear probe over the frozen LMM's final hidden states: extract the last
// prompt token's feature for every labelled example through the real engine,
// then run softmax-regression SGD. The resulting head plugs into
// LoraAdapter::SetTaskHead and answers closed-set queries in one inference
// round — functionally, not as a random projection.

#ifndef VLORA_SRC_CORE_HEAD_TRAINER_H_
#define VLORA_SRC_CORE_HEAD_TRAINER_H_

#include <vector>

#include "src/engine/engine.h"

namespace vlora {

struct HeadExample {
  std::vector<int32_t> prompt_tokens;
  // Optional visual embeddings (vision-tower output) injected into the prompt.
  std::vector<InjectedEmbeddings> injected;
  int label = 0;  // in [0, num_classes)
};

struct HeadTrainerOptions {
  int num_classes = 2;
  int adapter_id = -1;  // extract features with this adapter active (-1 base)
};

struct HeadTrainingResult {
  VisionTaskHead head;
  double train_accuracy = 0.0;
  double final_loss = 0.0;
};

// Extracts final hidden states for the examples through `engine` (in its
// current mode) and fits the head. The engine must be idle (no queued work).
HeadTrainingResult TrainTaskHead(InferenceEngine& engine, const std::vector<HeadExample>& examples,
                                 VisionTask task, const HeadTrainerOptions& options);

// Accuracy of a trained head on held-out examples, evaluated through the
// engine's real task-head inference path.
double EvaluateTaskHead(InferenceEngine& engine, int adapter_id,
                        const std::vector<HeadExample>& examples);

}  // namespace vlora

#endif  // VLORA_SRC_CORE_HEAD_TRAINER_H_
