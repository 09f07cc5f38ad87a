#include "src/core/head_trainer.h"

#include <algorithm>
#include <cmath>

namespace vlora {

namespace {

// Plain-SGD step size, L2 weight decay, epochs and seed of the softmax
// regression.
constexpr float kLearningRate = 0.5f;
constexpr float kWeightDecay = 1e-4f;
constexpr int kEpochs = 40;
constexpr uint64_t kSeed = 5;

// Runs one capture-only request and returns the final hidden state.
std::vector<float> ExtractFeature(InferenceEngine& engine, const HeadExample& example,
                                  int adapter_id, int64_t request_id) {
  EngineRequest request;
  request.id = request_id;
  request.prompt_tokens = example.prompt_tokens;
  request.injected = example.injected;
  request.adapter_id = adapter_id;
  request.max_new_tokens = 1;
  request.eos_token = -1;
  request.capture_final_hidden = true;
  EngineResult result = engine.RunToCompletion(std::move(request));
  VLORA_CHECK(!result.final_hidden.empty());
  return std::move(result.final_hidden);
}

}  // namespace

HeadTrainingResult TrainTaskHead(InferenceEngine& engine,
                                 const std::vector<HeadExample>& examples, VisionTask task,
                                 const HeadTrainerOptions& options) {
  VLORA_CHECK(!examples.empty());
  VLORA_CHECK(options.num_classes >= 2);
  const int64_t d = engine.config().d_model;
  const int64_t classes = options.num_classes;

  // Feature extraction through the real engine (frozen LMM + adapter).
  std::vector<std::vector<float>> features;
  features.reserve(examples.size());
  int64_t request_id = 1LL << 40;  // avoid colliding with caller ids
  for (const HeadExample& example : examples) {
    VLORA_CHECK(example.label >= 0 && example.label < classes);
    features.push_back(ExtractFeature(engine, example, options.adapter_id, request_id++));
  }

  // Softmax regression: W (d x classes), plain SGD with weight decay.
  Rng rng(kSeed);
  Tensor weight = Tensor::Random(Shape(d, classes), rng, 0.01f);
  std::vector<double> logits(static_cast<size_t>(classes));
  std::vector<double> probs(static_cast<size_t>(classes));
  double loss = 0.0;
  for (int epoch = 0; epoch < kEpochs; ++epoch) {
    loss = 0.0;
    const std::vector<int64_t> order = rng.Permutation(static_cast<int64_t>(examples.size()));
    for (int64_t index : order) {
      const std::vector<float>& x = features[static_cast<size_t>(index)];
      const int label = examples[static_cast<size_t>(index)].label;
      double max_logit = -1e300;
      for (int64_t c = 0; c < classes; ++c) {
        double z = 0.0;
        for (int64_t i = 0; i < d; ++i) {
          z += static_cast<double>(x[static_cast<size_t>(i)]) * weight.at(i, c);
        }
        logits[static_cast<size_t>(c)] = z;
        max_logit = std::max(max_logit, z);
      }
      double denom = 0.0;
      for (int64_t c = 0; c < classes; ++c) {
        probs[static_cast<size_t>(c)] = std::exp(logits[static_cast<size_t>(c)] - max_logit);
        denom += probs[static_cast<size_t>(c)];
      }
      for (int64_t c = 0; c < classes; ++c) {
        probs[static_cast<size_t>(c)] /= denom;
      }
      loss += -std::log(std::max(1e-12, probs[static_cast<size_t>(label)]));
      // Gradient step: dL/dW[:,c] = (p_c - 1{c==label}) * x.
      for (int64_t c = 0; c < classes; ++c) {
        const float grad_scale = static_cast<float>(
            probs[static_cast<size_t>(c)] - (c == label ? 1.0 : 0.0));
        for (int64_t i = 0; i < d; ++i) {
          float& w = weight.at(i, c);
          w -= kLearningRate * (grad_scale * x[static_cast<size_t>(i)] + kWeightDecay * w);
        }
      }
    }
    loss /= static_cast<double>(examples.size());
  }

  // Training accuracy.
  int correct = 0;
  for (size_t e = 0; e < examples.size(); ++e) {
    const std::vector<float>& x = features[e];
    int best = 0;
    double best_score = -1e300;
    for (int64_t c = 0; c < classes; ++c) {
      double z = 0.0;
      for (int64_t i = 0; i < d; ++i) {
        z += static_cast<double>(x[static_cast<size_t>(i)]) * weight.at(i, c);
      }
      if (z > best_score) {
        best_score = z;
        best = static_cast<int>(c);
      }
    }
    correct += best == examples[e].label ? 1 : 0;
  }

  HeadTrainingResult result;
  result.head.task = task;
  result.head.weight = std::move(weight);
  result.train_accuracy = static_cast<double>(correct) / static_cast<double>(examples.size());
  result.final_loss = loss;
  return result;
}

double EvaluateTaskHead(InferenceEngine& engine, int adapter_id,
                        const std::vector<HeadExample>& examples) {
  VLORA_CHECK(!examples.empty());
  int correct = 0;
  int64_t request_id = 1LL << 41;
  for (const HeadExample& example : examples) {
    EngineRequest request;
    request.id = request_id++;
    request.prompt_tokens = example.prompt_tokens;
    request.injected = example.injected;
    request.adapter_id = adapter_id;
    request.use_task_head = true;
    request.eos_token = -1;
    const EngineResult result = engine.RunToCompletion(std::move(request));
    correct += result.head_option == example.label ? 1 : 0;
  }
  return static_cast<double>(correct) / static_cast<double>(examples.size());
}

}  // namespace vlora
