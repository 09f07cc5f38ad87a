#include "src/core/lora_trainer.h"

#include <algorithm>
#include <cmath>
#include <cstring>

#include "src/kernels/atmm.h"
#include "src/kernels/transformer_ops.h"

namespace vlora {

namespace {

constexpr uint64_t kShuffleSeed = 9;  // per-epoch example order

// Backward of y = RMSNorm_g(x) for one row: returns dL/dx given dL/dy.
std::vector<float> RmsNormBackward(const std::vector<float>& x, const float* gain,
                                   const std::vector<float>& dy) {
  const int64_t d = static_cast<int64_t>(x.size());
  float ss = 0.0f;
  for (int64_t i = 0; i < d; ++i) {
    ss += x[i] * x[i];
  }
  const float inv = 1.0f / std::sqrt(ss / static_cast<float>(d) + 1e-5f);
  float dot = 0.0f;  // Σ dL/dy_i * g_i * x_i
  for (int64_t i = 0; i < d; ++i) {
    dot += dy[static_cast<size_t>(i)] * gain[i] * x[static_cast<size_t>(i)];
  }
  std::vector<float> dx(static_cast<size_t>(d));
  const float k = inv * inv * inv / static_cast<float>(d);
  for (int64_t i = 0; i < d; ++i) {
    dx[static_cast<size_t>(i)] =
        inv * gain[i] * dy[static_cast<size_t>(i)] - k * dot * x[static_cast<size_t>(i)];
  }
  return dx;
}

float SiluGrad(float z) {
  const float sigma = 1.0f / (1.0f + std::exp(-z));
  return sigma * (1.0f + z * (1.0f - sigma));
}

// Task-head logits of a final hidden state, accumulated in double.
std::vector<double> HeadLogits(const std::vector<float>& hidden, const VisionTaskHead& head) {
  std::vector<double> logits(static_cast<size_t>(head.num_options()), 0.0);
  for (int64_t c = 0; c < head.num_options(); ++c) {
    for (int64_t i = 0; i < static_cast<int64_t>(hidden.size()); ++i) {
      logits[static_cast<size_t>(c)] +=
          static_cast<double>(hidden[static_cast<size_t>(i)]) * head.weight.at(i, c);
    }
  }
  return logits;
}

}  // namespace

LoraTrainer::LoraTrainer(TransformerModel* model, LoraAdapter* adapter)
    : model_(model), adapter_(adapter) {
  VLORA_CHECK(model != nullptr && adapter != nullptr);
  VLORA_CHECK(adapter->num_layers() == model->config().num_layers);
  VLORA_CHECK(adapter->d_model() == model->config().d_model);
  // The local backward covers exactly the output projection.
  VLORA_CHECK(adapter->targets().size() == 1 && adapter->targets()[0] == LoraTarget::kWo);
}

LoraTrainer::ForwardCache LoraTrainer::ForwardWithCache(const std::vector<int32_t>& prompt) {
  const ModelConfig& config = model_->config();
  const int64_t d = config.d_model;
  const int64_t ff = config.d_ff;
  const int64_t n = static_cast<int64_t>(prompt.size());
  AtmmDispatcher atmm;

  Tensor x = Tensor::Zeros(Shape(n, d));
  for (int64_t t = 0; t < n; ++t) {
    const int32_t token = prompt[static_cast<size_t>(t)];
    VLORA_CHECK(token >= 0 && token < config.vocab_size);
    float* row = x.data() + t * d;
    std::memcpy(row, model_->embedding().data() + token * d,
                static_cast<size_t>(d) * sizeof(float));
    AddPositionEmbedding(row, d, t);
  }

  Tensor normed = Tensor::Zeros(Shape(n, d));
  Tensor q = Tensor::Zeros(Shape(n, d));
  Tensor k = Tensor::Zeros(Shape(n, d));
  Tensor v = Tensor::Zeros(Shape(n, d));
  Tensor kt = Tensor::Zeros(Shape(d, n));
  Tensor attn = Tensor::Zeros(Shape(n, d));
  Tensor proj = Tensor::Zeros(Shape(n, d));
  Tensor mid = Tensor::Zeros(Shape(n, ff));
  Tensor mlp = Tensor::Zeros(Shape(n, d));
  const KvSpan span{kt.data(), v.data(), n};
  ForwardCache cache;

  for (int layer = 0; layer < config.num_layers; ++layer) {
    const LayerWeights& w = model_->layer(layer);
    const bool last = layer == config.num_layers - 1;

    RmsNormRows(x.data(), w.attn_norm.data(), normed.data(), n, d);
    q.Fill(0.0f);
    k.Fill(0.0f);
    v.Fill(0.0f);
    atmm.Execute(normed, w.wq, q);
    atmm.Execute(normed, w.wk, k);
    atmm.Execute(normed, w.wv, v);

    PackKeyPanel(k.data(), n, d, kt.data());
    Attention({.q = q.data(), .out = attn.data(), .num_rows = n, .spans = &span, .num_spans = 1,
               .ld = d, .panel = n, .num_heads = config.num_heads, .d_head = config.d_head()});
    if (last) {
      cache.attn_row.assign(attn.data() + (n - 1) * d, attn.data() + n * d);
    }

    // Output projection with the adapter's bypass (unmerged semantics).
    proj.Fill(0.0f);
    atmm.Execute(attn, w.wo, proj);
    const LoraLayerWeights& factors = adapter_->layer(LoraTarget::kWo, layer);
    const int64_t rank = adapter_->rank();
    Tensor t_mid = Tensor::Zeros(Shape(n, rank));
    atmm.Execute(attn, factors.down, t_mid);
    t_mid.ScaleInPlace(adapter_->scaling());
    atmm.Execute(t_mid, factors.up, proj);
    x.AddInPlace(proj);
    if (last) {
      cache.x2.assign(x.data() + (n - 1) * d, x.data() + n * d);
    }

    RmsNormRows(x.data(), w.mlp_norm.data(), normed.data(), n, d);
    mid.Fill(0.0f);
    atmm.Execute(normed, w.w1, mid);
    if (last) {
      cache.mid.assign(mid.data() + (n - 1) * ff, mid.data() + n * ff);
    }
    SiluInPlace(mid.data(), n * ff);
    mlp.Fill(0.0f);
    atmm.Execute(mid, w.w2, mlp);
    x.AddInPlace(mlp);
    if (last) {
      cache.x3.assign(x.data() + (n - 1) * d, x.data() + n * d);
    }
  }

  cache.hidden.resize(static_cast<size_t>(d));
  RmsNormRows(x.data() + (n - 1) * d, model_->final_norm().data(), cache.hidden.data(), 1, d);
  return cache;
}

std::vector<float> LoraTrainer::FinalHidden(const std::vector<int32_t>& prompt) {
  return ForwardWithCache(prompt).hidden;
}

double LoraTrainer::BackwardOneExample(const ForwardCache& cache, int label,
                                       const VisionTaskHead& head, Tensor& grad_down,
                                       Tensor& grad_up, Tensor& grad_head) {
  const ModelConfig& config = model_->config();
  const int64_t d = config.d_model;
  const int64_t ff = config.d_ff;
  const int64_t classes = head.num_options();
  const LayerWeights& w = model_->layer(config.num_layers - 1);
  const LoraLayerWeights& factors = adapter_->layer(LoraTarget::kWo, config.num_layers - 1);
  const int64_t rank = adapter_->rank();
  const float s = adapter_->scaling();

  // Head softmax cross-entropy.
  std::vector<double> probs = HeadLogits(cache.hidden, head);
  const double max_logit = *std::max_element(probs.begin(), probs.end());
  double denom = 0.0;
  for (int64_t c = 0; c < classes; ++c) {
    probs[static_cast<size_t>(c)] = std::exp(probs[static_cast<size_t>(c)] - max_logit);
    denom += probs[static_cast<size_t>(c)];
  }
  for (int64_t c = 0; c < classes; ++c) {
    probs[static_cast<size_t>(c)] /= denom;
  }
  const double loss = -std::log(std::max(1e-12, probs[static_cast<size_t>(label)]));

  // dL/dhidden and head gradient.
  std::vector<float> dh(static_cast<size_t>(d), 0.0f);
  for (int64_t c = 0; c < classes; ++c) {
    const float delta =
        static_cast<float>(probs[static_cast<size_t>(c)] - (c == label ? 1.0 : 0.0));
    for (int64_t i = 0; i < d; ++i) {
      dh[static_cast<size_t>(i)] += delta * head.weight.at(i, c);
      grad_head.at(i, c) += delta * cache.hidden[static_cast<size_t>(i)];
    }
  }

  // Final RMSNorm backward.
  std::vector<float> dx3 = RmsNormBackward(cache.x3, model_->final_norm().data(), dh);

  // MLP block backward: x3 = x2 + SiLU(RMSNorm(x2) W1) W2.
  std::vector<float> da(static_cast<size_t>(ff), 0.0f);  // dL/d SiLU output
  for (int64_t j = 0; j < ff; ++j) {
    float acc = 0.0f;
    for (int64_t i = 0; i < d; ++i) {
      acc += dx3[static_cast<size_t>(i)] * w.w2.at(j, i);
    }
    da[static_cast<size_t>(j)] = acc;
  }
  std::vector<float> dmid(static_cast<size_t>(ff));
  for (int64_t j = 0; j < ff; ++j) {
    dmid[static_cast<size_t>(j)] =
        da[static_cast<size_t>(j)] * SiluGrad(cache.mid[static_cast<size_t>(j)]);
  }
  std::vector<float> dnormed2(static_cast<size_t>(d), 0.0f);
  for (int64_t i = 0; i < d; ++i) {
    float acc = 0.0f;
    for (int64_t j = 0; j < ff; ++j) {
      acc += dmid[static_cast<size_t>(j)] * w.w1.at(i, j);
    }
    dnormed2[static_cast<size_t>(i)] = acc;
  }
  std::vector<float> dx2 = RmsNormBackward(cache.x2, w.mlp_norm.data(), dnormed2);
  for (int64_t i = 0; i < d; ++i) {
    dx2[static_cast<size_t>(i)] += dx3[static_cast<size_t>(i)];  // residual path
  }

  // proj = attn (W + s·down·up): dL/dproj = dx2 (residual into x2).
  // t = attn·down; dL/dt = s · dproj · upᵀ.
  std::vector<float> t_vec(static_cast<size_t>(rank), 0.0f);
  for (int64_t r = 0; r < rank; ++r) {
    float acc = 0.0f;
    for (int64_t i = 0; i < d; ++i) {
      acc += cache.attn_row[static_cast<size_t>(i)] * factors.down.at(i, r);
    }
    t_vec[static_cast<size_t>(r)] = acc;
  }
  std::vector<float> dt(static_cast<size_t>(rank), 0.0f);
  for (int64_t r = 0; r < rank; ++r) {
    float acc = 0.0f;
    for (int64_t i = 0; i < d; ++i) {
      acc += dx2[static_cast<size_t>(i)] * factors.up.at(r, i);
    }
    dt[static_cast<size_t>(r)] = s * acc;
  }
  for (int64_t i = 0; i < d; ++i) {
    const float a = cache.attn_row[static_cast<size_t>(i)];
    for (int64_t r = 0; r < rank; ++r) {
      grad_down.at(i, r) += a * dt[static_cast<size_t>(r)];
    }
  }
  for (int64_t r = 0; r < rank; ++r) {
    const float tr = s * t_vec[static_cast<size_t>(r)];
    for (int64_t i = 0; i < d; ++i) {
      grad_up.at(r, i) += tr * dx2[static_cast<size_t>(i)];
    }
  }
  return loss;
}

double LoraTrainer::ExampleLoss(const LoraTrainExample& example, const VisionTaskHead& head) {
  const std::vector<double> logits =
      HeadLogits(ForwardWithCache(example.prompt_tokens).hidden, head);
  const double max_logit = *std::max_element(logits.begin(), logits.end());
  double denom = 0.0;
  for (double z : logits) {
    denom += std::exp(z - max_logit);
  }
  return -(logits[static_cast<size_t>(example.label)] - max_logit - std::log(denom));
}

LoraTrainResult LoraTrainer::Train(const std::vector<LoraTrainExample>& examples,
                                   VisionTaskHead& head, const LoraTrainerOptions& options) {
  VLORA_CHECK(!examples.empty());
  VLORA_CHECK(head.num_options() == options.num_classes);
  const ModelConfig& config = model_->config();
  const int64_t d = config.d_model;
  const int64_t rank = adapter_->rank();
  LoraLayerWeights& factors = adapter_->layer(LoraTarget::kWo, config.num_layers - 1);

  LoraTrainResult result;
  Rng rng(kShuffleSeed);
  for (int epoch = 0; epoch < options.epochs; ++epoch) {
    double epoch_loss = 0.0;
    const std::vector<int64_t> order = rng.Permutation(static_cast<int64_t>(examples.size()));
    for (int64_t index : order) {
      const LoraTrainExample& example = examples[static_cast<size_t>(index)];
      VLORA_CHECK(example.label >= 0 && example.label < options.num_classes);
      const ForwardCache cache = ForwardWithCache(example.prompt_tokens);
      Tensor grad_down = Tensor::Zeros(Shape(d, rank));
      Tensor grad_up = Tensor::Zeros(Shape(rank, d));
      Tensor grad_head = Tensor::Zeros(Shape(d, options.num_classes));
      epoch_loss += BackwardOneExample(cache, example.label, head, grad_down, grad_up, grad_head);
      // SGD step.
      for (int64_t i = 0; i < d * rank; ++i) {
        factors.down.data()[i] -= options.factor_lr * grad_down.data()[i];
        factors.up.data()[i] -= options.factor_lr * grad_up.data()[i];
      }
      for (int64_t i = 0; i < d * options.num_classes; ++i) {
        head.weight.data()[i] -= options.head_lr * grad_head.data()[i];
      }
    }
    epoch_loss /= static_cast<double>(examples.size());
    if (epoch == 0) {
      result.initial_loss = epoch_loss;
    }
    result.final_loss = epoch_loss;
  }

  int correct = 0;
  for (const LoraTrainExample& example : examples) {
    const std::vector<double> logits =
        HeadLogits(ForwardWithCache(example.prompt_tokens).hidden, head);
    const auto best = std::max_element(logits.begin(), logits.end()) - logits.begin();
    correct += best == example.label ? 1 : 0;
  }
  result.train_accuracy = static_cast<double>(correct) / static_cast<double>(examples.size());
  return result;
}

}  // namespace vlora
