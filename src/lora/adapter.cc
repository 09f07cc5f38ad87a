#include "src/lora/adapter.h"

#include <algorithm>

namespace vlora {

LoraAdapter LoraAdapter::FromFactors(std::string name, int num_layers, int64_t d_model,
                                     int64_t rank, std::vector<LoraTargetWeights> targets) {
  VLORA_CHECK(num_layers > 0 && d_model > 0 && rank > 0);
  VLORA_CHECK(!targets.empty());
  LoraAdapter adapter;
  adapter.name_ = std::move(name);
  adapter.num_layers_ = num_layers;
  adapter.d_model_ = d_model;
  adapter.rank_ = rank;
  for (LoraTargetWeights& weights : targets) {
    VLORA_CHECK(!adapter.factors_.contains(weights.target));
    VLORA_CHECK(static_cast<int64_t>(weights.layers.size()) == num_layers);
    for (const LoraLayerWeights& layer : weights.layers) {
      VLORA_CHECK(layer.down.shape() == Shape(d_model, rank) &&
                  layer.up.shape() == Shape(rank, d_model));
    }
    adapter.targets_.push_back(weights.target);
    adapter.factors_[weights.target] = std::move(weights.layers);
  }
  return adapter;
}

LoraAdapter LoraAdapter::Random(std::string name, int num_layers, int64_t d_model, int64_t rank,
                                Rng& rng, float init_scale, std::vector<LoraTarget> targets) {
  std::vector<LoraTargetWeights> factors;
  for (LoraTarget target : targets) {
    LoraTargetWeights& weights = factors.emplace_back();
    weights.target = target;
    for (int i = 0; i < num_layers; ++i) {
      LoraLayerWeights& layer = weights.layers.emplace_back();
      layer.down = Tensor::Random(Shape(d_model, rank), rng, init_scale);
      layer.up = Tensor::Random(Shape(rank, d_model), rng, init_scale);
    }
  }
  return FromFactors(std::move(name), num_layers, d_model, rank, std::move(factors));
}

const LoraLayerWeights& LoraAdapter::layer(LoraTarget target, int i) const {
  VLORA_CHECK(i >= 0 && i < num_layers_);
  auto it = factors_.find(target);
  VLORA_CHECK(it != factors_.end());
  return it->second[static_cast<size_t>(i)];
}

LoraLayerWeights& LoraAdapter::layer(LoraTarget target, int i) {
  VLORA_CHECK(i >= 0 && i < num_layers_);
  auto it = factors_.find(target);
  VLORA_CHECK(it != factors_.end());
  return it->second[static_cast<size_t>(i)];
}

AdapterWeightsView LoraAdapter::LayerView(LoraTarget target, int i) const {
  const LoraLayerWeights& weights = layer(target, i);
  AdapterWeightsView view;
  view.down = &weights.down;
  view.up = &weights.up;
  view.scaling = scaling_;
  return view;
}

int64_t LoraAdapter::NumParams() const {
  return static_cast<int64_t>(targets_.size()) * num_layers_ * 2 * d_model_ * rank_;
}

}  // namespace vlora
