#include "src/lora/adapter.h"

#include <algorithm>

namespace vlora {

LoraAdapter LoraAdapter::Random(std::string name, int num_layers, int64_t d_model, int64_t rank,
                                Rng& rng, float init_scale, std::vector<LoraTarget> targets) {
  VLORA_CHECK(num_layers > 0 && d_model > 0 && rank > 0);
  VLORA_CHECK(!targets.empty());
  LoraAdapter adapter;
  adapter.name_ = std::move(name);
  adapter.num_layers_ = num_layers;
  adapter.d_model_ = d_model;
  adapter.rank_ = rank;
  adapter.targets_ = std::move(targets);
  for (LoraTarget target : adapter.targets_) {
    VLORA_CHECK(!adapter.factors_.contains(target));
    std::vector<LoraLayerWeights>& layers = adapter.factors_[target];
    layers.reserve(static_cast<size_t>(num_layers));
    for (int i = 0; i < num_layers; ++i) {
      LoraLayerWeights layer;
      layer.down = Tensor::Random(Shape(d_model, rank), rng, init_scale);
      layer.up = Tensor::Random(Shape(rank, d_model), rng, init_scale);
      layers.push_back(std::move(layer));
    }
  }
  return adapter;
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
