#include "src/core/generator.h"

#include <algorithm>

#include "src/common/status.h"

namespace vlora {

double GeneratorResult::AvgDomainsPerAdapter() const {
  if (adapters.empty()) {
    return 0.0;
  }
  size_t total = 0;
  for (const GeneratedAdapterSpec& adapter : adapters) {
    total += adapter.item_indices.size();
  }
  return static_cast<double>(total) / static_cast<double>(adapters.size());
}

GeneratorResult GenerateAdapters(const std::vector<KnowledgeItem>& items,
                                 const AccuracyOracle& oracle, const GeneratorOptions& options) {
  // The oracle is the probe: every member of a k-item adapter gets the
  // analytical accuracy of its task at fusion level k.
  auto probe = [&](const std::vector<int>& members) {
    const int k = static_cast<int>(members.size());
    std::vector<double> accuracies;
    accuracies.reserve(members.size());
    for (int index : members) {
      accuracies.push_back(oracle.LoraAccuracy(items[static_cast<size_t>(index)].task, k));
    }
    return accuracies;
  };
  return GenerateAdaptersWithProbe(items, probe, options);
}

GeneratorResult GenerateAdaptersWithProbe(const std::vector<KnowledgeItem>& items,
                                          const FusionProbe& probe,
                                          const GeneratorOptions& options) {
  GeneratorResult result;
  if (items.empty()) {
    return result;
  }
  VLORA_CHECK(probe != nullptr);

  std::vector<int> order(items.size());
  for (size_t i = 0; i < items.size(); ++i) {
    order[i] = static_cast<int>(i);
  }
  if (options.shuffle) {
    Rng rng(options.seed);
    std::vector<int64_t> perm = rng.Permutation(static_cast<int64_t>(items.size()));
    for (size_t i = 0; i < items.size(); ++i) {
      order[i] = static_cast<int>(perm[i]);
    }
  }

  auto meets = [&](const std::vector<int>& members, const std::vector<double>& accuracies) {
    VLORA_CHECK(accuracies.size() == members.size());
    for (size_t i = 0; i < members.size(); ++i) {
      if (accuracies[i] < items[static_cast<size_t>(members[i])].required_accuracy) {
        return false;
      }
    }
    return true;
  };
  auto finalize = [&](GeneratedAdapterSpec&& adapter, std::vector<double>&& accuracies) {
    adapter.item_accuracies = std::move(accuracies);
    bool same_task = true;
    bool all_closed = true;
    int total_options = 0;
    const VisionTask first_task = items[static_cast<size_t>(adapter.item_indices[0])].task;
    for (int index : adapter.item_indices) {
      const KnowledgeItem& item = items[static_cast<size_t>(index)];
      same_task = same_task && item.task == first_task;
      all_closed = all_closed && item.closed_set_options > 0;
      total_options += item.closed_set_options;
    }
    // Task heads are attachable only when the fused knowledge shares one task
    // type (§4.2.2) and every member's answer set is closed.
    if (same_task && all_closed) {
      adapter.has_task_head = true;
      adapter.head_task = first_task;
      adapter.head_options = total_options;
    }
    result.adapters.push_back(std::move(adapter));
  };

  GeneratedAdapterSpec current;
  std::vector<double> current_accuracies;
  for (int index : order) {
    std::vector<int> tentative = current.item_indices;
    tentative.push_back(index);
    std::vector<double> accuracies = probe(tentative);
    // A singleton adapter always stands (best-achievable for its item).
    if (tentative.size() == 1 || meets(tentative, accuracies)) {
      current.item_indices = std::move(tentative);
      current_accuracies = std::move(accuracies);
      continue;
    }
    // Accuracy violation: roll back to the previous state (the already-packed
    // items keep their trained adapter) and open a new adapter seeded with
    // the offending dataset (Fig 10 steps 4-5).
    ++result.rollbacks;
    finalize(std::move(current), std::move(current_accuracies));
    current = GeneratedAdapterSpec{};
    current.item_indices.push_back(index);
    current_accuracies = probe(current.item_indices);
  }
  if (!current.item_indices.empty()) {
    finalize(std::move(current), std::move(current_accuracies));
  }
  return result;
}

bool SatisfiesRequirements(const std::vector<KnowledgeItem>& items,
                           const GeneratedAdapterSpec& adapter, const AccuracyOracle& oracle) {
  VLORA_CHECK(!adapter.item_indices.empty());
  if (adapter.item_indices.size() == 1) {
    return true;  // singleton adapters are best-achievable by definition
  }
  const int k = static_cast<int>(adapter.item_indices.size());
  for (int index : adapter.item_indices) {
    const KnowledgeItem& item = items[static_cast<size_t>(index)];
    if (oracle.LoraAccuracy(item.task, k) < item.required_accuracy) {
      return false;
    }
  }
  return true;
}

}  // namespace vlora
