#include "src/cluster/placement.h"

#include <algorithm>
#include <sstream>

#include "src/common/status.h"
#include "src/workload/trace_gen.h"

namespace vlora {

AdapterPlacement AdapterPlacement::Compute(const std::vector<double>& shares, int num_replicas,
                                           const PlacementOptions& options) {
  VLORA_CHECK(num_replicas >= 1);
  AdapterPlacement placement;
  placement.num_replicas_ = num_replicas;
  placement.num_live_ = num_replicas;
  placement.shares_ = shares;
  placement.homes_.assign(shares.size(), {});
  placement.adapters_.assign(static_cast<size_t>(num_replicas), {});
  placement.hot_.assign(shares.size(), false);
  placement.live_.assign(static_cast<size_t>(num_replicas), true);
  placement.replica_share_.assign(static_cast<size_t>(num_replicas), 0.0);

  const std::vector<int> by_popularity = AdaptersByPopularity(shares);

  // Hot set: replicated everywhere, its share spread evenly.
  int hot_count = 0;
  for (int adapter : by_popularity) {
    if (hot_count >= options.max_hot ||
        shares[static_cast<size_t>(adapter)] < options.hot_share_threshold) {
      break;  // by_popularity is descending, so nothing later qualifies
    }
    placement.hot_[static_cast<size_t>(adapter)] = true;
    ++hot_count;
    for (int replica = 0; replica < num_replicas; ++replica) {
      placement.homes_[static_cast<size_t>(adapter)].push_back(replica);
      placement.adapters_[static_cast<size_t>(replica)].push_back(adapter);
      placement.replica_share_[static_cast<size_t>(replica)] +=
          shares[static_cast<size_t>(adapter)] / num_replicas;
    }
  }

  // Cold tail: hottest-first greedy onto the least-loaded replica, ties to
  // the lowest index — deterministic for a fixed share vector.
  for (int adapter : by_popularity) {
    if (placement.hot_[static_cast<size_t>(adapter)]) {
      continue;
    }
    int target = 0;
    for (int replica = 1; replica < num_replicas; ++replica) {
      if (placement.replica_share_[static_cast<size_t>(replica)] <
          placement.replica_share_[static_cast<size_t>(target)]) {
        target = replica;
      }
    }
    placement.homes_[static_cast<size_t>(adapter)].push_back(target);
    placement.adapters_[static_cast<size_t>(target)].push_back(adapter);
    placement.replica_share_[static_cast<size_t>(target)] += shares[static_cast<size_t>(adapter)];
  }

  for (auto& list : placement.adapters_) {
    std::sort(list.begin(), list.end());
  }
  return placement;
}

const std::vector<int>& AdapterPlacement::HomesOf(int adapter_id) const {
  static const std::vector<int> kNone;
  if (adapter_id < 0 || adapter_id >= num_adapters()) {
    return kNone;
  }
  return homes_[static_cast<size_t>(adapter_id)];
}

const std::vector<int>& AdapterPlacement::AdaptersOf(int replica) const {
  VLORA_CHECK(replica >= 0 && replica < num_replicas_);
  return adapters_[static_cast<size_t>(replica)];
}

bool AdapterPlacement::IsHome(int adapter_id, int replica) const {
  const std::vector<int>& homes = HomesOf(adapter_id);
  return std::binary_search(homes.begin(), homes.end(), replica);
}

bool AdapterPlacement::IsHot(int adapter_id) const {
  return adapter_id >= 0 && adapter_id < num_adapters() && hot_[static_cast<size_t>(adapter_id)];
}

void AdapterPlacement::RehomeColdAdapter(int adapter) {
  int target = -1;
  for (int replica = 0; replica < num_replicas_; ++replica) {
    if (!live_[static_cast<size_t>(replica)]) {
      continue;
    }
    if (target < 0 || replica_share_[static_cast<size_t>(replica)] <
                          replica_share_[static_cast<size_t>(target)]) {
      target = replica;
    }
  }
  VLORA_CHECK(target >= 0);
  homes_[static_cast<size_t>(adapter)].push_back(target);
  std::sort(homes_[static_cast<size_t>(adapter)].begin(),
            homes_[static_cast<size_t>(adapter)].end());
  adapters_[static_cast<size_t>(target)].push_back(adapter);
  std::sort(adapters_[static_cast<size_t>(target)].begin(),
            adapters_[static_cast<size_t>(target)].end());
  replica_share_[static_cast<size_t>(target)] += shares_[static_cast<size_t>(adapter)];
}

void AdapterPlacement::Rebalance(int dead_replica) {
  if (num_replicas_ == 0) {
    return;  // uninitialised placement: nothing to re-home
  }
  VLORA_CHECK(dead_replica >= 0 && dead_replica < num_replicas_);
  if (!live_[static_cast<size_t>(dead_replica)]) {
    return;  // already handled
  }
  live_[static_cast<size_t>(dead_replica)] = false;
  --num_live_;
  VLORA_CHECK(num_live_ >= 1);

  // Strip the dead replica from every adapter's home list and collect the
  // orphans (cold adapters homed only there), hottest first so the greedy
  // re-homing below stays balanced.
  std::vector<int> orphans;
  for (int adapter : adapters_[static_cast<size_t>(dead_replica)]) {
    std::vector<int>& homes = homes_[static_cast<size_t>(adapter)];
    homes.erase(std::remove(homes.begin(), homes.end(), dead_replica), homes.end());
    if (homes.empty()) {
      orphans.push_back(adapter);
    }
  }
  adapters_[static_cast<size_t>(dead_replica)].clear();
  replica_share_[static_cast<size_t>(dead_replica)] = 0.0;
  std::sort(orphans.begin(), orphans.end(), [this](int a, int b) {
    const double share_a = shares_[static_cast<size_t>(a)];
    const double share_b = shares_[static_cast<size_t>(b)];
    return share_a != share_b ? share_a > share_b : a < b;
  });
  for (int adapter : orphans) {
    RehomeColdAdapter(adapter);
  }
}

std::string AdapterPlacement::ToString() const {
  std::ostringstream out;
  for (int replica = 0; replica < num_replicas_; ++replica) {
    out << "replica " << replica << (live_[static_cast<size_t>(replica)] ? "" : " (dead)")
        << " (share "
        << static_cast<int>(replica_share_[static_cast<size_t>(replica)] * 100.0 + 0.5)
        << "%):";
    for (int adapter : adapters_[static_cast<size_t>(replica)]) {
      out << " " << adapter << (hot_[static_cast<size_t>(adapter)] ? "*" : "");
    }
    out << "\n";
  }
  return out.str();
}

}  // namespace vlora
