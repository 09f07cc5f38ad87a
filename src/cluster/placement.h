// Adapter-to-replica placement for the cluster serving layer.
//
// Every replica registers every adapter (host copies are cheap; the device
// pool is the scarce resource), so placement decides *residency affinity*:
// which replicas pre-warm an adapter onto the device and advertise it to the
// affinity router. Following InfiniLoRA-style disaggregated multi-LoRA
// serving, the hot set — adapters whose request share clears a threshold,
// e.g. the skew head the workload generator produces — is replicated on every
// replica, while the cold tail is partitioned, each adapter homed on the
// replica with the least cumulative request share (greedy balance,
// hottest-first). Routing to a home replica finds the adapter already
// device-resident, keeping swap traffic off the critical path.
//
// Failure recovery: Rebalance(dead_replica) removes a replica from the plan.
// Hot adapters simply lose one of their homes; cold adapters homed only on
// the dead replica are re-homed greedily (hottest first) onto the surviving
// replica with the least cumulative share. As long as one replica lives,
// every adapter keeps at least one home — the invariant the property test
// checks under random death sequences.

#ifndef VLORA_SRC_CLUSTER_PLACEMENT_H_
#define VLORA_SRC_CLUSTER_PLACEMENT_H_

#include <string>
#include <vector>

namespace vlora {

struct PlacementOptions {
  // Request share at or above which an adapter joins the replicated hot set.
  double hot_share_threshold = 0.10;
  // Upper bound on the hot set, whatever the shares say; device pools are
  // finite and every hot adapter occupies them on all replicas.
  int max_hot = 2;
};

class AdapterPlacement {
 public:
  // Uninitialised placement: no adapters, no homes. Compute() builds one.
  AdapterPlacement() = default;

  // `shares` is AdapterShares() over the (expected) trace; index = adapter id.
  static AdapterPlacement Compute(const std::vector<double>& shares, int num_replicas,
                                  const PlacementOptions& options = {});

  int num_adapters() const { return static_cast<int>(homes_.size()); }
  int num_replicas() const { return num_replicas_; }

  // Replica indices homing this adapter, ascending. Empty for unknown ids
  // (e.g. adapter -1 = base model), which routes by load alone.
  const std::vector<int>& HomesOf(int adapter_id) const;
  // Adapter ids homed on this replica, ascending.
  const std::vector<int>& AdaptersOf(int replica) const;
  bool IsHome(int adapter_id, int replica) const;
  bool IsHot(int adapter_id) const;

  // Removes a dead replica from the plan and re-homes its orphaned cold
  // adapters onto the surviving replica with the least cumulative share
  // (hottest first, ties to the lowest index — deterministic). Idempotent;
  // a no-op on an uninitialised placement. At least one replica must remain
  // alive once any adapter is placed.
  void Rebalance(int dead_replica);

  int num_live_replicas() const { return num_live_; }

  std::string ToString() const;  // one line per replica, for bench output

 private:
  void RehomeColdAdapter(int adapter);

  int num_replicas_ = 0;
  int num_live_ = 0;
  std::vector<double> shares_;              // adapter id -> request share
  std::vector<std::vector<int>> homes_;     // adapter id -> replicas
  std::vector<std::vector<int>> adapters_;  // replica -> adapter ids
  std::vector<bool> hot_;                   // adapter id -> in hot set
  std::vector<bool> live_;                  // replica -> not declared dead
  std::vector<double> replica_share_;
};

}  // namespace vlora

#endif  // VLORA_SRC_CLUSTER_PLACEMENT_H_
