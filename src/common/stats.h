// Statistics helpers: running summaries and percentiles.
// Used by the bench harnesses (Fig 17/18 tail latency) and the per-request
// latency accounting of the simulator and the cluster (ClusterStats::latency).

#ifndef VLORA_SRC_COMMON_STATS_H_
#define VLORA_SRC_COMMON_STATS_H_

#include <cstdint>
#include <vector>

namespace vlora {

// Accumulates samples and answers summary queries. Percentile queries sort a
// copy lazily; Add is O(1).
class SampleStats {
 public:
  void Add(double value);

  int64_t count() const { return static_cast<int64_t>(samples_.size()); }
  bool empty() const { return samples_.empty(); }

  double Sum() const;
  double Mean() const;
  double Min() const;
  double Max() const;
  // Population standard deviation.
  double StdDev() const;
  // Linear-interpolated percentile; p clamps into [0, 100]. Degenerate
  // distributions are well-defined: empty -> 0, a single sample -> that
  // sample (for every p), all-equal samples -> the common value.
  double Percentile(double p) const;
  double Median() const { return Percentile(50.0); }

 private:
  std::vector<double> samples_;
};

}  // namespace vlora

#endif  // VLORA_SRC_COMMON_STATS_H_
