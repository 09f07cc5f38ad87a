// Statistics helpers: running summaries and percentiles.
// Used by the bench harnesses (Fig 17/18 tail latency) and the simulator's
// per-request latency accounting.

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
  void Clear();

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

  const std::vector<double>& samples() const { return samples_; }

 private:
  std::vector<double> samples_;
};

// Request-latency accumulator reporting the SLO percentiles every serving
// surface prints (p50/p95/p99), so single-replica and cluster runs emit the
// same metrics. Percentile queries on an empty recorder return 0 rather than
// failing — serving stats are routinely printed before traffic arrives.
class LatencyRecorder {
 public:
  void Record(double ms) { samples_.Add(ms); }
  // Folds another recorder's samples in (per-replica -> cluster aggregation).
  void Merge(const LatencyRecorder& other);
  void Clear() { samples_.Clear(); }

  int64_t count() const { return samples_.count(); }
  bool empty() const { return samples_.empty(); }
  double MeanMs() const { return samples_.empty() ? 0.0 : samples_.Mean(); }
  double MaxMs() const { return samples_.empty() ? 0.0 : samples_.Max(); }
  double PercentileMs(double p) const { return samples_.empty() ? 0.0 : samples_.Percentile(p); }
  double P50Ms() const { return PercentileMs(50.0); }
  double P95Ms() const { return PercentileMs(95.0); }
  double P99Ms() const { return PercentileMs(99.0); }

  const SampleStats& samples() const { return samples_; }

 private:
  SampleStats samples_;
};

}  // namespace vlora

#endif  // VLORA_SRC_COMMON_STATS_H_
