#include "src/common/stats.h"

#include <algorithm>
#include <cmath>

#include "src/common/status.h"

namespace vlora {

void SampleStats::Add(double value) {
  samples_.push_back(value);  // vlora-lint: allow(hot-path-alloc) exact-percentile reservoir is unbounded by design
}

void SampleStats::Clear() { samples_.clear(); }

double SampleStats::Sum() const {
  double sum = 0.0;
  for (double s : samples_) {
    sum += s;
  }
  return sum;
}

double SampleStats::Mean() const {
  VLORA_CHECK(!samples_.empty());
  return Sum() / static_cast<double>(samples_.size());
}

double SampleStats::Min() const {
  VLORA_CHECK(!samples_.empty());
  return *std::min_element(samples_.begin(), samples_.end());
}

double SampleStats::Max() const {
  VLORA_CHECK(!samples_.empty());
  return *std::max_element(samples_.begin(), samples_.end());
}

double SampleStats::StdDev() const {
  VLORA_CHECK(!samples_.empty());
  const double mean = Mean();
  double acc = 0.0;
  for (double s : samples_) {
    acc += (s - mean) * (s - mean);
  }
  return std::sqrt(acc / static_cast<double>(samples_.size()));
}

double SampleStats::Percentile(double p) const {
  // Degenerate inputs answer rather than abort: percentiles are printed from
  // serving stats that may not have seen traffic yet (empty -> 0), and a
  // single sample / all-equal distribution IS its own percentile — there is
  // nothing to interpolate. Out-of-range p clamps to the nearest bound.
  if (samples_.empty()) {
    return 0.0;
  }
  p = std::clamp(p, 0.0, 100.0);
  std::vector<double> sorted = samples_;
  std::sort(sorted.begin(), sorted.end());
  if (sorted.size() == 1) {
    return sorted[0];
  }
  const double rank = p / 100.0 * static_cast<double>(sorted.size() - 1);
  const size_t lo = static_cast<size_t>(rank);
  const size_t hi = std::min(lo + 1, sorted.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return sorted[lo] * (1.0 - frac) + sorted[hi] * frac;
}

void LatencyRecorder::Merge(const LatencyRecorder& other) {
  for (double s : other.samples_.samples()) {
    samples_.Add(s);
  }
}

}  // namespace vlora
