#include <gtest/gtest.h>

#include <cmath>
#include <set>

#include "src/common/rng.h"
#include "src/common/stats.h"
#include "src/common/status.h"
#include "src/common/table.h"
#include "src/common/vision_task.h"

namespace vlora {
namespace {

TEST(StatusTest, OkByDefault) {
  Status status;
  EXPECT_TRUE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kOk);
  EXPECT_EQ(status.ToString(), "OK");
}

TEST(StatusTest, CarriesCodeAndMessage) {
  Status status = Status::InvalidArgument("bad rank");
  EXPECT_FALSE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(status.message(), "bad rank");
  EXPECT_EQ(status.ToString(), "INVALID_ARGUMENT: bad rank");
}

TEST(StatusTest, AllCodesHaveNames) {
  EXPECT_STREQ(StatusCodeName(StatusCode::kNotFound), "NOT_FOUND");
  EXPECT_STREQ(StatusCodeName(StatusCode::kResourceExhausted), "RESOURCE_EXHAUSTED");
  EXPECT_STREQ(StatusCodeName(StatusCode::kUnimplemented), "UNIMPLEMENTED");
}

TEST(ResultTest, HoldsValue) {
  Result<int> result(42);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result.value(), 42);
  EXPECT_TRUE(result.status().ok());
}

TEST(ResultTest, HoldsError) {
  Result<int> result(Status::NotFound("missing adapter"));
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kNotFound);
}

TEST(RngTest, Deterministic) {
  Rng a(123);
  Rng b(123);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.NextU64(), b.NextU64());
  }
}

TEST(RngTest, DifferentSeedsDiffer) {
  Rng a(1);
  Rng b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    if (a.NextU64() == b.NextU64()) {
      ++same;
    }
  }
  EXPECT_EQ(same, 0);
}

TEST(RngTest, DoubleInUnitInterval) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    const double value = rng.NextDouble();
    EXPECT_GE(value, 0.0);
    EXPECT_LT(value, 1.0);
  }
}

TEST(RngTest, BoundedStaysInBound) {
  Rng rng(9);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_LT(rng.NextBounded(13), 13u);
  }
}

TEST(RngTest, IntRangeInclusive) {
  Rng rng(5);
  std::set<int64_t> seen;
  for (int i = 0; i < 2000; ++i) {
    const int64_t value = rng.NextInt(-2, 2);
    EXPECT_GE(value, -2);
    EXPECT_LE(value, 2);
    seen.insert(value);
  }
  EXPECT_EQ(seen.size(), 5u);  // all values hit
}

TEST(RngTest, GaussianMoments) {
  Rng rng(11);
  double sum = 0.0;
  double sq = 0.0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    const double value = rng.NextGaussian();
    sum += value;
    sq += value * value;
  }
  EXPECT_NEAR(sum / n, 0.0, 0.05);
  EXPECT_NEAR(sq / n, 1.0, 0.1);
}

TEST(RngTest, ExponentialMean) {
  Rng rng(13);
  double sum = 0.0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    sum += rng.NextExponential(4.0);
  }
  EXPECT_NEAR(sum / n, 0.25, 0.02);
}

TEST(RngTest, GammaMeanAndVariance) {
  Rng rng(17);
  const double shape = 0.25;
  const double scale = 2.0;
  double sum = 0.0;
  const int n = 40000;
  for (int i = 0; i < n; ++i) {
    const double value = rng.NextGamma(shape, scale);
    EXPECT_GE(value, 0.0);
    sum += value;
  }
  EXPECT_NEAR(sum / n, shape * scale, 0.05);
}

TEST(RngTest, ZipfSkewsTowardSmallIndices) {
  Rng rng(19);
  int head = 0;
  const int n = 5000;
  for (int i = 0; i < n; ++i) {
    if (rng.NextZipf(10, 1.2) == 0) {
      ++head;
    }
  }
  // Index 0 should carry far more than the uniform 10% share.
  EXPECT_GT(head, n / 5);
}

TEST(RngTest, ZipfZeroExponentIsUniform) {
  Rng rng(21);
  std::vector<int> counts(4, 0);
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    ++counts[static_cast<size_t>(rng.NextZipf(4, 0.0))];
  }
  for (int count : counts) {
    EXPECT_NEAR(static_cast<double>(count) / n, 0.25, 0.03);
  }
}

TEST(RngTest, WeightedRespectsWeights) {
  Rng rng(23);
  std::vector<double> weights = {1.0, 0.0, 3.0};
  int zero = 0;
  int two = 0;
  const int n = 10000;
  for (int i = 0; i < n; ++i) {
    const int64_t pick = rng.NextWeighted(weights);
    EXPECT_NE(pick, 1);
    if (pick == 0) {
      ++zero;
    } else {
      ++two;
    }
  }
  EXPECT_NEAR(static_cast<double>(two) / n, 0.75, 0.03);
  EXPECT_NEAR(static_cast<double>(zero) / n, 0.25, 0.03);
}

TEST(RngTest, PermutationIsPermutation) {
  Rng rng(25);
  std::vector<int64_t> perm = rng.Permutation(50);
  std::set<int64_t> unique(perm.begin(), perm.end());
  EXPECT_EQ(unique.size(), 50u);
  EXPECT_EQ(*unique.begin(), 0);
  EXPECT_EQ(*unique.rbegin(), 49);
}

TEST(SampleStatsTest, BasicSummaries) {
  SampleStats stats;
  for (double v : {1.0, 2.0, 3.0, 4.0, 5.0}) {
    stats.Add(v);
  }
  EXPECT_EQ(stats.count(), 5);
  EXPECT_DOUBLE_EQ(stats.Mean(), 3.0);
  EXPECT_DOUBLE_EQ(stats.Min(), 1.0);
  EXPECT_DOUBLE_EQ(stats.Max(), 5.0);
  EXPECT_DOUBLE_EQ(stats.Median(), 3.0);
  EXPECT_NEAR(stats.StdDev(), std::sqrt(2.0), 1e-12);
}

TEST(SampleStatsTest, PercentileInterpolates) {
  SampleStats stats;
  stats.Add(0.0);
  stats.Add(10.0);
  EXPECT_DOUBLE_EQ(stats.Percentile(0.0), 0.0);
  EXPECT_DOUBLE_EQ(stats.Percentile(100.0), 10.0);
  EXPECT_DOUBLE_EQ(stats.Percentile(50.0), 5.0);
  EXPECT_DOUBLE_EQ(stats.Percentile(90.0), 9.0);
}

TEST(SampleStatsTest, SingleSample) {
  SampleStats stats;
  stats.Add(7.0);
  EXPECT_DOUBLE_EQ(stats.Percentile(33.0), 7.0);
  EXPECT_DOUBLE_EQ(stats.StdDev(), 0.0);
}

TEST(SampleStatsTest, EmptyPercentileIsZero) {
  SampleStats stats;
  EXPECT_DOUBLE_EQ(stats.Percentile(50.0), 0.0);
  EXPECT_DOUBLE_EQ(stats.Percentile(99.0), 0.0);
  EXPECT_DOUBLE_EQ(stats.Median(), 0.0);
}

TEST(SampleStatsTest, SingleSampleAnswersEveryPercentile) {
  SampleStats stats;
  stats.Add(42.5);
  EXPECT_DOUBLE_EQ(stats.Percentile(0.0), 42.5);
  EXPECT_DOUBLE_EQ(stats.Percentile(50.0), 42.5);
  EXPECT_DOUBLE_EQ(stats.Percentile(100.0), 42.5);
}

TEST(SampleStatsTest, AllEqualSamplesReturnTheCommonValue) {
  SampleStats stats;
  for (int i = 0; i < 8; ++i) {
    stats.Add(3.25);
  }
  EXPECT_DOUBLE_EQ(stats.Percentile(1.0), 3.25);
  EXPECT_DOUBLE_EQ(stats.Percentile(50.0), 3.25);
  EXPECT_DOUBLE_EQ(stats.Percentile(99.0), 3.25);
}

TEST(SampleStatsTest, OutOfRangePercentileClamps) {
  SampleStats stats;
  stats.Add(1.0);
  stats.Add(9.0);
  EXPECT_DOUBLE_EQ(stats.Percentile(-5.0), 1.0);
  EXPECT_DOUBLE_EQ(stats.Percentile(250.0), 9.0);
}

TEST(LatencyRecorderTest, EmptyRecorderReportsZeros) {
  LatencyRecorder recorder;
  EXPECT_TRUE(recorder.empty());
  EXPECT_DOUBLE_EQ(recorder.MeanMs(), 0.0);
  EXPECT_DOUBLE_EQ(recorder.MaxMs(), 0.0);
  EXPECT_DOUBLE_EQ(recorder.P50Ms(), 0.0);
  EXPECT_DOUBLE_EQ(recorder.P95Ms(), 0.0);
  EXPECT_DOUBLE_EQ(recorder.P99Ms(), 0.0);
}

TEST(LatencyRecorderTest, SingleRecordDefinesAllPercentiles) {
  LatencyRecorder recorder;
  recorder.Record(12.0);
  EXPECT_DOUBLE_EQ(recorder.P50Ms(), 12.0);
  EXPECT_DOUBLE_EQ(recorder.P95Ms(), 12.0);
  EXPECT_DOUBLE_EQ(recorder.P99Ms(), 12.0);
}

TEST(AsciiTableTest, AlignsColumns) {
  AsciiTable table({"system", "latency"});
  table.AddRow({"V-LoRA", "1.0"});
  table.AddRow("dLoRA", {3.14159}, 2);
  const std::string rendered = table.ToString();
  EXPECT_NE(rendered.find("V-LoRA"), std::string::npos);
  EXPECT_NE(rendered.find("3.14"), std::string::npos);
  EXPECT_NE(rendered.find("+--"), std::string::npos);
}

TEST(VisionTaskTest, NamesAreStable) {
  EXPECT_STREQ(VisionTaskName(VisionTask::kImageClassification), "image-classification");
  EXPECT_STREQ(VisionTaskName(VisionTask::kVideoClassification), "video-classification");
  EXPECT_STREQ(VisionTaskName(VisionTask::kVisualQuestionAnswering),
               "visual-question-answering");
}

}  // namespace
}  // namespace vlora
