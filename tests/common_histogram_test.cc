// Tests for the fixed-boundary histogram behind the service metrics.

#include <gtest/gtest.h>

#include "common/histogram.h"

namespace autocat {
namespace {

TEST(HistogramTest, EmptyReportsZeros) {
  Histogram h({1.0, 2.0, 4.0});
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.sum(), 0.0);
  EXPECT_EQ(h.mean(), 0.0);
  EXPECT_EQ(h.min(), 0.0);
  EXPECT_EQ(h.max(), 0.0);
  EXPECT_EQ(h.PercentileEstimate(50), 0.0);
}

TEST(HistogramTest, BasicAccounting) {
  Histogram h({1.0, 2.0, 4.0});
  h.Add(0.5);
  h.Add(1.5);
  h.Add(3.0);
  h.Add(3.5);
  EXPECT_EQ(h.count(), 4u);
  EXPECT_DOUBLE_EQ(h.sum(), 8.5);
  EXPECT_DOUBLE_EQ(h.mean(), 8.5 / 4);
  EXPECT_DOUBLE_EQ(h.min(), 0.5);
  EXPECT_DOUBLE_EQ(h.max(), 3.5);
}

TEST(HistogramTest, BucketPlacementIsInclusiveOfUpperBound) {
  Histogram h({1.0, 2.0, 4.0});
  h.Add(1.0);   // lands in the first bucket (v <= bound)
  h.Add(1.01);  // second bucket
  h.Add(100);   // overflow
  ASSERT_EQ(h.bucket_counts().size(), 4u);
  EXPECT_EQ(h.bucket_counts()[0], 1u);
  EXPECT_EQ(h.bucket_counts()[1], 1u);
  EXPECT_EQ(h.bucket_counts()[2], 0u);
  EXPECT_EQ(h.bucket_counts()[3], 1u);  // overflow
}

TEST(HistogramTest, MergeCombinesCountsAndExtremes) {
  Histogram a({1.0, 2.0});
  Histogram b({1.0, 2.0});
  a.Add(0.5);
  b.Add(1.5);
  b.Add(10.0);
  a.Merge(b);
  EXPECT_EQ(a.count(), 3u);
  EXPECT_DOUBLE_EQ(a.sum(), 12.0);
  EXPECT_DOUBLE_EQ(a.min(), 0.5);
  EXPECT_DOUBLE_EQ(a.max(), 10.0);
  EXPECT_EQ(a.bucket_counts()[0], 1u);
  EXPECT_EQ(a.bucket_counts()[1], 1u);
  EXPECT_EQ(a.bucket_counts()[2], 1u);
}

TEST(HistogramTest, PercentilesAreMonotonicAndBounded) {
  Histogram h = Histogram::LatencyMs();
  for (int i = 1; i <= 1000; ++i) {
    h.Add(i * 0.1);  // 0.1 .. 100 ms
  }
  const double p50 = h.PercentileEstimate(50);
  const double p90 = h.PercentileEstimate(90);
  const double p99 = h.PercentileEstimate(99);
  EXPECT_LE(p50, p90);
  EXPECT_LE(p90, p99);
  // Linear interpolation within exponential buckets is coarse, but the
  // estimates must bracket the true quantiles' buckets.
  EXPECT_GT(p50, 10.0);
  EXPECT_LE(p99, h.upper_bounds().back());
}

TEST(HistogramTest, PercentilesStayWithinObservedRange) {
  Histogram same = Histogram::LatencyMs();
  for (int i = 0; i < 10; ++i) {
    same.Add(3.0);
  }
  for (const double p : {0.0, 50.0, 90.0, 99.0, 100.0}) {
    EXPECT_DOUBLE_EQ(same.PercentileEstimate(p), 3.0) << "p" << p;
  }
  Histogram one = Histogram::LatencyMs();
  one.Add(0.011);
  for (const double p : {0.0, 50.0, 99.0}) {
    EXPECT_DOUBLE_EQ(one.PercentileEstimate(p), 0.011) << "p" << p;
  }
}

TEST(HistogramTest, OverflowPercentileReportsObservedMax) {
  Histogram h({1.0});
  h.Add(500.0);
  EXPECT_DOUBLE_EQ(h.PercentileEstimate(99), 500.0);
}

TEST(HistogramTest, ToJsonIsDeterministic) {
  Histogram a({1.0, 2.0});
  Histogram b({1.0, 2.0});
  for (Histogram* h : {&a, &b}) {
    h->Add(0.25);
    h->Add(1.75);
  }
  EXPECT_EQ(a.ToJson(), b.ToJson());
  EXPECT_EQ(a.ToJson().find("{\"count\":2,"), 0u);
}

TEST(HistogramTest, LatencyScaleCoversMicrosecondsToSeconds) {
  const Histogram h = Histogram::LatencyMs();
  EXPECT_GE(h.upper_bounds().size(), 16u);
  EXPECT_LE(h.upper_bounds().front(), 0.01);
  EXPECT_GE(h.upper_bounds().back(), 1000.0);
}

}  // namespace
}  // namespace autocat
