#include "obs/metrics.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "common/error.hpp"
#include "json_checker.hpp"

namespace essns::obs {
namespace {

class RegistryGuard {
 public:
  RegistryGuard() : previous_(metrics_registry()) {}
  ~RegistryGuard() { install_metrics_registry(previous_); }

 private:
  MetricsRegistry* previous_;
};

TEST(CounterTest, SingleThreadExactValue) {
  Counter counter;
  EXPECT_EQ(counter.value(), 0u);
  counter.add();
  counter.add(41);
  EXPECT_EQ(counter.value(), 42u);
}

TEST(CounterTest, ExactUnderFourThreadHammer) {
  Counter counter;
  constexpr std::uint64_t kPerThread = 100000;
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t)
    threads.emplace_back([&] {
      for (std::uint64_t i = 0; i < kPerThread; ++i) counter.add();
    });
  for (auto& thread : threads) thread.join();
  EXPECT_EQ(counter.value(), 4 * kPerThread);
}

TEST(HistogramTest, BucketLowerBoundsAreStrictlyIncreasing) {
  for (std::size_t b = 1; b < Histogram::kBucketCount; ++b)
    EXPECT_LT(Histogram::bucket_lower_bound(b - 1),
              Histogram::bucket_lower_bound(b))
        << "bucket " << b;
}

TEST(HistogramTest, LowerBoundsRoundTripThroughBucketOf) {
  // Every bucket's lower bound is an exactly-representable double, so
  // recording it must land exactly in that bucket — the property that makes
  // pinned-input quantiles exact.
  for (std::size_t b = 1; b < Histogram::kBucketCount; ++b)
    EXPECT_EQ(Histogram::bucket_of(Histogram::bucket_lower_bound(b)), b)
        << "bucket " << b;
}

TEST(HistogramTest, ValuesJustBelowABoundaryLandOneBucketLower) {
  const double below_two = std::nextafter(2.0, 0.0);
  EXPECT_EQ(Histogram::bucket_of(below_two),
            Histogram::bucket_of(2.0) - 1);
  const double below_1_75 = std::nextafter(1.75, 0.0);
  EXPECT_EQ(Histogram::bucket_of(below_1_75),
            Histogram::bucket_of(1.75) - 1);
}

TEST(HistogramTest, NonPositiveAndNanGoToUnderflowBucket) {
  EXPECT_EQ(Histogram::bucket_of(0.0), 0u);
  EXPECT_EQ(Histogram::bucket_of(-1.0), 0u);
  EXPECT_EQ(Histogram::bucket_of(std::nan("")), 0u);
  EXPECT_EQ(Histogram::bucket_of(std::ldexp(1.0, Histogram::kMinExp) / 2), 0u);
}

TEST(HistogramTest, HugeValuesClampIntoTopBucket) {
  EXPECT_EQ(Histogram::bucket_of(std::ldexp(1.0, Histogram::kMaxExp + 3)),
            Histogram::kBucketCount - 1);
  EXPECT_EQ(Histogram::bucket_of(std::numeric_limits<double>::infinity()),
            Histogram::kBucketCount - 1);
}

TEST(HistogramTest, EmptyHistogramReportsZeros) {
  Histogram histogram;
  EXPECT_EQ(histogram.count(), 0u);
  EXPECT_EQ(histogram.sum(), 0.0);
  EXPECT_EQ(histogram.min(), 0.0);
  EXPECT_EQ(histogram.max(), 0.0);
  EXPECT_EQ(histogram.quantile(0.5), 0.0);
}

TEST(HistogramTest, ExactQuantilesOnPinnedInputs) {
  // 98 samples of 1.0 and 2 of 1024.0 — both exact bucket lower bounds.
  Histogram histogram;
  for (int i = 0; i < 98; ++i) histogram.record(1.0);
  histogram.record(1024.0);
  histogram.record(1024.0);

  EXPECT_EQ(histogram.count(), 100u);
  EXPECT_EQ(histogram.sum(), 98.0 + 2 * 1024.0);
  EXPECT_EQ(histogram.min(), 1.0);
  EXPECT_EQ(histogram.max(), 1024.0);
  EXPECT_EQ(histogram.quantile(0.50), 1.0);   // rank 50
  EXPECT_EQ(histogram.quantile(0.90), 1.0);   // rank 90
  EXPECT_EQ(histogram.quantile(0.98), 1.0);   // rank 98, last 1.0
  EXPECT_EQ(histogram.quantile(0.99), 1024.0);  // rank 99, first 1024.0
  EXPECT_EQ(histogram.quantile(1.0), 1024.0);
  EXPECT_EQ(histogram.quantile(0.0), 1.0);    // rank clamps to 1
}

TEST(HistogramTest, ZeroRecordingsCountTowardQuantileRanks) {
  Histogram histogram;
  histogram.record(0.0);
  histogram.record(4.0);
  EXPECT_EQ(histogram.count(), 2u);
  EXPECT_EQ(histogram.quantile(0.5), 0.0);  // underflow bucket lower bound
  EXPECT_EQ(histogram.quantile(1.0), 4.0);
  EXPECT_EQ(histogram.min(), 0.0);
}

TEST(HistogramTest, ShardAggregationExactUnderFourThreadHammer) {
  // Each thread records powers of two (exact bucket lower bounds), so
  // per-bucket totals, count and sum must all aggregate exactly across the
  // per-thread stripes.
  Histogram histogram;
  constexpr int kPerValue = 5000;
  const std::vector<double> values = {0.25, 1.0, 16.0, 1024.0};
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t)
    threads.emplace_back([&, t] {
      const double mine = values[static_cast<std::size_t>(t)];
      for (int i = 0; i < kPerValue; ++i) {
        histogram.record(mine);
        histogram.record(1.0);  // every thread also hits a shared bucket
      }
    });
  for (auto& thread : threads) thread.join();

  EXPECT_EQ(histogram.count(), 4u * 2u * kPerValue);
  for (const double value : values) {
    const std::uint64_t expected =
        value == 1.0 ? 5u * kPerValue : kPerValue;
    EXPECT_EQ(histogram.bucket_total(Histogram::bucket_of(value)), expected)
        << "value " << value;
  }
  const double expected_sum =
      kPerValue * (0.25 + 1.0 + 16.0 + 1024.0) + 4.0 * kPerValue * 1.0;
  EXPECT_EQ(histogram.sum(), expected_sum);  // power-of-two sums are exact
  EXPECT_EQ(histogram.min(), 0.25);
  EXPECT_EQ(histogram.max(), 1024.0);
}

TEST(MetricsRegistryTest, SameNameReturnsSameMetric) {
  MetricsRegistry registry;
  EXPECT_TRUE(registry.empty());
  Counter& a = registry.counter("x");
  Counter& b = registry.counter("x");
  EXPECT_EQ(&a, &b);
  Histogram& h1 = registry.histogram("y");
  Histogram& h2 = registry.histogram("y");
  EXPECT_EQ(&h1, &h2);
  EXPECT_FALSE(registry.empty());
  // A counter and a histogram may share a name without colliding.
  registry.histogram("x").record(1.0);
  EXPECT_EQ(registry.counter("x").value(), 0u);
}

TEST(MetricsRegistryTest, JsonRoundTripsThroughAParser) {
  MetricsRegistry registry;
  registry.counter("jobs").add(7);
  Histogram& h = registry.histogram("latency");
  for (int i = 0; i < 99; ++i) h.record(1.0);
  h.record(4.0);

  const testjson::Value root = testjson::parse(registry.json());
  EXPECT_EQ(root.member("counters").member("jobs").number_value(), 7.0);
  const testjson::Value& latency = root.member("histograms").member("latency");
  EXPECT_EQ(latency.member("count").number_value(), 100.0);
  EXPECT_EQ(latency.member("min").number_value(), 1.0);
  EXPECT_EQ(latency.member("max").number_value(), 4.0);
  EXPECT_EQ(latency.member("p50").number_value(), 1.0);
  EXPECT_EQ(latency.member("p99").number_value(), 1.0);
  // Two non-empty buckets, reported as [lower_bound, count] pairs.
  const auto& buckets = latency.member("buckets").elements();
  ASSERT_EQ(buckets.size(), 2u);
  EXPECT_EQ(buckets[0].elements()[0].number_value(), 1.0);
  EXPECT_EQ(buckets[0].elements()[1].number_value(), 99.0);
  EXPECT_EQ(buckets[1].elements()[0].number_value(), 4.0);
  EXPECT_EQ(buckets[1].elements()[1].number_value(), 1.0);
}

TEST(MetricsRegistryTest, EmptyRegistryJsonParses) {
  MetricsRegistry registry;
  const testjson::Value root = testjson::parse(registry.json());
  EXPECT_TRUE(root.has_member("counters"));
  EXPECT_TRUE(root.has_member("histograms"));
}

TEST(MetricsRegistryTest, SummaryTableHasOneRowPerMetric) {
  MetricsRegistry registry;
  registry.counter("a").add(1);
  registry.counter("b").add(2);
  registry.histogram("c").record(1.0);
  EXPECT_EQ(registry.summary_table().row_count(), 3u);
}

TEST(MetricsRegistryTest, WriteJsonThrowsIoErrorOnBadPath) {
  MetricsRegistry registry;
  EXPECT_THROW(registry.write_json("/nonexistent-dir/metrics.json"), IoError);
}

TEST(MetricsRegistryTest, WriteJsonProducesReadableFile) {
  MetricsRegistry registry;
  registry.counter("written").add(5);
  const std::string path = ::testing::TempDir() + "obs_metrics_out.json";
  registry.write_json(path);
  std::ifstream in(path);
  std::stringstream text;
  text << in.rdbuf();
  const testjson::Value root = testjson::parse(text.str());
  EXPECT_EQ(root.member("counters").member("written").number_value(), 5.0);
  std::remove(path.c_str());
}

TEST(MetricsSnapshotTest, SnapshotJsonMatchesRegistryJson) {
  // A snapshot's json() must be byte-identical to the live registry's:
  // MetricsRegistry::json() is defined as snapshot().json().
  MetricsRegistry registry;
  registry.counter("jobs").add(7);
  Histogram& h = registry.histogram("latency");
  for (int i = 0; i < 99; ++i) h.record(1.0);
  h.record(4.0);
  EXPECT_EQ(registry.snapshot().json(), registry.json());

  MetricsRegistry empty;
  EXPECT_TRUE(empty.snapshot().counters.empty());
  EXPECT_TRUE(empty.snapshot().histograms.empty());
  EXPECT_EQ(empty.snapshot().json(), empty.json());
}

TEST(MetricsSnapshotTest, SnapshotCarriesExactAggregates) {
  MetricsRegistry registry;
  Histogram& h = registry.histogram("latency");
  h.record(0.25);
  h.record(1.0);
  h.record(1024.0);
  const MetricsSnapshot snapshot = registry.snapshot();
  const HistogramSnapshot& latency = snapshot.histograms.at("latency");
  EXPECT_EQ(latency.count, 3u);
  EXPECT_EQ(latency.sum, 0.25 + 1.0 + 1024.0);
  EXPECT_EQ(latency.min, 0.25);
  EXPECT_EQ(latency.max, 1024.0);
  ASSERT_EQ(latency.buckets.size(), Histogram::kBucketCount);
  EXPECT_EQ(latency.buckets[Histogram::bucket_of(1.0)], 1u);
  // Quantile parity with the live histogram at every decile.
  for (int q = 0; q <= 10; ++q)
    EXPECT_EQ(latency.quantile(q / 10.0), h.quantile(q / 10.0)) << q;
}

TEST(MetricsHelpersTest, NoOpWithoutInstalledRegistry) {
  RegistryGuard guard;
  install_metrics_registry(nullptr);
  EXPECT_FALSE(metrics_enabled());
  add_counter("ignored", 1);          // must not crash
  record_histogram("ignored", 1.0);   // must not crash
}

TEST(MetricsHelpersTest, RouteToInstalledRegistry) {
  RegistryGuard guard;
  MetricsRegistry registry;
  install_metrics_registry(&registry);
  EXPECT_TRUE(metrics_enabled());
  add_counter("routed", 2);
  record_histogram("routed.h", 1.0);
  install_metrics_registry(nullptr);
  add_counter("routed", 100);  // after uninstall: dropped
  EXPECT_EQ(registry.counter("routed").value(), 2u);
  EXPECT_EQ(registry.histogram("routed.h").count(), 1u);
}

}  // namespace
}  // namespace essns::obs
