// obs::MetricsRegistry / TimeSeries / Histogram / EventLog unit tests:
// ring-buffer eviction bounds, exact window percentiles, rectangular CSV
// export, and event-log capture order.
#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <vector>

#include "obs/event_log.hpp"
#include "obs/metrics.hpp"

namespace moon::obs {
namespace {

TEST(TimeSeriesTest, EvictsOldestAndCountsDrops) {
  TimeSeries series(3);
  for (int i = 0; i < 5; ++i) {
    series.push(i * 10, static_cast<double>(i));
  }
  EXPECT_EQ(series.size(), 3u);
  EXPECT_EQ(series.capacity(), 3u);
  EXPECT_EQ(series.dropped(), 2u);
  // Oldest retained is sample #2; newest is #4.
  EXPECT_EQ(series.at(0).time, 20);
  EXPECT_EQ(series.at(0).value, 2.0);
  EXPECT_EQ(series.back().time, 40);
  EXPECT_EQ(series.back().value, 4.0);
}

TEST(HistogramTest, ExactPercentilesOverWindow) {
  Histogram hist(100);
  for (int i = 1; i <= 100; ++i) {
    hist.record(static_cast<double>(i));
  }
  EXPECT_EQ(hist.count(), 100u);
  EXPECT_EQ(hist.min(), 1.0);
  EXPECT_EQ(hist.max(), 100.0);
  EXPECT_DOUBLE_EQ(hist.mean(), 50.5);
  EXPECT_EQ(hist.percentile(0.0), 1.0);
  EXPECT_EQ(hist.percentile(1.0), 100.0);
  EXPECT_NEAR(hist.percentile(0.5), 50.0, 1.0);
  EXPECT_NEAR(hist.percentile(0.95), 95.0, 1.0);
  EXPECT_NEAR(hist.percentile(0.99), 99.0, 1.0);
}

TEST(HistogramTest, WindowEvictionKeepsRunningAggregates) {
  Histogram hist(4);
  for (int i = 1; i <= 10; ++i) {
    hist.record(static_cast<double>(i));
  }
  // Window holds {7,8,9,10}; aggregates cover all ten.
  EXPECT_EQ(hist.retained(), 4u);
  EXPECT_EQ(hist.count(), 10u);
  EXPECT_EQ(hist.sum(), 55.0);
  EXPECT_EQ(hist.min(), 1.0);
  EXPECT_EQ(hist.max(), 10.0);
  EXPECT_EQ(hist.percentile(0.0), 7.0);
  EXPECT_EQ(hist.percentile(1.0), 10.0);
}

TEST(MetricsRegistryTest, SamplesGaugesIntoRectangularCsv) {
  MetricsConfig config;
  config.series_capacity = 16;
  MetricsRegistry registry(config);
  double x = 1.0;
  registry.add_gauge("x", [&x] { return x; });
  registry.add_gauge("twice_x", [&x] { return 2.0 * x; });

  registry.sample(0);
  x = 5.0;
  registry.sample(1'000'000);  // 1 simulated second
  EXPECT_EQ(registry.sample_count(), 2u);

  const TimeSeries* series = registry.series("twice_x");
  ASSERT_NE(series, nullptr);
  ASSERT_EQ(series->size(), 2u);
  EXPECT_EQ(series->at(0).value, 2.0);
  EXPECT_EQ(series->at(1).value, 10.0);
  EXPECT_EQ(registry.series("missing"), nullptr);

  std::ostringstream os;
  registry.write_csv(os);
  const std::string csv = os.str();
  EXPECT_NE(csv.find("time_s,x,twice_x"), std::string::npos);
  EXPECT_NE(csv.find("1,5,10"), std::string::npos);
}

TEST(MetricsRegistryTest, HistogramSummariesInJsonl) {
  MetricsRegistry registry;
  Histogram& hist = registry.histogram("latency_s");
  hist.record(1.0);
  hist.record(2.0);
  // Repeated lookup returns the same histogram.
  EXPECT_EQ(&registry.histogram("latency_s"), &hist);

  std::ostringstream os;
  registry.write_jsonl(os);
  const std::string jsonl = os.str();
  EXPECT_NE(jsonl.find("\"latency_s\""), std::string::npos);
  EXPECT_NE(jsonl.find("\"count\":2"), std::string::npos);
  EXPECT_NE(jsonl.find("\"p99\""), std::string::npos);
}

TEST(EventLogTest, BoundedRingKeepsNewestRecords) {
  EventLog log(2);
  log.append({1, Level::kInfo, "a", "first", {}});
  log.append({2, Level::kWarn, "b", "second", {}});
  log.append({3, Level::kError, "c", "third", {{"k", "v"}}});
  EXPECT_EQ(log.size(), 2u);
  EXPECT_EQ(log.dropped(), 1u);
  EXPECT_EQ(log.at(0).message, "second");
  EXPECT_EQ(log.at(1).message, "third");

  std::ostringstream os;
  log.write_jsonl(os);
  const std::string jsonl = os.str();
  EXPECT_EQ(jsonl.find("first"), std::string::npos);
  EXPECT_NE(jsonl.find("\"third\""), std::string::npos);
  EXPECT_NE(jsonl.find("\"k\":\"v\""), std::string::npos);
}

}  // namespace
}  // namespace moon::obs
