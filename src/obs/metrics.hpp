// Metrics time-series registry.
//
// Gauges are read-only probes (std::function<double()>) registered once at
// wiring time; `sample(now)` evaluates every gauge and pushes one point per
// series, all stamped with the same simulated time — so the CSV export is a
// rectangular table with one row per sampling tick. Series are bounded ring
// buffers: memory stays O(capacity) regardless of run length, and evicted
// points are counted, never silently lost.
//
// Histograms record individual observations (attempt runtimes, checkpoint
// sizes) into a bounded last-N window plus running count/sum/min/max;
// percentiles are exact over the retained window.
//
// Zero-perturbation contract: gauges must only *read* simulation state.
// Anything with read-triggered side effects (e.g. FlowNetwork::rate(), which
// settles on read) is off limits — see DESIGN.md §12.
#pragma once

#include <cstdint>
#include <functional>
#include <iosfwd>
#include <memory>
#include <string>
#include <vector>

#include "common/time.hpp"

namespace moon::obs {

struct MetricsConfig {
  /// Simulated-time sampling cadence for gauges.
  sim::Duration sample_interval = 10 * sim::kSecond;
  /// Ring capacity per time-series (points retained per gauge).
  std::size_t series_capacity = 8192;
  /// Ring capacity per histogram (observations retained for percentiles).
  std::size_t histogram_capacity = 4096;
};

/// Bounded ring buffer of (simulated time, value) samples.
class TimeSeries {
 public:
  struct Sample {
    sim::Time time = 0;
    double value = 0.0;
  };

  explicit TimeSeries(std::size_t capacity);

  void push(sim::Time time, double value);

  [[nodiscard]] std::size_t size() const { return size_; }
  [[nodiscard]] std::size_t capacity() const { return ring_.size(); }
  [[nodiscard]] std::uint64_t dropped() const { return dropped_; }
  /// i = 0 is the oldest retained sample.
  [[nodiscard]] const Sample& at(std::size_t i) const;
  [[nodiscard]] const Sample& back() const { return at(size_ - 1); }

 private:
  std::vector<Sample> ring_;
  std::size_t head_ = 0;  // index of the oldest sample
  std::size_t size_ = 0;
  std::uint64_t dropped_ = 0;
};

/// Bounded-window histogram: exact percentiles over the last `capacity`
/// observations, plus running aggregates over everything ever recorded.
class Histogram {
 public:
  explicit Histogram(std::size_t capacity);

  void record(double value);

  [[nodiscard]] std::uint64_t count() const { return count_; }
  [[nodiscard]] double sum() const { return sum_; }
  [[nodiscard]] double min() const { return min_; }
  [[nodiscard]] double max() const { return max_; }
  [[nodiscard]] double mean() const {
    return count_ == 0 ? 0.0 : sum_ / static_cast<double>(count_);
  }
  [[nodiscard]] std::size_t retained() const { return size_; }

  /// Exact p-quantile (p in [0, 1]) over the retained window; 0 when empty.
  [[nodiscard]] double percentile(double p) const;

 private:
  std::vector<double> ring_;
  std::size_t head_ = 0;
  std::size_t size_ = 0;
  std::uint64_t count_ = 0;
  double sum_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
};

class MetricsRegistry {
 public:
  explicit MetricsRegistry(MetricsConfig config = {});

  [[nodiscard]] const MetricsConfig& config() const { return config_; }

  /// Registers a gauge; sampled in registration order. Must be wired before
  /// the first sample() so every series has the same length.
  void add_gauge(std::string name, std::function<double()> probe);

  /// Finds or creates a histogram. References stay stable for the
  /// registry's lifetime.
  Histogram& histogram(const std::string& name);

  /// Evaluates every gauge at `now` and appends one point per series.
  void sample(sim::Time now);

  [[nodiscard]] const TimeSeries* series(const std::string& name) const;
  [[nodiscard]] std::size_t gauge_count() const { return gauges_.size(); }
  [[nodiscard]] std::uint64_t sample_count() const { return samples_; }

  /// CSV: header `time_s,<gauge...>`, one row per sampling tick (over the
  /// retained window).
  void write_csv(std::ostream& out) const;
  /// JSONL: one line per gauge series (points array) and one summary line
  /// per histogram (count/sum/min/max/p50/p95/p99).
  void write_jsonl(std::ostream& out) const;

 private:
  struct Gauge {
    std::string name;
    std::function<double()> probe;
    TimeSeries series;
  };
  struct NamedHistogram {
    std::string name;
    std::unique_ptr<Histogram> histogram;  // stable address across growth
  };

  MetricsConfig config_;
  std::vector<Gauge> gauges_;
  std::vector<NamedHistogram> histograms_;
  std::uint64_t samples_ = 0;
};

}  // namespace moon::obs
