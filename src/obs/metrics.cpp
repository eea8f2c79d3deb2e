#include "obs/metrics.hpp"

#include <algorithm>
#include <cassert>
#include <ostream>

#include "common/time.hpp"

namespace moon::obs {

// ---- TimeSeries ------------------------------------------------------------

TimeSeries::TimeSeries(std::size_t capacity)
    : ring_(std::max<std::size_t>(capacity, 1)) {}

void TimeSeries::push(sim::Time time, double value) {
  if (size_ < ring_.size()) {
    ring_[(head_ + size_) % ring_.size()] = Sample{time, value};
    ++size_;
    return;
  }
  // Full: overwrite the oldest sample and advance the window.
  ring_[head_] = Sample{time, value};
  head_ = (head_ + 1) % ring_.size();
  ++dropped_;
}

const TimeSeries::Sample& TimeSeries::at(std::size_t i) const {
  assert(i < size_);
  return ring_[(head_ + i) % ring_.size()];
}

// ---- Histogram -------------------------------------------------------------

Histogram::Histogram(std::size_t capacity)
    : ring_(std::max<std::size_t>(capacity, 1)) {}

void Histogram::record(double value) {
  if (count_ == 0) {
    min_ = max_ = value;
  } else {
    min_ = std::min(min_, value);
    max_ = std::max(max_, value);
  }
  ++count_;
  sum_ += value;
  if (size_ < ring_.size()) {
    ring_[(head_ + size_) % ring_.size()] = value;
    ++size_;
  } else {
    ring_[head_] = value;
    head_ = (head_ + 1) % ring_.size();
  }
}

double Histogram::percentile(double p) const {
  if (size_ == 0) return 0.0;
  std::vector<double> window;
  window.reserve(size_);
  for (std::size_t i = 0; i < size_; ++i) {
    window.push_back(ring_[(head_ + i) % ring_.size()]);
  }
  p = std::clamp(p, 0.0, 1.0);
  const auto rank = static_cast<std::size_t>(p * static_cast<double>(size_ - 1) + 0.5);
  std::nth_element(window.begin(), window.begin() + static_cast<std::ptrdiff_t>(rank),
                   window.end());
  return window[rank];
}

// ---- MetricsRegistry -------------------------------------------------------

MetricsRegistry::MetricsRegistry(MetricsConfig config) : config_(config) {}

void MetricsRegistry::add_gauge(std::string name, std::function<double()> probe) {
  gauges_.push_back(
      Gauge{std::move(name), std::move(probe), TimeSeries(config_.series_capacity)});
}

Histogram& MetricsRegistry::histogram(const std::string& name) {
  for (auto& h : histograms_) {
    if (h.name == name) return *h.histogram;
  }
  histograms_.push_back(NamedHistogram{
      name, std::make_unique<Histogram>(config_.histogram_capacity)});
  return *histograms_.back().histogram;
}

void MetricsRegistry::sample(sim::Time now) {
  for (auto& gauge : gauges_) {
    gauge.series.push(now, gauge.probe());
  }
  ++samples_;
}

const TimeSeries* MetricsRegistry::series(const std::string& name) const {
  for (const auto& gauge : gauges_) {
    if (gauge.name == name) return &gauge.series;
  }
  return nullptr;
}

void MetricsRegistry::write_csv(std::ostream& out) const {
  out << "time_s";
  for (const auto& gauge : gauges_) out << ',' << gauge.name;
  out << '\n';
  if (gauges_.empty()) return;
  // Every series was pushed by the same sample() calls, so all have the
  // same retained length and timestamps; row i reads index i of each.
  const std::size_t rows = gauges_.front().series.size();
  for (std::size_t i = 0; i < rows; ++i) {
    out << sim::to_seconds(gauges_.front().series.at(i).time);
    for (const auto& gauge : gauges_) out << ',' << gauge.series.at(i).value;
    out << '\n';
  }
}

void MetricsRegistry::write_jsonl(std::ostream& out) const {
  for (const auto& gauge : gauges_) {
    out << "{\"type\":\"series\",\"name\":\"" << gauge.name
        << "\",\"dropped\":" << gauge.series.dropped() << ",\"points\":[";
    for (std::size_t i = 0; i < gauge.series.size(); ++i) {
      if (i > 0) out << ',';
      const auto& s = gauge.series.at(i);
      out << '[' << sim::to_seconds(s.time) << ',' << s.value << ']';
    }
    out << "]}\n";
  }
  for (const auto& h : histograms_) {
    const Histogram& hist = *h.histogram;
    out << "{\"type\":\"histogram\",\"name\":\"" << h.name
        << "\",\"count\":" << hist.count() << ",\"sum\":" << hist.sum()
        << ",\"min\":" << hist.min() << ",\"max\":" << hist.max()
        << ",\"p50\":" << hist.percentile(0.50)
        << ",\"p95\":" << hist.percentile(0.95)
        << ",\"p99\":" << hist.percentile(0.99) << "}\n";
  }
}

}  // namespace moon::obs
