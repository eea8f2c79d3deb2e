// Streaming statistics used by the metrics layer and the bench harnesses.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

namespace moon {

/// Welford online accumulator: numerically stable mean/variance in one pass.
class Accumulator {
 public:
  void add(double x);

  [[nodiscard]] std::size_t count() const { return count_; }
  [[nodiscard]] double mean() const;
  [[nodiscard]] double variance() const;  ///< sample variance (n-1); 0 if n<2
  [[nodiscard]] double stddev() const;
  [[nodiscard]] double min() const;
  [[nodiscard]] double max() const;
  [[nodiscard]] double sum() const { return sum_; }

 private:
  std::size_t count_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double sum_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
};

/// Percentile over a copied, sorted sample set (exact, small-N use only).
double percentile(std::vector<double> samples, double p);

}  // namespace moon
