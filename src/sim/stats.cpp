#include "sim/stats.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>

namespace pcm::sim {

Summary summarize(std::span<const double> xs) {
  Summary s;
  s.n = xs.size();
  if (xs.empty()) return s;

  std::vector<double> sorted(xs.begin(), xs.end());
  std::sort(sorted.begin(), sorted.end());
  s.min = sorted.front();
  s.max = sorted.back();
  const std::size_t mid = sorted.size() / 2;
  s.median = (sorted.size() % 2 == 1)
                 ? sorted[mid]
                 : 0.5 * (sorted[mid - 1] + sorted[mid]);

  double sum = 0.0;
  for (double x : xs) sum += x;
  s.mean = sum / static_cast<double>(xs.size());

  if (xs.size() > 1) {
    double ss = 0.0;
    for (double x : xs) {
      const double d = x - s.mean;
      ss += d * d;
    }
    s.stddev = std::sqrt(ss / static_cast<double>(xs.size() - 1));
  }
  return s;
}

double relative_error(double x, double reference) {
  assert(reference != 0.0);
  return (x - reference) / reference;
}

double mean_abs_relative_error(std::span<const double> measured,
                               std::span<const double> predicted) {
  assert(measured.size() == predicted.size());
  if (measured.empty()) return 0.0;
  double acc = 0.0;
  for (std::size_t i = 0; i < measured.size(); ++i) {
    acc += std::abs(relative_error(predicted[i], measured[i]));
  }
  return acc / static_cast<double>(measured.size());
}

// Measurement-side sample sink (calibration/report): it grows with the
// samples taken and never runs on a router's superstep path.
void Accumulator::add(double x) {
  values_.push_back(x);
}

Summary Accumulator::summary() const {
  return summarize(std::span<const double>(values_));
}

}  // namespace pcm::sim
