// Small numeric helpers of the end-to-end benchmark: the best-of-per-seed
// reducer, Python-compatible quantiles, span self time, and metric-name
// validation. Header-only so the unit tests link nothing but this file.
#pragma once

#include <algorithm>
#include <cstddef>
#include <stdexcept>
#include <string_view>
#include <vector>

namespace perfbench {

/// Timing samples of one benchmark run, grouped by trial seed: samples[i]
/// holds every repeat of the i-th fixed seed, in execution order.
using PerSeedSamples = std::vector<std::vector<double>>;

/// The fastest repeat of each seed. A seed without samples is an error: the
/// benchmark guarantees every seed at least one timed repeat.
[[nodiscard]] inline std::vector<double> best_per_seed(const PerSeedSamples& samples) {
  std::vector<double> best;
  best.reserve(samples.size());
  for (const std::vector<double>& s : samples) {
    if (s.empty()) throw std::invalid_argument("best_per_seed: seed without samples");
    best.push_back(*std::min_element(s.begin(), s.end()));
  }
  return best;
}

[[nodiscard]] inline double mean(const std::vector<double>& v) {
  if (v.empty()) throw std::invalid_argument("mean: empty sample");
  double sum = 0.0;
  for (const double x : v) sum += x;
  return sum / static_cast<double>(v.size());
}

/// Mean over seeds of each seed's fastest repeat: the reducer behind
/// trial_s and setup_s. Taking the minimum per seed discards repeats slowed
/// by cache or memory-bandwidth contention from other tenants; averaging
/// over a FIXED seed set keeps the workload identical from run to run.
[[nodiscard]] inline double best_of_mean(const PerSeedSamples& samples) {
  return mean(best_per_seed(samples));
}

[[nodiscard]] inline std::size_t sample_count(const PerSeedSamples& samples) {
  std::size_t count = 0;
  for (const std::vector<double>& s : samples) count += s.size();
  return count;
}

/// Cut points dividing `data` into `n` equal-probability groups, exactly as
/// Python's statistics.quantiles(data, n=n) (method "exclusive") computes
/// them, so figures printed here agree with the steadiness script's.
[[nodiscard]] inline std::vector<double> quantiles(std::vector<double> data, int n = 4) {
  if (n < 1) throw std::invalid_argument("quantiles: n must be at least 1");
  if (data.size() < 2) throw std::invalid_argument("quantiles: need at least two points");
  std::sort(data.begin(), data.end());
  const long ld = static_cast<long>(data.size());
  const long m = ld + 1;
  std::vector<double> cuts;
  for (long i = 1; i < n; ++i) {
    long j = i * m / n;
    j = std::clamp(j, 1L, ld - 1);
    const long delta = i * m - j * n;
    cuts.push_back((data[j - 1] * static_cast<double>(n - delta) +
                    data[j] * static_cast<double>(delta)) /
                   static_cast<double>(n));
  }
  return cuts;
}

[[nodiscard]] inline double median(std::vector<double> data) {
  if (data.empty()) throw std::invalid_argument("median: empty sample");
  std::sort(data.begin(), data.end());
  const std::size_t mid = data.size() / 2;
  return data.size() % 2 ? data[mid] : 0.5 * (data[mid - 1] + data[mid]);
}

/// A closed time interval in seconds since the run's epoch.
struct Interval {
  double start = 0.0;
  double end = 0.0;
  [[nodiscard]] double duration() const { return end - start; }
};

/// Length of the part of `parent` that the union of `children` covers.
/// Children are clipped to the parent and overlaps are counted once, so
/// the result never exceeds the parent's duration.
[[nodiscard]] inline double covered(const Interval& parent, std::vector<Interval> children) {
  std::sort(children.begin(), children.end(),
            [](const Interval& a, const Interval& b) { return a.start < b.start; });
  double total = 0.0;
  double reach = parent.start;  // end of the union so far
  for (const Interval& c : children) {
    const double start = std::max({c.start, reach, parent.start});
    const double end = std::min(c.end, parent.end);
    if (end > start) {
      total += end - start;
      reach = end;
    }
  }
  return total;
}

/// A span's self time: its duration minus the part its children cover.
[[nodiscard]] inline double self_time(const Interval& parent,
                                      const std::vector<Interval>& children) {
  return parent.duration() - covered(parent, children);
}

/// Metric names: 1 to 64 characters from letters, digits, '_', '.' and '-',
/// starting with a letter or a digit.
[[nodiscard]] inline bool valid_metric_name(std::string_view name) {
  if (name.empty() || name.size() > 64) return false;
  const auto alnum = [](char c) {
    return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || (c >= '0' && c <= '9');
  };
  if (!alnum(name.front())) return false;
  return std::all_of(name.begin(), name.end(),
                     [&](char c) { return alnum(c) || c == '_' || c == '.' || c == '-'; });
}

}  // namespace perfbench
