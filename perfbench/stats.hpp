// Statistics helpers of the sweep benchmark: medians, quartiles,
// percentiles, the tail-percentile rule and span self time.
//
// Header-only and free of any simulator dependency, so selftest.cpp can
// check every helper without building a simulation.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

/// Linear-interpolation percentile (`p` in [0, 100]) of `values`; the
/// same rule as numpy's default.  0 for an empty sample.
inline double percentile(std::vector<double> values, double p) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double rank = p / 100.0 * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(rank));
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  return values[lo] + (rank - static_cast<double>(lo)) * (values[hi] - values[lo]);
}

inline double median(std::vector<double> values) { return percentile(std::move(values), 50.0); }

/// First and third quartile with the rule of Python's
/// `statistics.quantiles(values, n=4)` (method "exclusive"), which is how
/// a benchmark's run-to-run spread is judged.  Like Python, the cut
/// index is clamped to [1, n-1] and may extrapolate for tiny samples.
/// Needs at least 2 values; fewer give {v, v} (or {0, 0} when empty).
inline std::pair<double, double> quartiles(std::vector<double> values) {
  if (values.empty()) return {0.0, 0.0};
  std::sort(values.begin(), values.end());
  const auto n = static_cast<std::int64_t>(values.size());
  if (n < 2) return {values[0], values[0]};
  const auto cut = [&](std::int64_t i) {
    const std::int64_t m = n + 1;
    const std::int64_t j = std::clamp<std::int64_t>(i * m / 4, 1, n - 1);
    const std::int64_t delta = i * m - j * 4;
    const auto at = [&](std::int64_t k) { return values[static_cast<std::size_t>(k)]; };
    return (at(j - 1) * static_cast<double>(4 - delta) + at(j) * static_cast<double>(delta)) /
           4.0;
  };
  return {cut(1), cut(3)};
}

/// Samples strictly beyond the `permille`-th per-mille point of `n`
/// samples (900 = p90): 165 samples leave 16 beyond p90.
inline std::size_t samples_beyond(std::size_t n, unsigned permille) {
  return n * (1000u - permille) / 1000u;
}

/// The highest of p50/p90/p99/p99.9 (as per-mille) that still has at
/// least `min_tail` samples beyond it, or 0 when not even the median
/// does.  A tail percentile is reported only where enough samples
/// exceed it to make it more than one outlier.
inline unsigned tail_permille(std::size_t n, std::size_t min_tail = 10) {
  for (const unsigned pm : {999u, 990u, 900u, 500u}) {
    if (samples_beyond(n, pm) >= min_tail) return pm;
  }
  return 0;
}

/// One timed interval of the traced pass.  `parent` indexes the same
/// span vector (-1 for a root); spans of one simulation run share `run`.
struct Span {
  std::string name;
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::int64_t parent = -1;
  std::int64_t run = -1;

  [[nodiscard]] std::int64_t duration_ns() const { return end_ns - start_ns; }
};

/// Length of the union of `intervals` clipped to [lo, hi].  Children of
/// one span may overlap (concurrent runs under a sweep span), so they
/// are merged before being counted.
inline std::int64_t covered_ns(std::vector<std::pair<std::int64_t, std::int64_t>> intervals,
                               std::int64_t lo, std::int64_t hi) {
  std::sort(intervals.begin(), intervals.end());
  std::int64_t covered = 0;
  std::int64_t cursor = lo;
  for (auto [s, e] : intervals) {
    s = std::max(s, cursor);
    e = std::min(e, hi);
    if (e > s) {
      covered += e - s;
      cursor = e;
    }
  }
  return covered;
}

/// Self time of every span: its duration minus the part of it that its
/// direct children cover.
inline std::vector<std::int64_t> self_times_ns(const std::vector<Span>& spans) {
  std::vector<std::vector<std::pair<std::int64_t, std::int64_t>>> children(spans.size());
  for (const Span& s : spans) {
    if (s.parent >= 0) {
      children[static_cast<std::size_t>(s.parent)].emplace_back(s.start_ns, s.end_ns);
    }
  }
  std::vector<std::int64_t> self(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i) {
    self[i] = spans[i].duration_ns() -
              covered_ns(std::move(children[i]), spans[i].start_ns, spans[i].end_ns);
  }
  return self;
}

}  // namespace perfbench
