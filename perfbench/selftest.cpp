// Self-tests of the benchmark's statistics helpers (stats.hpp).  Builds
// and runs without the simulator:
//
//   cmake --build .bench_build/perfbench --target perfbench_selftest
//   .bench_build/perfbench/perfbench_selftest
//
// perfbench/run.py runs it before every benchmark run and refuses to
// report numbers when it fails.
#include <cmath>
#include <cstdio>

#include "stats.hpp"

namespace {

int failures = 0;
int checks = 0;

void expect(bool ok, const char* what) {
  ++checks;
  if (!ok) {
    ++failures;
    std::fprintf(stderr, "selftest FAILED: %s\n", what);
  }
}

bool near(double a, double b) { return std::fabs(a - b) < 1e-9; }

void test_median_and_percentile() {
  using perfbench::median;
  using perfbench::percentile;
  expect(median({}) == 0.0, "median of nothing is 0");
  expect(median({7.0}) == 7.0, "median of one value");
  expect(median({3.0, 1.0, 2.0}) == 2.0, "median of odd count is the middle value");
  expect(median({4.0, 1.0, 3.0, 2.0}) == 2.5, "median of even count averages the middle");
  expect(percentile({1.0, 2.0, 3.0, 4.0, 5.0}, 0.0) == 1.0, "p0 is the minimum");
  expect(percentile({1.0, 2.0, 3.0, 4.0, 5.0}, 100.0) == 5.0, "p100 is the maximum");
  // numpy.percentile([10, 20, 30, 40], 90) == 37.0
  expect(near(percentile({40.0, 10.0, 30.0, 20.0}, 90.0), 37.0), "p90 interpolates");
}

void test_quartiles() {
  using perfbench::quartiles;
  // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
  auto q = quartiles({10, 9, 8, 7, 6, 5, 4, 3, 2, 1});
  expect(near(q.first, 2.75) && near(q.second, 8.25), "quartiles of 1..10 match Python");
  // statistics.quantiles([1, 2, 3, 4, 5], n=4) == [1.5, 3.0, 4.5]
  q = quartiles({5, 4, 3, 2, 1});
  expect(near(q.first, 1.5) && near(q.second, 4.5), "quartiles of 1..5 match Python");
  // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25] (extrapolated)
  q = quartiles({2, 1});
  expect(near(q.first, 0.75) && near(q.second, 2.25), "two-value quartiles extrapolate");
  q = quartiles({4.0});
  expect(q.first == 4.0 && q.second == 4.0, "one value is its own quartiles");
}

void test_tail_rule() {
  using perfbench::samples_beyond;
  using perfbench::tail_permille;
  expect(samples_beyond(165, 900) == 16, "165 runs leave 16 samples beyond p90");
  expect(samples_beyond(165, 990) == 1, "165 runs leave 1 sample beyond p99");
  expect(tail_permille(165) == 900, "165 samples report p90");
  expect(tail_permille(1000) == 990, "1000 samples report p99");
  expect(tail_permille(999) == 900, "999 samples fall short of p99");
  expect(tail_permille(10000) == 999, "10000 samples report p99.9");
  expect(tail_permille(20) == 500, "20 samples report only the median");
  expect(tail_permille(19) == 0, "19 samples support no tail percentile");
  expect(tail_permille(40, 4) == 900, "the tail size is a parameter");
}

void test_self_time() {
  using perfbench::Span;
  // root [0,100) with children [10,30) and [20,50) overlapping, and a
  // grandchild [12,18) under the first child: root self = 100 - 40.
  const std::vector<Span> spans = {
      {"root", 0, 100, -1, -1},
      {"a", 10, 30, 0, 1},
      {"b", 20, 50, 0, 2},
      {"a.1", 12, 18, 1, 1},
      {"late", 90, 120, 0, 3},  // runs past its parent: clipped to [90, 100)
  };
  const auto self = perfbench::self_times_ns(spans);
  expect(self[0] == 100 - 40 - 10, "self time subtracts the union of children");
  expect(self[1] == 20 - 6, "a child's self time excludes its own children");
  expect(self[2] == 30, "a leaf's self time is its duration");
  expect(self[4] == 30, "a span past its parent keeps its own duration");
  expect(perfbench::covered_ns({}, 0, 10) == 0, "no children cover nothing");
  expect(perfbench::covered_ns({{0, 5}, {5, 10}}, 0, 10) == 10, "adjacent children tile");
  expect(perfbench::covered_ns({{2, 4}, {0, 10}}, 0, 10) == 10, "nested children count once");
}

}  // namespace

int main() {
  test_median_and_percentile();
  test_quartiles();
  test_tail_rule();
  test_self_time();
  if (failures > 0) {
    std::fprintf(stderr, "selftest: %d of %d checks failed\n", failures, checks);
    return 1;
  }
  std::fprintf(stderr, "selftest: %d checks passed\n", checks);
  return 0;
}
