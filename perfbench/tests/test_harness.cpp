// Unit tests of the benchmark's own helpers (src/harness.hpp). Built as
// perfbench_selftest; run.py runs it before every benchmark run, and a
// failure stops the run. Exit code 0 = all passed.
#include <cmath>
#include <cstdio>
#include <limits>
#include <vector>

#include "harness.hpp"

namespace {

int g_failed = 0;
int g_checked = 0;

void check(bool ok, const char* what, int line) {
  ++g_checked;
  if (!ok) {
    ++g_failed;
    std::fprintf(stderr, "test_harness.cpp:%d: FAILED %s\n", line, what);
  }
}

#define CHECK(cond) check((cond), #cond, __LINE__)

using namespace perfbench;

void percentiles_with_few_samples() {
  CHECK(std::isnan(percentile({}, 0.5)));
  CHECK(std::isnan(median({})));
  CHECK(percentile({7.0}, 0.0) == 7.0);
  CHECK(percentile({7.0}, 0.9) == 7.0);
  CHECK(percentile({7.0}, 1.0) == 7.0);
  // Nearest rank on unsorted input: ceil(p·n)-th smallest.
  CHECK(percentile({3.0, 1.0}, 0.5) == 1.0);
  CHECK(percentile({3.0, 1.0}, 0.51) == 3.0);
  CHECK(percentile({5.0, 1.0, 4.0, 2.0, 3.0}, 0.9) == 5.0);
  CHECK(percentile({5.0, 1.0, 4.0, 2.0, 3.0}, 0.5) == 3.0);
  // Out-of-range p is clamped, not undefined.
  CHECK(percentile({2.0, 1.0}, -3.0) == 1.0);
  CHECK(percentile({2.0, 1.0}, 7.0) == 2.0);
  CHECK(median({4.0, 1.0, 3.0, 2.0}) == 2.5);
  CHECK(median({9.0, 1.0, 5.0}) == 5.0);
  CHECK(std::isnan(mean({})));
  CHECK(mean({7.0}) == 7.0);
  CHECK(mean({1.0, 2.0, 6.0}) == 3.0);
  // A refused session is infinitely late and must land in the tail.
  const double inf = std::numeric_limits<double>::infinity();
  CHECK(std::isinf(percentile({1.0, inf}, 0.9)));
  CHECK(percentile({1.0, inf}, 0.5) == 1.0);
  // 100 samples: ten sit beyond the nearest-rank p90.
  std::vector<double> hundred;
  for (int i = 1; i <= 100; ++i) hundred.push_back(i);
  CHECK(percentile(hundred, 0.9) == 90.0);
  CHECK(samples_beyond(hundred, 0.9) == 10);
  CHECK(samples_beyond({1.0, 1.0, 1.0}, 0.9) == 0);
}

void poisson_schedule_and_lateness() {
  const std::vector<double> a = poisson_schedule(5.0, 20.0, 42);
  const std::vector<double> b = poisson_schedule(5.0, 20.0, 42);
  const std::vector<double> c = poisson_schedule(5.0, 20.0, 43);
  CHECK(a.size() == 100);  // count fixed at rate · duration
  CHECK(a == b);           // same seed, same schedule
  CHECK(c.size() == 100 && a != c);
  bool sorted_in_range = true;
  for (std::size_t i = 0; i < a.size(); ++i) {
    sorted_in_range = sorted_in_range && a[i] >= 0.0 && a[i] < 20.0 &&
                      (i == 0 || a[i - 1] <= a[i]);
  }
  CHECK(sorted_in_range);
  CHECK(poisson_schedule(0.0, 10.0, 1).empty());
  CHECK(poisson_schedule(3.0, 0.0, 1).empty());
  CHECK(poisson_schedule(0.04, 10.0, 1).empty());  // rounds to 0 arrivals
  // Gaps of a Poisson process are exponential: mean 1/rate and a
  // coefficient of variation near 1 (uniform spacing would give 0).
  const std::vector<double> many = poisson_schedule(50.0, 200.0, 7);
  double sum = 0.0, sum2 = 0.0;
  for (std::size_t i = 1; i < many.size(); ++i) {
    const double g = many[i] - many[i - 1];
    sum += g;
    sum2 += g * g;
  }
  const auto n = static_cast<double>(many.size() - 1);
  const double mean = sum / n;
  const double cv = std::sqrt(sum2 / n - mean * mean) / mean;
  CHECK(std::abs(mean - 0.02) < 0.002);
  CHECK(cv > 0.9 && cv < 1.1);
  CHECK(lateness(1.0, 1.5) == 0.5);
  CHECK(lateness(1.0, 0.5) == 0.0);
  CHECK(lateness(2.0, 2.0) == 0.0);
}

void self_time_subtraction() {
  SpanLog log;
  const int round = log.add("round", -1, -1, 0.0, 10.0);
  log.add("batch", -1, round, 1.0, 4.0);
  log.add("batch", -1, round, 3.0, 6.0);    // overlaps the first: union 1..6
  log.add("diag", -1, round, 8.0, 12.0);    // runs past the parent: clipped
  const int session = log.add("session", 7, -1, 2.0, 9.0);
  log.add("submit", 7, session, 2.0, 2.5);
  log.add("take", 7, session, 8.5, 9.0);
  const std::vector<double> self = self_times(log.spans());
  CHECK(std::abs(self[0] - 3.0) < 1e-12);  // 10 − (5 + 2)
  CHECK(std::abs(self[1] - 3.0) < 1e-12);  // leaves have no children
  CHECK(std::abs(self[4] - 6.0) < 1e-12);  // 7 − 0.5 − 0.5
  CHECK(log.spans()[5].session == log.spans()[4].session);
  CHECK(covered_length({}, 0.0, 1.0) == 0.0);
  CHECK(covered_length({{2.0, 3.0}}, 0.0, 1.0) == 0.0);
  CHECK(covered_length({{0.0, 1.0}, {1.0, 2.0}}, 0.0, 5.0) == 2.0);
  CHECK(aggregate_self(10.0, {2.0, 3.0}) == 5.0);
  CHECK(aggregate_self(1.0, {2.0}) == -1.0);  // over-covered: negative
}

void json_encoding() {
  CHECK(json_quote("a\"b\\c") == "\"a\\\"b\\\\c\"");
  CHECK(json_number(1.5) == "1.5");
  CHECK(json_number(0.123456789012) == "0.123456789");
  CHECK(json_number(std::numeric_limits<double>::quiet_NaN()) == "null");
  CHECK(json_number(std::numeric_limits<double>::infinity()) ==
        "1.797693135e+308");
}

}  // namespace

int main() {
  percentiles_with_few_samples();
  poisson_schedule_and_lateness();
  self_time_subtraction();
  json_encoding();
  std::printf("perfbench_selftest: %d checks, %d failed\n", g_checked,
              g_failed);
  return g_failed == 0 ? 0 : 1;
}
