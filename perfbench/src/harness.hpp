// Benchmark helpers with no dependency on the turbfno library, so the
// self-test binary can check them in isolation:
//
//   * percentiles and medians over small samples (nearest rank, total over
//     empty and single-element samples, +inf kept as "infinitely late");
//   * the open-loop arrival schedule (Poisson, deterministic from a seed)
//     and lateness against it;
//   * an in-memory span log with parent links and self-time subtraction
//     (a span's duration minus the part of it its children cover);
//   * the two JSON encoders the result line and the trace file share.
#pragma once

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <limits>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

/// Nearest-rank percentile (p in [0, 1], clamped) of an unsorted sample.
/// Empty samples give NaN so a missing measurement cannot pass as 0.
inline double percentile(std::vector<double> sample, double p) {
  if (sample.empty()) return std::numeric_limits<double>::quiet_NaN();
  std::sort(sample.begin(), sample.end());
  p = std::min(std::max(p, 0.0), 1.0);
  const auto n = static_cast<double>(sample.size());
  auto rank = static_cast<std::size_t>(std::ceil(p * n));
  rank = std::min(std::max<std::size_t>(rank, 1), sample.size());
  return sample[rank - 1];
}

/// Arithmetic mean, NaN for an empty sample.
inline double mean(const std::vector<double>& sample) {
  if (sample.empty()) return std::numeric_limits<double>::quiet_NaN();
  double sum = 0.0;
  for (const double v : sample) sum += v;
  return sum / static_cast<double>(sample.size());
}

/// Median as the mean of the two middle elements for even sizes (the
/// statistics.median convention), NaN for an empty sample.
inline double median(std::vector<double> sample) {
  if (sample.empty()) return std::numeric_limits<double>::quiet_NaN();
  std::sort(sample.begin(), sample.end());
  const std::size_t n = sample.size();
  return n % 2 == 1 ? sample[n / 2]
                    : 0.5 * (sample[n / 2 - 1] + sample[n / 2]);
}

/// Number of samples strictly above the nearest-rank p-percentile: a
/// percentile is only reported when at least ten samples sit beyond it.
inline std::size_t samples_beyond(const std::vector<double>& sample,
                                  double p) {
  const double cut = percentile(sample, p);
  return static_cast<std::size_t>(
      std::count_if(sample.begin(), sample.end(),
                    [cut](double v) { return v > cut; }));
}

/// JSON string literal for `s` (quotes and backslashes escaped; the
/// benchmark's names and messages hold no control characters).
inline std::string json_quote(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  out += '"';
  return out;
}

/// JSON number with ten significant digits. JSON has no infinity: a
/// latency that is infinite (a refused or failed session) prints as the
/// largest double, and NaN (a metric with no samples) as null.
inline std::string json_number(double v) {
  if (std::isnan(v)) return "null";
  if (std::isinf(v)) {
    v = v > 0 ? std::numeric_limits<double>::max()
              : std::numeric_limits<double>::lowest();
  }
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.10g", v);
  return buf;
}

/// splitmix64: the schedule's own generator, so an arrival sequence depends
/// on the workload seed alone.
class SplitMix {
 public:
  explicit SplitMix(std::uint64_t seed) : state_(seed) {}
  std::uint64_t next() {
    std::uint64_t z = (state_ += 0x9E3779B97F4A7C15ull);
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
    return z ^ (z >> 31);
  }
  /// Uniform in [0, 1) with 53 random bits.
  double uniform() { return static_cast<double>(next() >> 11) * 0x1.0p-53; }

 private:
  std::uint64_t state_;
};

/// Arrival offsets (seconds from the start of the run) of an open loop with
/// `rate` arrivals per second over [0, duration): a Poisson process
/// conditioned on its expected count, i.e. n = round(rate · duration) times
/// drawn uniformly and sorted (the order statistics of a Poisson process
/// with n arrivals). Fixing the count keeps the offered work equal across
/// seeds, so a seed changes how arrivals bunch up, not how many there are.
/// The same seed always gives the same schedule.
inline std::vector<double> poisson_schedule(double rate, double duration,
                                            std::uint64_t seed) {
  std::vector<double> due;
  if (!(rate > 0.0) || !(duration > 0.0)) return due;
  const auto n = static_cast<std::size_t>(std::llround(rate * duration));
  SplitMix rng(seed);
  due.reserve(n);
  for (std::size_t i = 0; i < n; ++i) due.push_back(rng.uniform() * duration);
  std::sort(due.begin(), due.end());
  return due;
}

/// How late an event ran against when it was due (0 when early or on time).
inline double lateness(double due, double actual) {
  return std::max(0.0, actual - due);
}

/// One span of the benchmark's own trace. Times are seconds since the log's
/// origin; `parent` indexes the span that caused this one (-1 for a root);
/// spans of one session share `session` (-1 for spans of no session, such
/// as scheduling rounds).
struct Span {
  std::string name;
  std::int64_t session = -1;
  int parent = -1;
  double start = 0.0;
  double end = 0.0;
  [[nodiscard]] double duration() const { return end - start; }
};

class SpanLog {
 public:
  /// Seconds since the log was created.
  [[nodiscard]] double now() const {
    return seconds_between(origin_, Clock::now());
  }

  /// Record a finished span; returns its index (usable as a parent).
  int add(std::string name, std::int64_t session, int parent, double start,
          double end) {
    spans_.push_back({std::move(name), session, parent, start, end});
    return static_cast<int>(spans_.size()) - 1;
  }
  void set_end(int index, double end) {
    spans_[static_cast<std::size_t>(index)].end = end;
  }

  [[nodiscard]] const std::vector<Span>& spans() const { return spans_; }

 private:
  Clock::time_point origin_ = Clock::now();
  std::vector<Span> spans_;
};

/// Length of the union of intervals, each clipped to [lo, hi].
inline double covered_length(std::vector<std::pair<double, double>> iv,
                             double lo, double hi) {
  for (auto& [a, b] : iv) {
    a = std::max(a, lo);
    b = std::min(b, hi);
  }
  std::sort(iv.begin(), iv.end());
  double total = 0.0, cur_a = 0.0, cur_b = 0.0;
  bool open = false;
  for (const auto& [a, b] : iv) {
    if (b <= a) continue;
    if (open && a <= cur_b) {
      cur_b = std::max(cur_b, b);
      continue;
    }
    if (open) total += cur_b - cur_a;
    cur_a = a;
    cur_b = b;
    open = true;
  }
  if (open) total += cur_b - cur_a;
  return total;
}

/// Self time of every span: its duration minus the part of its interval
/// covered by its direct children (overlapping children count once).
inline std::vector<double> self_times(const std::vector<Span>& spans) {
  std::vector<std::vector<std::pair<double, double>>> children(spans.size());
  for (const Span& s : spans) {
    if (s.parent >= 0) {
      children[static_cast<std::size_t>(s.parent)].emplace_back(s.start,
                                                                s.end);
    }
  }
  std::vector<double> self(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i) {
    self[i] = spans[i].duration() -
              covered_length(std::move(children[i]), spans[i].start,
                             spans[i].end);
  }
  return self;
}

/// Aggregate form of the same subtraction for nested span totals that carry
/// no intervals (the obs registry keeps count/total per span name): the
/// parent's total minus its children's totals. Negative when the children
/// over-cover the parent, which a caller treats as an attribution error.
inline double aggregate_self(double parent_total,
                             const std::vector<double>& child_totals) {
  double self = parent_total;
  for (const double c : child_totals) self -= c;
  return self;
}

}  // namespace perfbench
