// The benchmark's four workloads, run against turbfno's public API.
//
//   serve_small     closed loop, 64 clients, 32² grid, small FNO
//   serve_paper     closed loop, 16 clients, 64² grid, Table-I FNO shape
//   serve_open      open loop, Poisson arrivals at a fixed rate, mixed
//                   plain / ensemble / guarded sessions, 32² grid
//   hybrid_rollout  one client running core::HybridScheduler (5 FNO / 5 PDE)
//
// A run sets up once (setup_s runs from the start of main to the first
// timed request), measures for the requested seconds, then checks the
// outputs it produced. With tracing off it reports the end-to-end metrics;
// with tracing on it alternates traced and untraced units of work and
// reports the per-layer metrics.
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 30.0;
  bool trace = false;
  bool setup_only = false;  ///< set up, report setup_s and stop
  std::string trace_dir;    ///< where a traced run writes its spans
  /// When the process started (the start of main): setup_s runs from here.
  std::chrono::steady_clock::time_point started =
      std::chrono::steady_clock::now();
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

struct Outcome {
  bool correct = true;
  std::int64_t attempted = 0;
  std::int64_t failed = 0;
  std::vector<std::string> failures;  ///< one line per failed check
  std::vector<Metric> metrics;
  std::vector<std::string> report;    ///< human-readable lines for stdout
  // Provenance of this run.
  int nproc = 0;
  int pool_width = 0;
  std::string isa;
  std::string precision;
};

[[nodiscard]] const std::vector<std::string>& workload_names();

/// Runs one workload; throws std::invalid_argument for an unknown name.
[[nodiscard]] Outcome run_workload(const Options& options);

/// Sessions per second the serve_open mix sustains when every session is
/// submitted at once and drained — the capacity its fixed rate is set from.
[[nodiscard]] double measure_open_capacity(const Options& options,
                                           int sessions);

}  // namespace perfbench
