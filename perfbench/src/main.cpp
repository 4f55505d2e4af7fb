// perfbench — the turbfno benchmark program.
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1
//             [--trace-dir DIR]
//   perfbench --workload NAME --seed N --setup-only 1
//   perfbench --capacity SESSIONS [--seed N]
//
// Prints a readable report, one provenance JSON line, and as its last line
// one JSON object {"correct", "attempted", "failed", "metrics"}. Exits 0 when
// every correctness check passed, 1 when one failed, 2 on bad arguments.
// --setup-only 1 sets the workload up in this fresh process and reports only
// setup_s, so run.py can take the median of several cold set-ups.
// --capacity instead prints the sessions per second the serve_open mix
// sustains when submitted all at once (its fixed rate is a third of that).
#include <cstdio>
#include <exception>
#include <map>
#include <stdexcept>
#include <string>

#include "harness.hpp"
#include "workloads.hpp"

namespace {

int usage(const std::string& why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload NAME --seed N "
               "--seconds S --trace 0|1 [--trace-dir DIR]\n"
               "       perfbench --workload NAME --seed N --setup-only 1\n"
               "       perfbench --capacity SESSIONS [--seed N]\n",
               why.c_str());
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Options opt;  // stamps the process start for setup_s
  std::map<std::string, std::string> args;
  for (int i = 1; i < argc; i += 2) {
    const std::string key = argv[i];
    if (key.rfind("--", 0) != 0 || i + 1 >= argc) {
      return usage("expected --key value pairs, got '" + key + "'");
    }
    args[key.substr(2)] = argv[i + 1];
  }
  for (const auto& [key, value] : args) {
    static const char* const kKnown[] = {"workload",  "seed",
                                         "seconds",   "trace",
                                         "trace-dir", "setup-only",
                                         "capacity"};
    bool known = false;
    for (const char* k : kKnown) known = known || key == k;
    if (!known) return usage("unknown flag --" + key);
  }
  try {
    // Absent flags keep the Options defaults.
    auto has = [&](const std::string& k) { return args.count(k) > 0; };
    if (has("seed")) opt.seed = std::stoull(args["seed"]);
    if (has("capacity")) {
      const int sessions = std::stoi(args["capacity"]);
      if (sessions < 1) return usage("--capacity must be >= 1");
      std::printf("serve_open capacity: %.3f sessions/s\n",
                  perfbench::measure_open_capacity(opt, sessions));
      return 0;
    }
    if (has("workload")) opt.workload = args["workload"];
    if (has("seconds")) opt.seconds = std::stod(args["seconds"]);
    if (has("trace")) opt.trace = std::stoi(args["trace"]) != 0;
    if (has("setup-only")) opt.setup_only = std::stoi(args["setup-only"]) != 0;
    if (has("trace-dir")) opt.trace_dir = args["trace-dir"];
  } catch (const std::exception& e) {
    return usage(std::string("bad argument: ") + e.what());
  }
  if (!(opt.seconds > 0.0) || opt.seconds > 600.0) {
    return usage("--seconds must be in (0, 600]");
  }

  perfbench::Outcome out;
  try {
    out = perfbench::run_workload(opt);
  } catch (const std::invalid_argument& e) {
    return usage(e.what());
  } catch (const std::exception& e) {
    // A thrown session takes the run down: report it as failed.
    out.correct = false;
    out.attempted += 1;
    out.failed += 1;
    out.failures.push_back(std::string("threw: ") + e.what());
  }

  for (const std::string& line : out.report) std::printf("%s\n", line.c_str());
  for (const std::string& f : out.failures) {
    std::printf("CHECK FAILED: %s\n", f.c_str());
  }
  for (const perfbench::Metric& m : out.metrics) {
    std::printf("%-28s %16s %s\n", m.name.c_str(),
                perfbench::json_number(m.value).c_str(), m.unit.c_str());
  }
  using perfbench::json_number;
  using perfbench::json_quote;
  std::string provenance = "{\"provenance\": {\"workload\": ";
  provenance += json_quote(opt.workload);
  provenance += ", \"seed\": " + std::to_string(opt.seed);
  provenance += ", \"trace\": " + std::to_string(opt.trace ? 1 : 0);
  provenance += ", \"nproc\": " + std::to_string(out.nproc);
  provenance += ", \"pool_width\": " + std::to_string(out.pool_width);
  provenance += ", \"isa\": " + json_quote(out.isa);
  provenance += ", \"precision\": " + json_quote(out.precision) + "}}";
  std::printf("%s\n", provenance.c_str());

  std::string metrics;
  for (const perfbench::Metric& m : out.metrics) {
    if (!metrics.empty()) metrics += ", ";
    metrics += json_quote(m.name);
    metrics += ": {\"value\": ";
    metrics += json_number(m.value);
    metrics += ", \"unit\": ";
    metrics += json_quote(m.unit);
    metrics += "}";
  }
  std::printf(
      "{\"correct\": %s, \"attempted\": %lld, \"failed\": %lld, "
      "\"metrics\": {%s}}\n",
      out.correct ? "true" : "false", static_cast<long long>(out.attempted),
      static_cast<long long>(out.failed), metrics.c_str());
  std::fflush(stdout);
  return out.correct ? 0 : 1;
}
