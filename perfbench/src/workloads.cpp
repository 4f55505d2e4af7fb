#include "workloads.hpp"

#include <sched.h>

#include <cstdio>
#include <cstring>
#include <fstream>
#include <limits>
#include <map>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <thread>
#include <utility>

#include "analysis/stats.hpp"
#include "core/ensemble.hpp"
#include "core/fno_propagator.hpp"
#include "core/hybrid.hpp"
#include "core/metrics.hpp"
#include "core/pde_propagator.hpp"
#include "core/rollout_api.hpp"
#include "core/rollout_guard.hpp"
#include "harness.hpp"
#include "lbm/initializer.hpp"
#include "ns/solver.hpp"
#include "obs/obs.hpp"
#include "serve/server.hpp"
#include "util/isa.hpp"
#include "util/precision.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"

namespace perfbench {
namespace {

using namespace turb;

constexpr double kDtSnap = 0.01;
/// Thread-pool width. One worker, not one per vCPU: on a shared 4-vCPU
/// host, runs at width 2 to 4 lose 4-21% of CPU time to hypervisor steal in
/// some minutes and not others, and every parallel region waits for the
/// stolen vCPU, so throughput swung up to 5x between runs minutes apart
/// (serve_paper 170-528 snapshots/s at width 4). At width 1 steal stayed
/// within 2%; what remains is the host's own speed drift.
constexpr int kPoolWidth = 1;
constexpr double kInf = std::numeric_limits<double>::infinity();
/// serve_open's fixed arrival rate (sessions per second): about a third of
/// the 17-19 sessions/s its mix sustains at pool width 1 on a 4-vCPU host
/// (`perfbench --capacity 150`), so a 2x slow phase stays below capacity.
constexpr double kOpenRate = 6.0;
/// serve_open's session latency limit (serve.over_limit_frac).
constexpr double kLatencyLimitMs = 1000.0;

/// Closed-loop serving: the horizons of the two sessions each client runs,
/// one after the other, in one block. Clients take the plans in turn, so
/// sessions of 16, 32 and 48 snapshots finish in different rounds and p50
/// and p90 fall on different session lengths, while every client stays busy
/// for the same 64 snapshots and every round batches every client.
constexpr index_t kClientPlans[3][2] = {{16, 48}, {48, 16}, {32, 32}};
/// hybrid_rollout: rollout horizons, taken in turn.
constexpr index_t kHybridHorizons[3] = {10, 20, 30};

// ---------------------------------------------------------------------------
// Workload shapes
// ---------------------------------------------------------------------------

enum class Kind { closed_serve, open_serve, hybrid };

struct Spec {
  std::string name;
  Kind kind = Kind::closed_serve;
  bool paper_model = false;
  index_t grid = 32;
  index_t clients = 1;  ///< closed loops: logical clients
  index_t seed_pool = 1;
  index_t block = 1;    ///< hybrid: rollouts per measured block
};

const std::vector<Spec>& specs() {
  static const std::vector<Spec> all = {
      {"serve_small", Kind::closed_serve, false, 32, 64, 64, 1},
      {"serve_paper", Kind::closed_serve, true, 64, 16, 16, 1},
      {"serve_open", Kind::open_serve, false, 32, 0, 32, 1},
      // Three turns of kHybridHorizons, so every block does the same work.
      {"hybrid_rollout", Kind::hybrid, true, 64, 1, 8, 9},
  };
  return all;
}

/// bench_perf_serve's small model.
fno::FnoConfig small_model() {
  fno::FnoConfig cfg;
  cfg.in_channels = 4;
  cfg.out_channels = 2;
  cfg.width = 8;
  cfg.n_layers = 2;
  cfg.n_modes = {8, 8};
  cfg.lifting_channels = 16;
  cfg.projection_channels = 16;
  return cfg;
}

/// The paper's Table-I 2-D FNO shape (bench_perf_infer).
fno::FnoConfig paper_model() {
  fno::FnoConfig cfg;
  cfg.in_channels = 10;
  cfg.out_channels = 5;
  cfg.width = 12;
  cfg.n_layers = 4;
  cfg.n_modes = {12, 12};
  cfg.lifting_channels = 64;
  cfg.projection_channels = 64;
  return cfg;
}

/// Derives the generator seed of input `index` from the workload seed.
std::uint64_t input_key(std::uint64_t seed, std::uint64_t index) {
  SplitMix mix(seed * 0x9E3779B97F4A7C15ull + index);
  return mix.next();
}

/// Seed history of `n` random-vortex snapshots, `kDtSnap` apart.
core::History make_history(index_t grid, index_t n, std::uint64_t key) {
  SplitMix mix(key);
  core::History history;
  for (index_t i = 0; i < n; ++i) {
    Rng rng(mix.next());
    lbm::VelocityField field =
        lbm::random_vortex_velocity(grid, grid, 4.0, 1.0, rng);
    core::FieldSnapshot snap;
    snap.t = kDtSnap * static_cast<double>(i);
    snap.u1 = std::move(field.u1);
    snap.u2 = std::move(field.u2);
    history.push_back(std::move(snap));
  }
  return history;
}

bool same_bits(const TensorD& a, const TensorD& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(),
                     static_cast<std::size_t>(a.size()) * sizeof(double)) ==
             0;
}

/// Bitwise equality of two rollouts: times, both velocity components of
/// every snapshot, and which propagator produced each one.
bool same_bits(const core::RolloutResult& a, const core::RolloutResult& b) {
  if (a.trajectory.size() != b.trajectory.size() || a.producer != b.producer) {
    return false;
  }
  for (std::size_t k = 0; k < a.trajectory.size(); ++k) {
    const core::FieldSnapshot& sa = a.trajectory[k];
    const core::FieldSnapshot& sb = b.trajectory[k];
    if (std::memcmp(&sa.t, &sb.t, sizeof(double)) != 0 ||
        !same_bits(sa.u1, sb.u1) || !same_bits(sa.u2, sb.u2)) {
      return false;
    }
  }
  return true;
}

// ---------------------------------------------------------------------------
// obs registry reads
// ---------------------------------------------------------------------------

using Counts = std::map<std::string, std::int64_t>;

const std::vector<std::string>& counter_names() {
  static const std::vector<std::string> names = {
      "serve/batches",         "serve/batched_streams",
      "serve/snapshots",       "serve/engine_pool_misses",
      "serve/ensemble_rounds", "serve/ensemble_guard_trips",
      "infer/forward_calls",   "infer/replans",
      "infer/steady_state_allocs",
      "fft/lines_total",       "fft/batched_lines",
      "fft/pruned_lines_skipped",
      "tensor/gemm_calls",     "tensor/gemm_flops",
      "ns/steps",              "robust/guard_trips",
      "robust/fallback_snapshots",
      "hybrid/fno_snapshots",  "hybrid/pde_snapshots",
  };
  return names;
}

/// Counters that must repeat exactly from one unit of closed-loop work to
/// the next (the exact-count contract).
const std::vector<std::string>& exact_counter_names() {
  static const std::vector<std::string> names = {
      "serve/batches",     "serve/snapshots",   "infer/forward_calls",
      "fft/lines_total",   "fft/batched_lines", "fft/pruned_lines_skipped",
      "tensor/gemm_calls", "tensor/gemm_flops", "ns/steps",
      "robust/guard_trips",
  };
  return names;
}

Counts read_counts() {
  Counts c;
  for (const std::string& name : counter_names()) {
    c[name] = obs::counter(name).value();
  }
  return c;
}

Counts minus(const Counts& after, const Counts& before) {
  Counts d;
  for (const auto& [name, v] : after) d[name] = v - before.at(name);
  return d;
}

struct SpanStat {
  double total = 0.0;
  std::int64_t count = 0;
};

const std::vector<std::string>& span_names() {
  static const std::vector<std::string> names = {
      "serve/round",     "serve/batch",         "nn/infer_forward",
      "nn/infer_lift",   "nn/infer_spectral",   "nn/infer_project",
      "fft/r2c",         "fft/c2r",             "ns/step",
      "hybrid/fno_window", "hybrid/pde_window",
  };
  return names;
}

std::map<std::string, SpanStat> read_spans() {
  std::map<std::string, SpanStat> s;
  for (const std::string& name : span_names()) {
    obs::TimerStat& t = obs::timer(name);
    s[name] = {t.total_seconds(), t.count()};
  }
  return s;
}

double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      std::istringstream fields(line.substr(6));
      double kb = 0.0;
      fields >> kb;
      return kb / 1024.0;
    }
  }
  return std::numeric_limits<double>::quiet_NaN();
}

int available_cpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof set, &set) == 0) return CPU_COUNT(&set);
  return static_cast<int>(std::thread::hardware_concurrency());
}

// ---------------------------------------------------------------------------
// Checks
// ---------------------------------------------------------------------------

/// Every correctness check of a run: each one is an attempted operation,
/// and each failure fails the run.
struct Checks {
  Outcome* out;
  void expect(bool ok, const std::string& what) {
    out->attempted += 1;
    if (!ok) {
      out->failed += 1;
      out->correct = false;
      out->failures.push_back(what);
    }
  }
};

// ---------------------------------------------------------------------------
// Set-up
// ---------------------------------------------------------------------------

/// Everything a workload needs before its first timed request. Members are
/// declared in dependency order so the server and scheduler, which point
/// at the propagators, are destroyed first.
struct Env {
  fno::FnoConfig cfg;
  std::unique_ptr<fno::Fno> model;
  std::unique_ptr<core::FnoPropagator> fno;
  std::unique_ptr<core::PdePropagator> pde;
  std::unique_ptr<serve::RolloutServer> server;
  std::unique_ptr<core::HybridScheduler> hybrid;
  std::vector<core::History> seeds;
  core::GuardConfig guard;  ///< serve_open's guarded sessions
  Counts warmup;            ///< counter deltas of the warm-up round
};

serve::ServeConfig serve_config() {
  serve::ServeConfig sc;
  sc.max_sessions = 256;
  sc.queue_capacity = 1024;
  sc.batch_window = 16;
  sc.precision = util::Precision::kFp32;
  return sc;
}

core::RolloutRequest plain_request(const core::History& seed, index_t steps) {
  core::RolloutRequest request;
  request.seed = seed;
  request.steps = steps;
  return request;
}

void submit_and_drain(serve::RolloutServer& server,
                      std::vector<core::RolloutRequest> requests) {
  std::vector<serve::SessionId> ids;
  for (core::RolloutRequest& r : requests) {
    const serve::Admission a = server.submit(std::move(r));
    if (!a.admitted) throw std::runtime_error("warm-up refused: " + a.reason);
    ids.push_back(a.id);
  }
  server.drain();
  for (const serve::SessionId id : ids) (void)server.take(id);
}

std::unique_ptr<Env> set_up(const Spec& spec, const Options& opt) {
  auto env = std::make_unique<Env>();
  env->cfg = spec.paper_model ? paper_model() : small_model();
  Rng weights(3);
  env->model = std::make_unique<fno::Fno>(env->cfg, weights);
  env->fno = std::make_unique<core::FnoPropagator>(
      *env->model, analysis::Normalizer(0.0, 1.0), kDtSnap);
  if (spec.kind != Kind::closed_serve) {
    ns::NsConfig nc;
    nc.n = spec.grid;
    nc.dt = kDtSnap / 10.0;
    env->pde = std::make_unique<core::PdePropagator>(
        std::make_unique<ns::SpectralNsSolver>(nc), kDtSnap);
  }
  for (index_t i = 0; i < spec.seed_pool; ++i) {
    env->seeds.push_back(make_history(spec.grid, env->cfg.in_channels,
                                      input_key(opt.seed, i)));
  }

  const Counts before = read_counts();
  if (spec.kind == Kind::hybrid) {
    core::HybridConfig hc;
    hc.fno_snapshots = 5;
    hc.pde_snapshots = 5;
    env->hybrid =
        std::make_unique<core::HybridScheduler>(*env->fno, *env->pde, hc);
    (void)env->hybrid->run(env->seeds[0], 6);
  } else {
    env->server = std::make_unique<serve::RolloutServer>(
        *env->fno, env->pde.get(), serve_config());
    if (spec.kind == Kind::closed_serve) {
      // One round of one-snapshot sessions per client creates the engine
      // bucket every timed round uses.
      std::vector<core::RolloutRequest> warm;
      for (index_t c = 0; c < spec.clients; ++c) {
        warm.push_back(plain_request(env->seeds[c], 1));
      }
      submit_and_drain(*env->server, std::move(warm));
    } else {
      // Open-loop rounds batch any number of streams up to the window, so
      // warm every bucket width, the ensemble path and the PDE fallback.
      double energy = kInf;
      for (const core::History& h : env->seeds) {
        energy = std::min(energy,
                          core::compute_metrics(h.back()).kinetic_energy);
      }
      env->guard.enabled = true;
      env->guard.energy_max = 1e-4 * energy;
      for (index_t k = 1; k <= serve_config().batch_window; ++k) {
        std::vector<core::RolloutRequest> warm;
        for (index_t i = 0; i < k; ++i) {
          warm.push_back(plain_request(env->seeds[i % spec.seed_pool], 1));
        }
        submit_and_drain(*env->server, std::move(warm));
      }
      std::vector<core::RolloutRequest> warm;
      warm.push_back(plain_request(env->seeds[0], 1));
      warm.back().guard = env->guard;
      warm.push_back(plain_request(env->seeds[1], 1));
      warm.back().ensemble_k = 4;
      submit_and_drain(*env->server, std::move(warm));
    }
  }
  env->warmup = minus(read_counts(), before);
  return env;
}

// ---------------------------------------------------------------------------
// Measurement records
// ---------------------------------------------------------------------------

/// One measured unit of closed-loop work: one session per client (serving)
/// or `block` rollouts (hybrid).
struct Block {
  bool traced = false;
  double wall = 0.0;
  std::int64_t snapshots = 0;
  std::vector<double> latencies_ms;
  Counts counts;
};

/// Raw samples a run collects, shared by the three loop shapes.
struct Samples {
  std::vector<Block> blocks;
  std::vector<double> round_ms;           ///< every step() call
  std::vector<double> submit_us;          ///< every submit() call
  std::vector<double> queue_wait_ms;      ///< traced rounds only
  std::vector<double> gen_lag_ms;         ///< open loop only
  double traced_step_s = 0.0;             ///< step()/rollout time, traced
  std::int64_t traced_produced = 0;       ///< snapshots produced, traced
  std::int64_t traced_guard_checks = 0;
  std::int64_t traced_ns_steps = 0;       ///< RK4 steps, traced
  double untraced_step_s = 0.0;           ///< open loop overhead baseline
  std::int64_t untraced_produced = 0;
  std::int64_t fno_accepted = 0;          ///< FNO snapshots kept in results
  std::int64_t sessions = 0;
  std::int64_t delivered = 0;             ///< snapshots delivered
  std::vector<core::FieldSnapshot> replay;  ///< sample for diagnostics probes
  core::GuardConfig probe_guard;            ///< guard the probes replay
  std::vector<double> metrics_probe_s;      ///< per-call compute_metrics
  std::vector<double> guard_probe_s;        ///< per-call RolloutGuard::check
  double traced_diag_s = 0.0;  ///< estimated diagnostics time, traced
  SpanLog log;
};

/// Diagnostics have no span, so the traced run replays them: time
/// core::compute_metrics and a fresh RolloutGuard::check (a serving stream
/// checks once and trips) over up to 64 snapshots the workload produced.
/// Probes run between traced units, in the same host-speed phase as the
/// work they stand for; returns the per-call seconds of each.
std::pair<double, double> probe_diagnostics(Samples& s) {
  if (s.replay.empty()) return {0.0, 0.0};
  const std::size_t n = s.replay.size();
  std::vector<core::SnapshotMetrics> m(n);
  const Clock::time_point a = Clock::now();
  for (std::size_t i = 0; i < n; ++i) m[i] = core::compute_metrics(s.replay[i]);
  const Clock::time_point b = Clock::now();
  for (std::size_t i = 0; i < n; ++i) {
    core::RolloutGuard g(s.probe_guard);
    (void)g.check(s.replay[i], m[i]);
  }
  const Clock::time_point c = Clock::now();
  const auto calls = static_cast<double>(n);
  s.metrics_probe_s.push_back(seconds_between(a, b) / calls);
  s.guard_probe_s.push_back(seconds_between(b, c) / calls);
  return {s.metrics_probe_s.back(), s.guard_probe_s.back()};
}

/// Keeps the first 64 produced snapshots for the diagnostics probes.
void keep_for_replay(Samples& s, const core::RolloutResult& r) {
  for (const core::FieldSnapshot& snap : r.trajectory) {
    if (s.replay.size() >= 64) return;
    s.replay.push_back(snap);
  }
}

std::int64_t fno_snapshots_in(const core::RolloutResult& r) {
  std::int64_t n = 0;
  for (const std::string& p : r.producer) n += p == "fno" ? 1 : 0;
  return n * r.ensemble_members;
}

void check_exact_counts(const std::vector<Block>& blocks, Checks& checks) {
  for (std::size_t b = 1; b < blocks.size(); ++b) {
    for (const std::string& name : exact_counter_names()) {
      const std::int64_t first = blocks[0].counts.at(name);
      const std::int64_t here = blocks[b].counts.at(name);
      checks.expect(first == here, "count " + name + " is " +
                                       std::to_string(here) + " in block " +
                                       std::to_string(b) + " but " +
                                       std::to_string(first) + " in block 0");
    }
  }
}

// ---------------------------------------------------------------------------
// Closed-loop serving (serve_small, serve_paper)
// ---------------------------------------------------------------------------

void run_closed_serve(const Spec& spec, const Options& opt, Env& env,
                      Samples& s, Checks& checks) {
  serve::RolloutServer& server = *env.server;
  constexpr index_t kSampleStride = 8;  // every 8th client is verified
  constexpr int kLegs = 2;              // sessions per client and block
  auto horizon = [](index_t client, int leg) {
    return kClientPlans[client % 3][leg];
  };
  // Keyed by (client, leg).
  std::map<std::pair<index_t, int>, core::RolloutResult> first_seen;

  const Clock::time_point deadline =
      Clock::now() + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(opt.seconds));
  for (int epoch = 0; epoch < 2 || Clock::now() < deadline; ++epoch) {
    const bool traced = opt.trace && epoch % 2 == 1;
    // Clients build their requests before they start the clock.
    std::vector<std::vector<core::RolloutRequest>> requests(
        static_cast<std::size_t>(spec.clients));
    for (index_t c = 0; c < spec.clients; ++c) {
      for (int leg = 0; leg < kLegs; ++leg) {
        requests[c].push_back(plain_request(env.seeds[c], horizon(c, leg)));
      }
    }
    obs::set_enabled(traced);
    Block block;
    block.traced = traced;
    const Counts before = read_counts();
    const double t0 = s.log.now();

    struct Live {
      index_t client = 0;
      int leg = 0;
      double submitted = 0.0;
      int span = -1;
    };
    std::map<serve::SessionId, Live> live;
    std::vector<serve::SessionId> waiting;  // not yet seen active
    std::map<std::pair<index_t, int>, core::RolloutResult> sampled;
    auto submit = [&](index_t c, int leg) {
      const double a = s.log.now();
      const serve::Admission adm = server.submit(std::move(requests[c][leg]));
      const double b = s.log.now();
      s.submit_us.push_back((b - a) * 1e6);
      s.sessions += 1;
      if (!adm.admitted) {
        checks.expect(false, "session refused: " + adm.reason);
        block.latencies_ms.push_back(kInf);
        return;
      }
      Live l{c, leg, a};
      if (traced) {
        l.span = s.log.add("session", adm.id, -1, a, a);
        s.log.add("submit", adm.id, l.span, a, b);
        waiting.push_back(adm.id);
      }
      live[adm.id] = l;
    };
    for (index_t c = 0; c < spec.clients; ++c) submit(c, 0);
    for (;;) {
      const double a = s.log.now();
      server.step();
      const double b = s.log.now();
      s.round_ms.push_back((b - a) * 1e3);
      if (traced) {
        s.log.add("round", -1, -1, a, b);
        s.traced_step_s += b - a;
        std::vector<serve::SessionId> still;
        for (const serve::SessionId id : waiting) {
          if (server.snapshot(id).state == serve::SessionState::queued) {
            still.push_back(id);
          } else {
            s.queue_wait_ms.push_back((b - live.at(id).submitted) * 1e3);
          }
        }
        waiting = std::move(still);
      }
      for (const serve::SessionId id : server.finished()) {
        const double ta = s.log.now();
        core::RolloutResult result = server.take(id);
        const double tb = s.log.now();
        const Live l = live.at(id);
        live.erase(id);
        block.latencies_ms.push_back((tb - l.submitted) * 1e3);
        block.snapshots += static_cast<std::int64_t>(result.trajectory.size());
        s.fno_accepted += fno_snapshots_in(result);
        if (traced) {
          s.log.add("take", id, l.span, ta, tb);
          s.log.set_end(l.span, tb);
        }
        if (l.client % kSampleStride == 0) {
          sampled[{l.client, l.leg}] = std::move(result);
        }
        // The client submits its next session once take() has returned.
        if (l.leg + 1 < kLegs) submit(l.client, l.leg + 1);
      }
      if (live.empty()) break;
    }
    block.wall = s.log.now() - t0;
    block.counts = minus(read_counts(), before);
    obs::set_enabled(false);
    s.delivered += block.snapshots;
    if (traced) {
      const std::int64_t produced = block.counts.at("serve/snapshots");
      s.traced_produced += produced;
      s.traced_ns_steps += block.counts.at("ns/steps");
      s.traced_diag_s +=
          static_cast<double>(produced) * probe_diagnostics(s).first;
    }

    for (auto& [key, result] : sampled) {
      keep_for_replay(s, result);
      const auto it = first_seen.find(key);
      if (it == first_seen.end()) {
        first_seen.emplace(key, std::move(result));
      } else {
        checks.expect(same_bits(it->second, result),
                      "client " + std::to_string(key.first) + " session " +
                          std::to_string(key.second) + " epoch " +
                          std::to_string(epoch) +
                          " differs from its first run");
      }
    }
    s.blocks.push_back(std::move(block));
  }

  check_exact_counts(s.blocks, checks);
  for (const auto& [key, result] : first_seen) {
    const auto [c, leg] = key;
    const core::RolloutResult ref = core::run_rollout(
        *env.fno, plain_request(env.seeds[c], horizon(c, leg)));
    checks.expect(same_bits(ref, result),
                  "client " + std::to_string(c) + " session " +
                      std::to_string(leg) +
                      " served result differs from core::run_rollout");
  }
}

// ---------------------------------------------------------------------------
// Open-loop serving (serve_open)
// ---------------------------------------------------------------------------

enum class Mix { plain, ensemble, guarded };

struct Arrival {
  double due = 0.0;
  Mix mix = Mix::plain;
  index_t horizon = 32;
  index_t seed_index = 0;
};

/// The serve_open traffic: arrival times from poisson_schedule, and a mix of
/// exactly 80% plain, 15% ensemble (K = 4) and 5% guarded sessions with
/// horizons of 2 or 3 windows, dealt out in a seeded order.
std::vector<Arrival> open_schedule(double rate, double seconds,
                                   std::uint64_t seed, index_t seed_pool) {
  const std::vector<double> due =
      poisson_schedule(rate, seconds, input_key(seed, 1001));
  const std::size_t n = due.size();
  std::vector<Arrival> arrivals(n);
  const auto n_guarded = static_cast<std::size_t>(std::llround(0.05 * n));
  const auto n_ensemble = static_cast<std::size_t>(std::llround(0.15 * n));
  for (std::size_t i = 0; i < n; ++i) {
    arrivals[i].mix = i < n_guarded                ? Mix::guarded
                      : i < n_guarded + n_ensemble ? Mix::ensemble
                                                   : Mix::plain;
    arrivals[i].horizon = i % 2 == 0 ? 32 : 48;
  }
  SplitMix rng(input_key(seed, 1002));
  for (std::size_t i = n; i > 1; --i) {  // Fisher–Yates
    std::swap(arrivals[i - 1], arrivals[rng.next() % i]);
  }
  for (std::size_t i = 0; i < n; ++i) {
    arrivals[i].due = due[i];
    arrivals[i].seed_index = static_cast<index_t>(rng.next() % seed_pool);
  }
  return arrivals;
}

core::RolloutRequest open_request(const Env& env, const Arrival& a,
                                  std::size_t index) {
  core::RolloutRequest r = plain_request(env.seeds[a.seed_index], a.horizon);
  r.tag = std::to_string(index);
  if (a.mix == Mix::guarded) r.guard = env.guard;
  if (a.mix == Mix::ensemble) {
    r.ensemble_k = 4;
    r.ensemble_seed = 0xe5ull + index;
  }
  return r;
}

void run_open_serve(const Spec& spec, const Options& opt, Env& env,
                    Samples& s, Checks& checks, double* wall) {
  serve::RolloutServer& server = *env.server;
  const std::vector<Arrival> arrivals =
      open_schedule(kOpenRate, opt.seconds, opt.seed, spec.seed_pool);
  constexpr int kKeptPerKind = 2;  // sessions per kind verified afterwards
  std::map<std::size_t, core::RolloutResult> kept;
  int kept_of_mix[3] = {0, 0, 0};

  struct Live {
    std::size_t index;
    double submitted = 0.0;
    int span = -1;
  };
  std::map<serve::SessionId, Live> live;
  std::vector<serve::SessionId> waiting;
  std::vector<double> latencies;
  std::int64_t admitted = 0, completed = 0, refused = 0;
  std::int64_t expected_snapshots = 0, delivered = 0, guarded = 0;
  for (const Arrival& a : arrivals) {
    expected_snapshots += a.horizon;
    guarded += a.mix == Mix::guarded ? 1 : 0;
  }

  const Counts before = read_counts();
  const double t0 = s.log.now();
  // Past this, sessions still running count as failed (infinitely late).
  const double give_up = opt.seconds + 60.0;
  std::size_t next = 0;
  std::int64_t round = 0;
  double last_probe = t0;
  for (;;) {
    const double now = s.log.now() - t0;
    if (now > give_up) break;
    while (next < arrivals.size() && arrivals[next].due <= now) {
      const Arrival& a = arrivals[next];
      core::RolloutRequest r = open_request(env, a, next);
      int& kept_count = kept_of_mix[static_cast<int>(a.mix)];
      const bool keep = kept_count < kKeptPerKind;
      if (keep && a.mix == Mix::ensemble) r.ensemble_keep_members = true;
      const double sa = s.log.now();
      const serve::Admission adm = server.submit(std::move(r));
      const double sb = s.log.now();
      s.submit_us.push_back((sb - sa) * 1e6);
      s.gen_lag_ms.push_back(lateness(a.due, sa - t0) * 1e3);
      s.sessions += 1;
      if (!adm.admitted) {
        refused += 1;
        latencies.push_back(kInf);
        checks.expect(false, "session refused: " + adm.reason);
      } else {
        admitted += 1;
        Live l{next, sa};
        if (opt.trace) {
          l.span = s.log.add("session", adm.id, -1, t0 + a.due, t0 + a.due);
          s.log.add("submit", adm.id, l.span, sa, sb);
          waiting.push_back(adm.id);
        }
        live[adm.id] = l;
        if (keep) {
          kept_count += 1;
          kept[next];  // placeholder, filled at take
        }
      }
      ++next;
    }
    if (live.empty()) {
      if (next >= arrivals.size()) break;
      const double wait = arrivals[next].due - (s.log.now() - t0);
      if (wait > 0) {
        std::this_thread::sleep_for(std::chrono::duration<double>(wait));
      }
      continue;
    }
    // Tracing alternates by round; the untraced rounds are the baseline
    // for the tracing overhead.
    const bool traced = opt.trace && round % 2 == 1;
    obs::set_enabled(traced);
    const Counts rb = read_counts();
    const double ra = s.log.now();
    server.step();
    const double re = s.log.now();
    obs::set_enabled(false);
    const Counts rd = minus(read_counts(), rb);
    s.round_ms.push_back((re - ra) * 1e3);
    if (traced) {
      s.log.add("round", -1, -1, ra, re);
      s.traced_step_s += re - ra;
      s.traced_produced += rd.at("serve/snapshots");
      // Guarded sessions trip on the first snapshot they check (verified
      // below), so each trip is exactly one guard check.
      s.traced_guard_checks += rd.at("robust/guard_trips");
      s.traced_ns_steps += rd.at("ns/steps");
      if (re - last_probe > 0.5) {
        probe_diagnostics(s);
        last_probe = s.log.now();
      }
      std::vector<serve::SessionId> still;
      for (const serve::SessionId id : waiting) {
        if (server.snapshot(id).state == serve::SessionState::queued) {
          still.push_back(id);
        } else {
          s.queue_wait_ms.push_back((re - live.at(id).submitted) * 1e3);
        }
      }
      waiting = std::move(still);
    } else if (opt.trace) {
      s.untraced_step_s += re - ra;
      s.untraced_produced += rd.at("serve/snapshots");
    }
    ++round;
    for (const serve::SessionId id : server.finished()) {
      const double ta = s.log.now();
      core::RolloutResult result = server.take(id);
      const double tb = s.log.now();
      const Live l = live.at(id);
      live.erase(id);
      const Arrival& a = arrivals[l.index];
      latencies.push_back((tb - (t0 + a.due)) * 1e3);
      completed += 1;
      delivered += static_cast<std::int64_t>(result.trajectory.size());
      s.fno_accepted += fno_snapshots_in(result);
      if (opt.trace) {
        s.log.add("take", id, l.span, ta, tb);
        s.log.set_end(l.span, tb);
      }
      if (a.mix == Mix::guarded) {
        const bool designed =
            result.guard_trips() == 1 &&
            result.guard_events[0].trajectory_index == 0 &&
            result.guard_events[0].reason == core::GuardTrip::energy_high &&
            result.guard_events[0].t ==
                env.seeds[a.seed_index].back().t + kDtSnap;
        bool fallback = !result.producer.empty();
        for (const std::string& p : result.producer) {
          fallback = fallback && p == "pde_fallback";
        }
        checks.expect(designed && fallback,
                      "guarded session " + std::to_string(l.index) +
                          " did not trip on its first snapshot and finish "
                          "on the PDE fallback");
      }
      if (a.mix == Mix::plain) keep_for_replay(s, result);
      const auto k = kept.find(l.index);
      if (k != kept.end()) k->second = std::move(result);
    }
  }
  *wall = s.log.now() - t0;
  obs::set_enabled(false);
  const Counts d = minus(read_counts(), before);
  if (opt.trace) {
    if (s.metrics_probe_s.empty()) probe_diagnostics(s);
    s.traced_diag_s =
        static_cast<double>(s.traced_produced) * median(s.metrics_probe_s) +
        static_cast<double>(s.traced_guard_checks) * median(s.guard_probe_s);
  }

  const std::int64_t unfinished = static_cast<std::int64_t>(live.size());
  for (std::int64_t i = 0; i < unfinished; ++i) latencies.push_back(kInf);
  checks.expect(unfinished == 0, std::to_string(unfinished) +
                                     " sessions unfinished after " +
                                     std::to_string(give_up) + " s");
  checks.expect(admitted == completed + unfinished && refused == 0,
                "admitted " + std::to_string(admitted) + " != completed " +
                    std::to_string(completed) + " + failed " +
                    std::to_string(unfinished));
  checks.expect(completed == static_cast<std::int64_t>(arrivals.size()),
                "completed " + std::to_string(completed) + " of " +
                    std::to_string(arrivals.size()) + " scheduled sessions");
  checks.expect(delivered == expected_snapshots,
                "delivered " + std::to_string(delivered) + " snapshots, " +
                    "scheduled " + std::to_string(expected_snapshots));
  checks.expect(d.at("robust/guard_trips") == guarded &&
                    d.at("serve/ensemble_guard_trips") == 0,
                "guard trips " + std::to_string(d.at("robust/guard_trips")) +
                    " for " + std::to_string(guarded) + " guarded sessions");

  Block block;
  block.wall = *wall;
  block.snapshots = delivered;
  block.latencies_ms = std::move(latencies);
  block.counts = d;
  s.blocks.push_back(std::move(block));
  s.delivered = delivered;

  // Verify the kept sessions against synchronous rollouts.
  for (auto& [index, result] : kept) {
    const Arrival& a = arrivals[index];
    const core::RolloutRequest request = open_request(env, a, index);
    if (a.mix == Mix::ensemble) {
      bool ok = static_cast<index_t>(result.member_results.size()) == 4;
      for (index_t m = 0; ok && m < 4; ++m) {
        const core::RolloutResult solo = core::run_rollout(
            *env.fno, core::ensemble_member_request(request, m));
        ok = same_bits(solo, result.member_results[m]);
      }
      checks.expect(ok, "ensemble session " + std::to_string(index) +
                            " members differ from their solo rollouts");
    } else {
      const core::RolloutResult ref =
          core::run_rollout(*env.fno, request, env.pde.get());
      checks.expect(same_bits(ref, result),
                    "session " + std::to_string(index) +
                        " differs from core::run_rollout");
    }
  }
}

// ---------------------------------------------------------------------------
// Hybrid rollouts (hybrid_rollout)
// ---------------------------------------------------------------------------

void run_hybrid(const Spec& spec, const Options& opt, Env& env, Samples& s,
                Checks& checks) {
  // Keyed by (seed index, horizon).
  std::map<std::pair<index_t, index_t>, core::RolloutResult> first_seen;
  const Clock::time_point deadline =
      Clock::now() + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(opt.seconds));
  std::int64_t rollout = 0;
  for (int b = 0; b < 2 || Clock::now() < deadline; ++b) {
    const bool traced = opt.trace && b % 2 == 1;
    obs::set_enabled(traced);
    Block block;
    block.traced = traced;
    const Counts before = read_counts();
    const double t0 = s.log.now();
    std::vector<std::pair<std::pair<index_t, index_t>, core::RolloutResult>>
        results;
    for (index_t r = 0; r < spec.block; ++r, ++rollout) {
      // Each rollout starts from the next seed of the pool and runs the next
      // horizon in turn.
      const auto seed_index = static_cast<index_t>(rollout % spec.seed_pool);
      const index_t horizon = kHybridHorizons[rollout % 3];
      const double a = s.log.now();
      core::RolloutResult result =
          env.hybrid->run(env.seeds[seed_index], horizon);
      const double e = s.log.now();
      block.latencies_ms.push_back((e - a) * 1e3);
      block.snapshots += static_cast<std::int64_t>(result.trajectory.size());
      s.fno_accepted += fno_snapshots_in(result);
      if (traced) {
        s.log.add("rollout", rollout, -1, a, e);
        s.traced_step_s += e - a;
      }
      results.push_back({{seed_index, horizon}, std::move(result)});
    }
    block.wall = s.log.now() - t0;
    block.counts = minus(read_counts(), before);
    obs::set_enabled(false);
    s.sessions += spec.block;
    if (traced) {
      s.traced_ns_steps += block.counts.at("ns/steps");
      s.traced_diag_s +=
          static_cast<double>(block.snapshots) * probe_diagnostics(s).first;
    }
    s.delivered += block.snapshots;

    for (auto& [key, result] : results) {
      const auto [seed_index, horizon] = key;
      bool alternates = static_cast<index_t>(result.producer.size()) == horizon;
      for (std::size_t i = 0; alternates && i < result.producer.size(); ++i) {
        alternates = result.producer[i] == ((i / 5) % 2 == 0 ? "fno" : "pde");
      }
      checks.expect(alternates, "rollout from seed " +
                                    std::to_string(seed_index) +
                                    " breaks the 5/5 FNO/PDE alternation");
      keep_for_replay(s, result);
      const auto it = first_seen.find(key);
      if (it == first_seen.end()) {
        first_seen.emplace(key, std::move(result));
      } else {
        checks.expect(same_bits(it->second, result),
                      "re-run from seed " + std::to_string(seed_index) +
                          " over " + std::to_string(horizon) +
                          " snapshots is not bitwise equal to its first run");
      }
    }
    s.blocks.push_back(std::move(block));
  }
  check_exact_counts(s.blocks, checks);
}

// ---------------------------------------------------------------------------
// Metrics
// ---------------------------------------------------------------------------

std::int64_t model_parameters(fno::Fno& model) {
  std::vector<nn::Parameter*> params;
  model.collect_parameters(params);
  std::int64_t n = 0;
  for (const nn::Parameter* p : params) n += p->value.size();
  return n;
}

double safe_div(double a, double b) { return b != 0.0 ? a / b : 0.0; }

struct MetricSink {
  std::vector<Metric>* out;
  void add(const std::string& name, double value, const std::string& unit) {
    out->push_back({name, value, unit});
  }
};

std::string fmt(const char* f, double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, f, v);
  return buf;
}

void end_to_end_metrics(const Spec& spec, const Samples& s, double setup_s,
                        double open_wall, double rss_mb, Outcome& out) {
  MetricSink m{&out.metrics};
  m.add("setup_s", setup_s, "s");
  std::vector<double> rate, p50, p90, pooled;
  double snapshots = 0.0;
  double wall = 0.0;
  for (const Block& b : s.blocks) {
    if (b.traced) continue;
    rate.push_back(static_cast<double>(b.snapshots) / b.wall);
    p50.push_back(percentile(b.latencies_ms, 0.50));
    p90.push_back(percentile(b.latencies_ms, 0.90));
    pooled.insert(pooled.end(), b.latencies_ms.begin(), b.latencies_ms.end());
    snapshots += static_cast<double>(b.snapshots);
    wall += b.wall;
  }
  if (spec.kind == Kind::open_serve) {
    // One long block: delivered snapshots over the timed wall, latency
    // percentiles over every session of the run.
    m.add("snapshots_per_s", static_cast<double>(s.delivered) / open_wall,
          "1/s");
  } else {
    // Closed loops: the blocks' snapshots over their summed wall. The
    // host's speed drifts in phases of seconds to minutes, not in isolated
    // stalls, so the figure averages over the whole run. A median or a
    // quartile of blocks follows whichever phase holds that rank, and
    // spreads more across runs on a shared 4-vCPU host.
    m.add("snapshots_per_s", safe_div(snapshots, wall), "1/s");
  }
  // Each block's percentile, averaged over the run's blocks for the same
  // reason (one block, so the run's own percentile, for serve_open).
  m.add("session_p50_ms", mean(p50), "ms");
  m.add("session_p90_ms", mean(p90), "ms");
  m.add("peak_rss_mb", rss_mb, "MB");
  if (rate.size() > 1) {
    out.report.push_back(
        "block snapshots/s: min " + fmt("%.1f", percentile(rate, 0.0)) +
        " p25 " + fmt("%.1f", percentile(rate, 0.25)) + " median " +
        fmt("%.1f", median(rate)) + " p75 " +
        fmt("%.1f", percentile(rate, 0.75)) + " max " +
        fmt("%.1f", percentile(rate, 1.0)));
  }
  out.report.push_back(
      "sessions " + std::to_string(pooled.size()) + " in " +
      std::to_string(rate.size()) + " block(s); samples beyond pooled p90: " +
      std::to_string(samples_beyond(pooled, 0.90)));
}

struct Stage {
  std::string name;
  double seconds = 0.0;
};

constexpr const char* kResidualStage = "unattributed residual";
/// The stated residual: measured stages may over-cover step() time by at
/// most kOverCover (the replayed diagnostics are an estimate) and leave at
/// most kUnattributed of it to scheduling and bookkeeping.
constexpr double kOverCover = 0.20;
constexpr double kUnattributed = 0.20;

void per_layer_metrics(const Spec& spec, Env& env,
                       const Samples& s,
                       const std::map<std::string, SpanStat>& spans,
                       Outcome& out, Checks& checks,
                       std::vector<Stage>& stages) {
  // Counts per block for closed loops (exact by contract), totals for the
  // open loop.
  const double blocks = spec.kind == Kind::open_serve
                            ? 1.0
                            : static_cast<double>(s.blocks.size());
  Counts total;
  for (const std::string& name : counter_names()) total[name] = 0;
  for (const Block& b : s.blocks) {
    for (const auto& [name, v] : b.counts) total[name] += v;
  }
  auto per_block = [&](const std::string& name) {
    return static_cast<double>(total.at(name)) / blocks;
  };
  auto span_total = [&](const std::string& name) {
    return spans.at(name).total;
  };
  auto span_mean = [&](const std::string& name) {
    return safe_div(spans.at(name).total,
                    static_cast<double>(spans.at(name).count));
  };

  // A layer the workload never reaches reports 0.
  auto pct = [](const std::vector<double>& v, double p) {
    return v.empty() ? 0.0 : percentile(v, p);
  };

  MetricSink m{&out.metrics};
  m.add("serve.round_p50_ms", pct(s.round_ms, 0.50), "ms");
  m.add("serve.round_p90_ms", pct(s.round_ms, 0.90), "ms");
  m.add("serve.submit_p99_us", pct(s.submit_us, 0.99), "us");
  m.add("serve.queue_wait_p90_ms", pct(s.queue_wait_ms, 0.90), "ms");
  const double occupancy =
      safe_div(static_cast<double>(total.at("serve/batched_streams")),
               static_cast<double>(total.at("serve/batches")));
  m.add("serve.batch_occupancy_mean", occupancy, "count");
  m.add("serve.batches", per_block("serve/batches"), "count");
  m.add("serve.engine_pool_misses",
        static_cast<double>(env.warmup.at("serve/engine_pool_misses")),
        "count");
  m.add("serve.ensemble_rounds", per_block("serve/ensemble_rounds"), "count");
  m.add("serve.ensemble_guard_trips", per_block("serve/ensemble_guard_trips"),
        "count");

  // Stage attribution over the traced rounds (serving) or rollouts
  // (hybrid). Diagnostics have no span: their time is the probed per-call
  // cost times the calls the traced rounds made (probe_diagnostics).
  const double step = s.traced_step_s;
  const double fwd = span_total("nn/infer_forward");
  const double pde_w = span_total("hybrid/pde_window");
  const double fno_w = span_total("hybrid/fno_window");
  const double diag = s.traced_diag_s;
  double round_self = 0.0;
  double marshal = 0.0;
  if (spec.kind == Kind::hybrid) {
    const double ns = span_total("ns/step");
    marshal = fno_w - fwd;
    stages = {{"engine forward (nn/infer_forward)", fwd},
              {"FNO marshalling (hybrid/fno_window self)", marshal},
              {"ns/step", ns},
              {"PDE window other (hybrid/pde_window self)", pde_w - ns},
              {"diagnostics (core::compute_metrics, replayed)", diag}};
  } else {
    const double round = span_total("serve/round");
    const double batch = span_total("serve/batch");
    marshal = batch - fwd;
    round_self = aggregate_self(round, {batch, pde_w, fno_w, diag});
    stages = {{"engine forward (nn/infer_forward)", fwd},
              {"marshalling (serve/batch self)", marshal},
              {"PDE fallback (hybrid/pde_window)", pde_w},
              {"solo FNO windows (hybrid/fno_window)", fno_w},
              {"diagnostics + guard (replayed)", diag}};
  }
  double covered = 0.0;
  for (const Stage& st : stages) covered += st.seconds;
  // What no measured stage covers: scheduling (serve/round self time) and
  // the call overhead around it, or the hybrid loop's own bookkeeping.
  const double residual = step - covered;
  stages.push_back({kResidualStage, residual});
  const double residual_frac = safe_div(residual, step);
  checks.expect(step > 0.0 && residual_frac >= -kOverCover &&
                    residual_frac <= kUnattributed,
                "stage residual is " + fmt("%.3f", residual_frac) +
                    " of step() time, outside the stated [-" +
                    fmt("%.2f", kOverCover) + ", " +
                    fmt("%.2f", kUnattributed) + "]");

  m.add("serve.round_self_frac",
        safe_div(round_self, span_total("serve/round")), "frac");
  // Share of serve_open sessions over its latency limit (one block).
  double over = 0.0;
  if (spec.kind == Kind::open_serve) {
    const std::vector<double>& lat = s.blocks.front().latencies_ms;
    for (const double l : lat) over += l > kLatencyLimitMs ? 1.0 : 0.0;
    over = safe_div(over, static_cast<double>(lat.size()));
  }
  m.add("serve.over_limit_frac", over, "frac");

  m.add("core.metrics_us", median(s.metrics_probe_s) * 1e6, "us");
  m.add("core.guard_check_us", median(s.guard_probe_s) * 1e6, "us");
  m.add("core.diag_share", safe_div(diag, step), "frac");
  m.add("core.guard_trips", per_block("robust/guard_trips"), "count");
  m.add("core.fallback_snapshots", per_block("robust/fallback_snapshots"),
        "count");
  const double fno_produced =
      spec.kind == Kind::hybrid
          ? static_cast<double>(total.at("hybrid/fno_snapshots"))
          : static_cast<double>(total.at("serve/snapshots") -
                                total.at("robust/fallback_snapshots"));
  m.add("core.fno_useful_frac",
        safe_div(static_cast<double>(s.fno_accepted), fno_produced), "frac");
  m.add("core.hybrid_fno_window_ms", span_mean("hybrid/fno_window") * 1e3,
        "ms");
  m.add("core.hybrid_pde_window_ms", span_mean("hybrid/pde_window") * 1e3,
        "ms");

  const auto forwards =
      static_cast<double>(spans.at("nn/infer_forward").count);
  m.add("infer.forward_ms", safe_div(fwd, forwards) * 1e3, "ms");
  m.add("infer.lift_ms", safe_div(span_total("nn/infer_lift"), forwards) * 1e3,
        "ms");
  m.add("infer.spectral_ms",
        safe_div(span_total("nn/infer_spectral"), forwards) * 1e3, "ms");
  m.add("infer.project_ms",
        safe_div(span_total("nn/infer_project"), forwards) * 1e3, "ms");
  m.add("infer.forward_calls", per_block("infer/forward_calls"), "count");
  m.add("infer.replans", per_block("infer/replans"), "count");
  m.add("infer.steady_state_allocs",
        static_cast<double>(total.at("infer/steady_state_allocs")), "count");
  const double arena = static_cast<double>(
      env.server ? env.server->engine_pool().total_arena_bytes()
                 : env.fno->engine().arena_bytes());
  m.add("infer.arena_bytes", arena, "bytes");
  // Computed, not measured: input and output activations of the mean
  // forward batch plus one read of every weight, in fp32.
  const double batch_entries = env.server ? 2.0 * occupancy : 2.0;
  const double plane = static_cast<double>(spec.grid * spec.grid);
  m.add("infer.bytes_per_forward",
        4.0 * (batch_entries * plane *
                   static_cast<double>(env.cfg.in_channels +
                                       env.cfg.out_channels) +
               static_cast<double>(model_parameters(*env.model))),
        "bytes_computed");

  m.add("fft.r2c_us", span_mean("fft/r2c") * 1e6, "us");
  m.add("fft.c2r_us", span_mean("fft/c2r") * 1e6, "us");
  m.add("fft.lines_total", per_block("fft/lines_total"), "count");
  m.add("fft.batched_lines", per_block("fft/batched_lines"), "count");
  m.add("fft.pruned_lines_skipped", per_block("fft/pruned_lines_skipped"),
        "count");
  m.add("tensor.gemm_calls", per_block("tensor/gemm_calls"), "count");
  m.add("tensor.gemm_flops", per_block("tensor/gemm_flops"), "count");

  // One ns/step span covers a solver call of several RK4 steps; report the
  // time per step.
  m.add("ns.step_us",
        safe_div(span_total("ns/step"),
                 static_cast<double>(s.traced_ns_steps)) * 1e6,
        "us");
  m.add("ns.steps", per_block("ns/steps"), "count");

  double overhead = 0.0;
  if (spec.kind == Kind::open_serve) {
    overhead = safe_div(safe_div(s.traced_step_s,
                                 static_cast<double>(s.traced_produced)),
                        safe_div(s.untraced_step_s,
                                 static_cast<double>(s.untraced_produced))) -
               1.0;
  } else {
    std::vector<double> on, off;
    for (const Block& b : s.blocks) (b.traced ? on : off).push_back(b.wall);
    overhead = safe_div(median(on), median(off)) - 1.0;
  }
  m.add("obs.tracing_overhead_frac", overhead, "frac");
  m.add("bench.gen_lag_p90_ms", pct(s.gen_lag_ms, 0.90), "ms");
  m.add("bench.sessions",
        static_cast<double>(s.sessions) / blocks, "count");
  m.add("bench.snapshots", static_cast<double>(s.delivered) / blocks,
        "count");
  m.add("stage.engine_frac", safe_div(fwd, step), "frac");
  m.add("stage.marshal_frac", safe_div(marshal, step), "frac");
  m.add("stage.pde_frac", safe_div(pde_w, step), "frac");
  m.add("stage.residual_frac", residual_frac, "frac");
}

/// Writes the traced run's spans, stage table and obs registry as one JSON
/// document.
void write_trace(const Options& opt, const Samples& s,
                 const std::vector<Stage>& stages, const Outcome& out,
                 const std::string& obs_json) {
  if (opt.trace_dir.empty()) return;
  const std::string path = opt.trace_dir + "/trace-" + opt.workload + "-seed" +
                           std::to_string(opt.seed) + ".json";
  std::ofstream f(path);
  if (!f) {
    std::fprintf(stderr, "perfbench: cannot write %s\n", path.c_str());
    return;
  }
  f << "{\n\"workload\": " << json_quote(opt.workload)
    << ",\n\"seed\": " << opt.seed << ",\n\"stages_seconds\": {";
  for (std::size_t i = 0; i < stages.size(); ++i) {
    f << (i ? ", " : "") << json_quote(stages[i].name) << ": "
      << json_number(stages[i].seconds);
  }
  f << "},\n\"per_layer\": {";
  for (std::size_t i = 0; i < out.metrics.size(); ++i) {
    f << (i ? ", " : "") << json_quote(out.metrics[i].name) << ": "
      << json_number(out.metrics[i].value);
  }
  f << "},\n\"notes\": {\"infer.bytes_per_forward\": \"computed from tensor "
       "shapes, not measured\"},\n\"spans\": [";
  const std::vector<double> self = self_times(s.log.spans());
  for (std::size_t i = 0; i < s.log.spans().size(); ++i) {
    const Span& sp = s.log.spans()[i];
    f << (i ? ",\n" : "\n") << "{\"id\": " << i
      << ", \"name\": " << json_quote(sp.name) << ", \"session\": "
      << sp.session << ", \"parent\": " << sp.parent
      << ", \"start_s\": " << json_number(sp.start)
      << ", \"end_s\": " << json_number(sp.end)
      << ", \"self_s\": " << json_number(self[i]) << "}";
  }
  f << "\n],\n\"obs\": " << obs_json << "\n}\n";
}

}  // namespace

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> names = [] {
    std::vector<std::string> n;
    for (const Spec& s : specs()) n.push_back(s.name);
    return n;
  }();
  return names;
}

namespace {

const Spec& find_spec(const std::string& name) {
  for (const Spec& s : specs()) {
    if (s.name == name) return s;
  }
  throw std::invalid_argument("unknown workload '" + name + "'");
}

void fix_pool_width() {
  static const bool once = [] {
    set_global_threads(kPoolWidth);
    return true;
  }();
  (void)once;
}

}  // namespace

Outcome run_workload(const Options& opt) {
  const Spec& spec = find_spec(opt.workload);
  fix_pool_width();
  obs::set_enabled(false);
  Outcome out;
  Checks checks{&out};

  // One cold set-up per process: setup_s runs from the start of main until
  // the first timed request can run. run.py reports the median over several
  // processes.
  std::unique_ptr<Env> env = set_up(spec, opt);
  obs::reset();
  const double setup_s = seconds_between(opt.started, Clock::now());
  if (opt.setup_only) {
    out.metrics.push_back({"setup_s", setup_s, "s"});
    return out;
  }

  Samples s;
  s.probe_guard = env->guard;
  s.probe_guard.enabled = true;  // no guarded sessions: full, open bands
  double open_wall = 0.0;
  switch (spec.kind) {
    case Kind::closed_serve:
      run_closed_serve(spec, opt, *env, s, checks);
      break;
    case Kind::open_serve:
      run_open_serve(spec, opt, *env, s, checks, &open_wall);
      break;
    case Kind::hybrid:
      run_hybrid(spec, opt, *env, s, checks);
      break;
  }
  const double rss = peak_rss_mb();
  const std::map<std::string, SpanStat> spans = read_spans();
  const std::string obs_json = obs::to_json();
  const std::int64_t allocs = obs::counter("infer/steady_state_allocs").value();
  checks.expect(allocs == 0, "infer/steady_state_allocs is " +
                                 std::to_string(allocs) + " after warm-up");
  out.attempted += s.sessions;

  out.nproc = available_cpus();
  out.pool_width = static_cast<int>(ThreadPool::global().size());
  out.isa = util::isa_name(util::active_isa());
  out.precision = util::precision_name(serve_config().precision);

  if (!opt.trace) {
    end_to_end_metrics(spec, s, setup_s, open_wall, rss, out);
  } else {
    std::vector<Stage> stages;
    per_layer_metrics(spec, *env, s, spans, out, checks, stages);
    const double step = s.traced_step_s;
    std::string largest;
    double largest_s = -1.0;
    const std::string unit =
        spec.kind == Kind::hybrid ? "rollouts" : "step() calls";
    out.report.push_back("stage table (traced " + unit + ", " +
                         fmt("%.4f", step) + " s):");
    for (const Stage& st : stages) {
      const double share = 100.0 * safe_div(st.seconds, step);
      out.report.push_back("  " + fmt("%9.4f s ", st.seconds) +
                           fmt("%6.1f%%  ", share) + st.name);
      if (st.name != kResidualStage && st.seconds > largest_s) {
        largest_s = st.seconds;
        largest = st.name;
      }
    }
    out.report.push_back("largest stage: " + largest);
    write_trace(opt, s, stages, out, obs_json);
  }
  return out;
}

double measure_open_capacity(const Options& opt, int sessions) {
  const Spec& spec = find_spec("serve_open");
  fix_pool_width();
  obs::set_enabled(false);
  std::unique_ptr<Env> env = set_up(spec, opt);
  const std::vector<Arrival> arrivals = open_schedule(
      static_cast<double>(sessions), 1.0, opt.seed, spec.seed_pool);
  std::vector<core::RolloutRequest> requests;
  for (std::size_t i = 0; i < arrivals.size(); ++i) {
    requests.push_back(open_request(*env, arrivals[i], i));
  }
  const Clock::time_point a = Clock::now();
  submit_and_drain(*env->server, std::move(requests));
  return static_cast<double>(arrivals.size()) /
         seconds_between(a, Clock::now());
}

}  // namespace perfbench
