#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <limits>

#include "analysis/stats.hpp"
#include "core/fno_propagator.hpp"
#include "core/hybrid.hpp"
#include "core/metrics.hpp"
#include "core/pde_propagator.hpp"
#include "core/rollout_api.hpp"
#include "core/rollout_guard.hpp"
#include "lbm/initializer.hpp"
#include "ns/spectral_ops.hpp"
#include "obs/obs.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"

#include "alloc_hook.hpp"

namespace turb::core {
namespace {

constexpr index_t kGrid = 32;
constexpr double kDtSnap = 0.01;

std::unique_ptr<ns::NsSolver> make_solver() {
  ns::NsConfig cfg;
  cfg.n = kGrid;
  cfg.viscosity = 1e-3;
  cfg.dt = 1e-3;
  return std::make_unique<ns::SpectralNsSolver>(cfg);
}

FieldSnapshot make_seed_snapshot(double t, std::uint64_t seed) {
  Rng rng(seed);
  const auto field = lbm::random_vortex_velocity(kGrid, kGrid, 4.0, 1.0, rng);
  FieldSnapshot snap;
  snap.t = t;
  snap.u1 = field.u1;
  snap.u2 = field.u2;
  return snap;
}

/// Seed history of `n` snapshots produced by the PDE itself.
History make_seed_history(index_t n, std::uint64_t seed) {
  History history;
  history.push_back(make_seed_snapshot(0.0, seed));
  if (n > 1) {
    PdePropagator pde(make_solver(), kDtSnap);
    auto more = pde.advance(history, n - 1);
    for (auto& s : more) history.push_back(std::move(s));
  }
  return history;
}

fno::FnoConfig tiny_fno_config() {
  fno::FnoConfig cfg;
  cfg.in_channels = 4;
  cfg.out_channels = 2;
  cfg.width = 6;
  cfg.n_layers = 2;
  cfg.n_modes = {8, 8};
  cfg.lifting_channels = 8;
  cfg.projection_channels = 8;
  return cfg;
}

// --- metrics -------------------------------------------------------------------

TEST(Metrics, TaylorGreenValues) {
  const auto field = lbm::taylor_green_velocity(64, 64, 1.0);
  FieldSnapshot snap;
  snap.t = 0.5;
  snap.u1 = field.u1;
  snap.u2 = field.u2;
  const SnapshotMetrics m = compute_metrics(snap);
  EXPECT_DOUBLE_EQ(m.t, 0.5);
  EXPECT_NEAR(m.kinetic_energy, 0.25, 1e-10);
  const double k = 2.0 * std::numbers::pi;
  EXPECT_NEAR(m.enstrophy, k * k, 1e-8);
  EXPECT_LT(m.divergence_linf, 1e-10);
}

TEST(Metrics, DivergenceDetectsNonSolenoidalField) {
  const index_t n = 32;
  TensorD u1({n, n}), u2({n, n});
  for (index_t iy = 0; iy < n; ++iy) {
    for (index_t ix = 0; ix < n; ++ix) {
      // Radial-ish field: strongly divergent.
      u1(iy, ix) = std::sin(2.0 * std::numbers::pi * ix / n);
      u2(iy, ix) = std::sin(2.0 * std::numbers::pi * iy / n);
    }
  }
  FieldSnapshot snap{0.0, u1, u2};
  const SnapshotMetrics m = compute_metrics(snap);
  EXPECT_GT(m.divergence_linf, 1.0);
  EXPECT_GT(m.divergence_l2, 0.5);
}

// --- one-pass diagnostics vs the per-derivative reference --------------------

/// compute_metrics as it stood before the one-pass rewrite: vorticity and
/// divergence each built in physical space from two spectral derivatives
/// (8 transforms per snapshot). Kept as the oracle.
SnapshotMetrics reference_metrics(const FieldSnapshot& snapshot) {
  SnapshotMetrics m;
  m.t = snapshot.t;
  m.kinetic_energy = analysis::kinetic_energy(snapshot.u1, snapshot.u2);
  const TensorD omega = ns::vorticity_from_velocity(snapshot.u1, snapshot.u2);
  m.enstrophy = analysis::enstrophy(omega);
  const TensorD div = ns::divergence(snapshot.u1, snapshot.u2);
  m.divergence_linf = div.max_abs();
  m.divergence_l2 =
      std::sqrt(div.squared_norm() / static_cast<double>(div.size()));
  return m;
}

/// RMS and max of the velocity gradient |∇u| (all four components): the
/// scale the diagnostics' rounding error grows with.
std::pair<double, double> gradient_scale(const FieldSnapshot& s) {
  const TensorD g[4] = {ns::derivative_x(s.u1), ns::derivative_y(s.u1),
                        ns::derivative_x(s.u2), ns::derivative_y(s.u2)};
  double sum = 0.0, peak = 0.0;
  for (const TensorD& c : g) {
    sum += c.squared_norm();
    peak = std::max(peak, c.max_abs());
  }
  return {std::sqrt(sum / static_cast<double>(s.u1.size())), peak};
}

/// Solenoidal random vortices, the same plus a gradient (strongly
/// divergent) and plus grid-scale noise (an FNO-like prediction), on a
/// power-of-two or a Bluestein grid.
FieldSnapshot metrics_field(index_t n, int kind, std::uint64_t seed) {
  Rng rng(seed);
  const auto field = lbm::random_vortex_velocity(n, n, 4.0, 1.0, rng);
  FieldSnapshot s{0.25 * static_cast<double>(seed), field.u1, field.u2};
  const double k = 2.0 * std::numbers::pi;
  for (index_t iy = 0; iy < n; ++iy) {
    for (index_t ix = 0; ix < n; ++ix) {
      const double x = static_cast<double>(ix) / static_cast<double>(n);
      const double y = static_cast<double>(iy) / static_cast<double>(n);
      if (kind == 1) {
        s.u1(iy, ix) += 0.3 * std::cos(k * 2.0 * x) * std::sin(k * y);
        s.u2(iy, ix) += 0.3 * std::sin(k * 2.0 * x) * std::cos(k * y);
      } else if (kind == 2) {
        s.u1(iy, ix) += 0.05 * rng.normal();
        s.u2(iy, ix) += 0.05 * rng.normal();
      }
    }
  }
  return s;
}

// Documented agreement bound with the reference (DESIGN.md, "Physics-side
// spectral path"): both routes are exact in exact arithmetic; their
// rounding differs by a few ulps of the gradient scale g, so
//   |Δ enstrophy| ≤ 1e-13·g²_rms,  |Δ div_l2| ≤ 1e-13·g_rms,
//   |Δ div_linf| ≤ 1e-13·g_max
// (measured maxima 3.3e-15, 1.1e-15 and 3.6e-16 on avx2).
// Scaling by g rather than by the value covers divergence-free fields,
// whose divergence is itself rounding noise (~1e-16·g).
constexpr double kMetricsBound = 1e-13;

TEST(Metrics, OnePassMatchesPerDerivativeReference) {
  double worst[3] = {0.0, 0.0, 0.0};
  for (const index_t n : {index_t{32}, index_t{48}, index_t{64}}) {
    for (int kind = 0; kind < 3; ++kind) {
      for (std::uint64_t seed = 1; seed <= 3; ++seed) {
        const FieldSnapshot s = metrics_field(n, kind, 100 * n + seed);
        const SnapshotMetrics m = compute_metrics(s);
        const SnapshotMetrics r = reference_metrics(s);
        const auto [g_rms, g_max] = gradient_scale(s);
        EXPECT_EQ(std::memcmp(&m.kinetic_energy, &r.kinetic_energy,
                              sizeof(double)),
                  0);
        EXPECT_EQ(m.t, r.t);
        const double e[3] = {
            std::abs(m.enstrophy - r.enstrophy) / (g_rms * g_rms),
            std::abs(m.divergence_l2 - r.divergence_l2) / g_rms,
            std::abs(m.divergence_linf - r.divergence_linf) / g_max};
        for (int q = 0; q < 3; ++q) {
          EXPECT_LE(e[q], kMetricsBound)
              << "quantity " << q << " n " << n << " kind " << kind;
          worst[q] = std::max(worst[q], e[q]);
        }
      }
    }
  }
  for (int q = 0; q < 3; ++q) {
    char text[32];
    std::snprintf(text, sizeof(text), "%.3e", worst[q]);
    RecordProperty(q == 0 ? "enstrophy" : q == 1 ? "div_l2" : "div_linf",
                   text);
  }
}

TEST(Metrics, WindowOverloadBitwiseEqualsPerSnapshot) {
  for (const std::size_t len : {1u, 5u, 16u, 17u}) {
    std::vector<FieldSnapshot> window;
    for (std::size_t i = 0; i < len; ++i) {
      window.push_back(metrics_field(32, static_cast<int>(i % 3), 7 + i));
    }
    const std::vector<SnapshotMetrics> batched = compute_metrics(window);
    ASSERT_EQ(batched.size(), len);
    for (std::size_t i = 0; i < len; ++i) {
      const SnapshotMetrics single = compute_metrics(window[i]);
      EXPECT_EQ(std::memcmp(&batched[i], &single, sizeof(SnapshotMetrics)),
                0)
          << "window " << len << " snapshot " << i;
    }
  }
}

TEST(Metrics, NonFiniteFieldsGiveNonFiniteDiagnostics) {
  const double bad[3] = {std::numeric_limits<double>::quiet_NaN(),
                         std::numeric_limits<double>::infinity(),
                         -std::numeric_limits<double>::infinity()};
  GuardConfig gc;
  gc.enabled = true;
  for (const double v : bad) {
    for (const index_t at : {index_t{0}, index_t{517}, index_t{32 * 32 - 1}}) {
      for (const bool in_u2 : {false, true}) {
        FieldSnapshot s = metrics_field(32, 0, 11);
        (in_u2 ? s.u2 : s.u1)[at] = v;
        const SnapshotMetrics m = compute_metrics(s);
        EXPECT_FALSE(std::isfinite(m.enstrophy) &&
                     std::isfinite(m.divergence_l2))
            << v << " at " << at;
        RolloutGuard guard(gc);
        EXPECT_EQ(guard.check(s, m), GuardTrip::non_finite);
        // Same verdict from a window that carries the bad snapshot.
        const std::vector<SnapshotMetrics> w =
            compute_metrics(std::vector<FieldSnapshot>{
                metrics_field(32, 1, 12), s});
        EXPECT_FALSE(std::isfinite(w[1].enstrophy) &&
                     std::isfinite(w[1].divergence_l2));
        EXPECT_TRUE(std::isfinite(w[0].enstrophy));
      }
    }
  }
}

TEST(Metrics, WindowPassAllocationFreeAfterWarmUp) {
  ThreadPool::Scope scope(1);
  std::vector<FieldSnapshot> pool;
  for (std::size_t i = 0; i < 17; ++i) {
    pool.push_back(metrics_field(32, static_cast<int>(i % 3), 40 + i));
  }
  const auto window = [&](std::size_t len) {
    return std::vector<FieldSnapshot>(pool.begin(),
                                      pool.begin() + static_cast<long>(len));
  };
  const std::vector<FieldSnapshot> w1 = window(1), w3 = window(3),
                                   w5 = window(5), w16 = window(16),
                                   w17 = window(17);
  std::vector<SnapshotMetrics> out;
  compute_metrics(w17, out);  // warm-up: scratch grows to the largest chunk
  SnapshotMetrics single = compute_metrics(pool[0]);
  EXPECT_EQ(count_allocs([&] {
              for (const auto* w : {&w5, &w1, &w17, &w3, &w16, &w5, &w1}) {
                compute_metrics(*w, out);
              }
              single = compute_metrics(pool[3]);
            }),
            0);
  EXPECT_EQ(out.size(), 1u);
  EXPECT_TRUE(std::isfinite(single.enstrophy));
}

TEST(Metrics, PercentageError) {
  EXPECT_NEAR(percentage_error(1.1, 1.0), 10.0, 1e-12);
  EXPECT_NEAR(percentage_error(0.9, 1.0), 10.0, 1e-12);
  EXPECT_THROW(percentage_error(1.0, 0.0), CheckError);
}

// --- PdePropagator -------------------------------------------------------------

TEST(PdePropagator, ProducesRequestedSnapshots) {
  PdePropagator pde(make_solver(), kDtSnap);
  History history;
  history.push_back(make_seed_snapshot(0.2, 11));
  const auto traj = pde.advance(history, 5);
  ASSERT_EQ(traj.size(), 5u);
  for (std::size_t s = 0; s < traj.size(); ++s) {
    EXPECT_NEAR(traj[s].t, 0.2 + kDtSnap * static_cast<double>(s + 1), 1e-12);
    EXPECT_EQ(traj[s].u1.shape(), (Shape{kGrid, kGrid}));
  }
}

TEST(PdePropagator, OutputsAreDivergenceFree) {
  PdePropagator pde(make_solver(), kDtSnap);
  History history;
  history.push_back(make_seed_snapshot(0.0, 13));
  const auto traj = pde.advance(history, 3);
  for (const auto& snap : traj) {
    EXPECT_LT(ns::divergence(snap.u1, snap.u2).max_abs(), 1e-7);
  }
}

TEST(PdePropagator, EnergyDecays) {
  PdePropagator pde(make_solver(), kDtSnap);
  History history;
  history.push_back(make_seed_snapshot(0.0, 17));
  const auto traj = pde.advance(history, 10);
  const auto metrics = compute_metrics(traj);
  EXPECT_LT(metrics.back().kinetic_energy, metrics.front().kinetic_energy);
}

TEST(PdePropagator, RejectsNonMultipleSnapshotSpacing) {
  EXPECT_THROW(PdePropagator(make_solver(), 0.0015), CheckError);
}

TEST(PdePropagator, RejectsEmptyHistory) {
  PdePropagator pde(make_solver(), kDtSnap);
  History empty;
  EXPECT_THROW(pde.advance(empty, 1), CheckError);
}

// --- FnoPropagator -------------------------------------------------------------

TEST(FnoPropagator, ShapesTimesAndDeterminism) {
  Rng rng(19);
  fno::Fno model(tiny_fno_config(), rng);
  FnoPropagator fno_prop(model, analysis::Normalizer(0.0, 1.0), kDtSnap);
  EXPECT_EQ(fno_prop.min_history(), 4);

  const History history = make_seed_history(4, 23);
  const auto a = fno_prop.advance(history, 5);
  const auto b = fno_prop.advance(history, 5);
  ASSERT_EQ(a.size(), 5u);
  for (std::size_t s = 0; s < a.size(); ++s) {
    EXPECT_NEAR(a[s].t, history.back().t + kDtSnap * static_cast<double>(s + 1),
                1e-12);
    for (index_t i = 0; i < a[s].u1.size(); ++i) {
      ASSERT_EQ(a[s].u1[i], b[s].u1[i]);
    }
  }
}

TEST(FnoPropagator, RejectsShortHistory) {
  Rng rng(29);
  fno::Fno model(tiny_fno_config(), rng);
  FnoPropagator fno_prop(model, analysis::Normalizer(0.0, 1.0), kDtSnap);
  const History history = make_seed_history(3, 31);
  EXPECT_THROW(fno_prop.advance(history, 1), CheckError);
}

TEST(FnoPropagator, Rejects3dModel) {
  Rng rng(37);
  fno::FnoConfig cfg = tiny_fno_config();
  cfg.n_modes = {4, 4, 4};
  fno::Fno model(cfg, rng);
  EXPECT_THROW(FnoPropagator(model, analysis::Normalizer(0.0, 1.0), kDtSnap),
               CheckError);
}

// --- HybridScheduler -------------------------------------------------------------

TEST(Hybrid, AlternatesProducersInConfiguredWindows) {
  Rng rng(41);
  fno::Fno model(tiny_fno_config(), rng);
  FnoPropagator fno_prop(model, analysis::Normalizer(0.0, 1.0), kDtSnap);
  PdePropagator pde_prop(make_solver(), kDtSnap);

  HybridConfig cfg;
  cfg.fno_snapshots = 2;
  cfg.pde_snapshots = 3;
  HybridScheduler scheduler(fno_prop, pde_prop, cfg);
  const History seed = make_seed_history(4, 43);
  const RolloutResult result = scheduler.run(seed, 12);

  ASSERT_EQ(result.trajectory.size(), 12u);
  ASSERT_EQ(result.producer.size(), 12u);
  const std::vector<std::string> expected = {"fno", "fno", "pde", "pde",
                                             "pde", "fno", "fno", "pde",
                                             "pde", "pde", "fno", "fno"};
  for (std::size_t i = 0; i < expected.size(); ++i) {
    EXPECT_EQ(result.producer[i], expected[i]) << "snapshot " << i;
  }
}

TEST(Hybrid, TimesAreUniform) {
  Rng rng(47);
  fno::Fno model(tiny_fno_config(), rng);
  FnoPropagator fno_prop(model, analysis::Normalizer(0.0, 1.0), kDtSnap);
  PdePropagator pde_prop(make_solver(), kDtSnap);
  HybridConfig cfg;
  cfg.fno_snapshots = 3;
  cfg.pde_snapshots = 2;
  HybridScheduler scheduler(fno_prop, pde_prop, cfg);
  const History seed = make_seed_history(4, 53);
  const RolloutResult result = scheduler.run(seed, 10);
  for (std::size_t i = 0; i < result.trajectory.size(); ++i) {
    EXPECT_NEAR(result.trajectory[i].t,
                seed.back().t + kDtSnap * static_cast<double>(i + 1), 1e-9);
  }
}

TEST(Hybrid, PdeWindowRestoresDivergenceFreeFields) {
  // The central mechanism of the paper's Fig. 8: an (untrained) FNO emits
  // fields with O(1) divergence; the next PDE window projects them back.
  Rng rng(59);
  fno::Fno model(tiny_fno_config(), rng);
  FnoPropagator fno_prop(model, analysis::Normalizer(0.0, 1.0), kDtSnap);
  PdePropagator pde_prop(make_solver(), kDtSnap);
  HybridConfig cfg;
  cfg.fno_snapshots = 2;
  cfg.pde_snapshots = 2;
  HybridScheduler scheduler(fno_prop, pde_prop, cfg);
  const History seed = make_seed_history(4, 61);
  const RolloutResult result = scheduler.run(seed, 8);

  double max_fno_div = 0.0, max_pde_div = 0.0;
  for (std::size_t i = 0; i < result.metrics.size(); ++i) {
    if (result.producer[i] == "fno") {
      max_fno_div = std::max(max_fno_div, result.metrics[i].divergence_linf);
    } else {
      max_pde_div = std::max(max_pde_div, result.metrics[i].divergence_linf);
    }
  }
  EXPECT_GT(max_fno_div, 1e-3);   // raw surrogate output is unphysical
  EXPECT_LT(max_pde_div, 1e-6);   // solver window restores incompressibility
  EXPECT_LT(max_pde_div, max_fno_div * 1e-2);
}

TEST(Hybrid, PureFnoConfiguration) {
  Rng rng(67);
  fno::Fno model(tiny_fno_config(), rng);
  FnoPropagator fno_prop(model, analysis::Normalizer(0.0, 1.0), kDtSnap);
  PdePropagator pde_prop(make_solver(), kDtSnap);
  HybridConfig cfg;
  cfg.fno_snapshots = 4;
  cfg.pde_snapshots = 0;
  HybridScheduler scheduler(fno_prop, pde_prop, cfg);
  const RolloutResult result = scheduler.run(make_seed_history(4, 71), 6);
  for (const auto& p : result.producer) EXPECT_EQ(p, "fno");
}

TEST(Hybrid, PurePdeConfiguration) {
  Rng rng(73);
  fno::Fno model(tiny_fno_config(), rng);
  FnoPropagator fno_prop(model, analysis::Normalizer(0.0, 1.0), kDtSnap);
  PdePropagator pde_prop(make_solver(), kDtSnap);
  HybridConfig cfg;
  cfg.fno_snapshots = 0;
  cfg.pde_snapshots = 4;
  HybridScheduler scheduler(fno_prop, pde_prop, cfg);
  const RolloutResult result = scheduler.run(make_seed_history(4, 79), 6);
  for (const auto& p : result.producer) EXPECT_EQ(p, "pde");
}

// --- HybridScheduler vs the reference alternation loop ---------------------

/// Reference copy of the hybrid's former private loop, kept as the oracle
/// for HybridScheduler now that the alternation runs inside RolloutStream:
/// windows of fno / pde snapshots, guarded FNO windows discarded wholesale
/// and replaced by one PDE cool-down of cooldown_snapshots (pde_snapshots
/// when 0), after which the FNO resumes.
RolloutResult reference_hybrid_run(Propagator& fno, Propagator& pde,
                                   const HybridConfig& config,
                                   const History& seed, index_t total) {
  RolloutGuard guard(config.guard);
  History history = seed;
  RolloutResult result;
  const auto append = [&](std::vector<FieldSnapshot>&& produced,
                          std::vector<SnapshotMetrics>&& metrics,
                          const std::string& name) {
    for (std::size_t i = 0; i < produced.size(); ++i) {
      result.metrics.push_back(metrics[i]);
      result.producer.push_back(name);
      history.push_back(produced[i]);
      result.trajectory.push_back(std::move(produced[i]));
      while (history.size() > 64) history.pop_front();
    }
  };
  bool fno_turn = config.fno_snapshots > 0;
  index_t produced = 0;
  while (produced < total) {
    Propagator* active = fno_turn ? &fno : &pde;
    const index_t window =
        fno_turn ? config.fno_snapshots : config.pde_snapshots;
    const index_t count = std::min(window, total - produced);
    std::vector<FieldSnapshot> snaps =
        detail::advance_timed(*active, history, count);
    std::vector<SnapshotMetrics> metrics = compute_metrics(snaps);
    if (fno_turn && config.guard.enabled) {
      GuardTrip trip = GuardTrip::none;
      double value = 0.0;
      std::size_t bad = 0;
      for (std::size_t i = 0; i < snaps.size(); ++i) {
        trip = guard.check(snaps[i], metrics[i], &value);
        if (trip != GuardTrip::none) {
          bad = i;
          break;
        }
      }
      if (trip != GuardTrip::none) {
        obs::counter("robust/guard_trips").add();
        result.guard_events.push_back(
            {static_cast<index_t>(result.trajectory.size()), snaps[bad].t,
             trip, value});
        const index_t cooldown = config.guard.cooldown_snapshots > 0
                                     ? config.guard.cooldown_snapshots
                                     : config.pde_snapshots;
        const index_t fb_count = std::min(cooldown, total - produced);
        std::vector<FieldSnapshot> fb =
            detail::advance_timed(pde, history, fb_count);
        std::vector<SnapshotMetrics> fb_metrics = compute_metrics(fb);
        append(std::move(fb), std::move(fb_metrics),
               pde.name() + "_fallback");
        obs::counter("robust/fallback_windows").add();
        obs::counter("robust/fallback_snapshots").add(fb_count);
        produced += fb_count;
        fno_turn = true;
        continue;
      }
    }
    append(std::move(snaps), std::move(metrics), active->name());
    produced += count;
    if (config.fno_snapshots > 0 && config.pde_snapshots > 0) {
      fno_turn = !fno_turn;
    }
  }
  return result;
}

/// Passes the wrapped propagator through, except that its produced
/// snapshots number [first_bad, end_bad) get a NaN: the FNO's first windows
/// trip the guard, later ones are accepted again.
class FlakyPropagator final : public Propagator {
 public:
  FlakyPropagator(Propagator& inner, index_t first_bad, index_t end_bad)
      : inner_(&inner), first_bad_(first_bad), end_bad_(end_bad) {}
  std::vector<FieldSnapshot> advance(const History& history,
                                     index_t count) override {
    std::vector<FieldSnapshot> out = inner_->advance(history, count);
    for (FieldSnapshot& snap : out) {
      if (produced_ >= first_bad_ && produced_ < end_bad_) {
        snap.u1[0] = std::numeric_limits<double>::quiet_NaN();
      }
      ++produced_;
    }
    return out;
  }
  [[nodiscard]] double dt_snap() const override { return inner_->dt_snap(); }
  [[nodiscard]] index_t min_history() const override {
    return inner_->min_history();
  }
  [[nodiscard]] std::string name() const override { return inner_->name(); }

 private:
  Propagator* inner_;
  index_t first_bad_;
  index_t end_bad_;
  index_t produced_ = 0;
};

bool same_bits(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

/// Counter deltas (and per-window span counts) a hybrid run leaves behind.
std::vector<std::int64_t> hybrid_counts() {
  std::vector<std::int64_t> out;
  for (const char* name :
       {"hybrid/fno_snapshots", "hybrid/pde_snapshots", "robust/guard_trips",
        "robust/fallback_windows", "robust/fallback_snapshots"}) {
    out.push_back(obs::counter(name).value());
  }
  for (const char* name : {"hybrid/fno_window", "hybrid/pde_window"}) {
    out.push_back(obs::timer(name).count());
  }
  return out;
}

std::vector<std::int64_t> minus(std::vector<std::int64_t> after,
                                const std::vector<std::int64_t>& before) {
  for (std::size_t i = 0; i < after.size(); ++i) after[i] -= before[i];
  return after;
}

void expect_same_result(const RolloutResult& want, const RolloutResult& got) {
  ASSERT_EQ(want.trajectory.size(), got.trajectory.size());
  ASSERT_EQ(want.metrics.size(), got.metrics.size());
  EXPECT_EQ(want.producer, got.producer);
  for (std::size_t k = 0; k < want.trajectory.size(); ++k) {
    const FieldSnapshot& a = want.trajectory[k];
    const FieldSnapshot& b = got.trajectory[k];
    ASSERT_TRUE(same_bits(a.t, b.t)) << "snapshot " << k;
    ASSERT_EQ(a.u1.shape(), b.u1.shape());
    ASSERT_EQ(0, std::memcmp(a.u1.data(), b.u1.data(),
                             a.u1.size() * sizeof(double)))
        << "snapshot " << k << " u1";
    ASSERT_EQ(0, std::memcmp(a.u2.data(), b.u2.data(),
                             a.u2.size() * sizeof(double)))
        << "snapshot " << k << " u2";
    const SnapshotMetrics& ma = want.metrics[k];
    const SnapshotMetrics& mb = got.metrics[k];
    EXPECT_TRUE(same_bits(ma.t, mb.t) &&
                same_bits(ma.kinetic_energy, mb.kinetic_energy) &&
                same_bits(ma.enstrophy, mb.enstrophy) &&
                same_bits(ma.divergence_linf, mb.divergence_linf) &&
                same_bits(ma.divergence_l2, mb.divergence_l2))
        << "metrics of snapshot " << k;
  }
  ASSERT_EQ(want.guard_events.size(), got.guard_events.size());
  for (std::size_t e = 0; e < want.guard_events.size(); ++e) {
    const GuardEvent& a = want.guard_events[e];
    const GuardEvent& b = got.guard_events[e];
    EXPECT_EQ(a.trajectory_index, b.trajectory_index) << "event " << e;
    EXPECT_TRUE(same_bits(a.t, b.t)) << "event " << e;
    EXPECT_EQ(a.reason, b.reason) << "event " << e;
    EXPECT_TRUE(same_bits(a.value, b.value)) << "event " << e;
  }
}

TEST(Hybrid, StreamMatchesReferenceLoopAcrossWindowsHorizonsAndGuards) {
  Rng rng(101);
  fno::Fno model(tiny_fno_config(), rng);
  FnoPropagator fno_prop(model, analysis::Normalizer(0.0, 1.0), kDtSnap);
  PdePropagator pde_prop(make_solver(), kDtSnap);
  const History seed = make_seed_history(4, 103);

  enum class Guard { off, untripped, cooldown0, cooldown3, cooldown_long };
  const std::vector<std::pair<index_t, index_t>> windows = {
      {5, 5}, {2, 3}, {4, 0}, {0, 4}};
  for (const auto& [fno_snaps, pde_snaps] : windows) {
    for (const index_t horizon : std::initializer_list<index_t>{7, 13, 22}) {
      for (const Guard mode : {Guard::off, Guard::untripped, Guard::cooldown0,
                               Guard::cooldown3, Guard::cooldown_long}) {
        SCOPED_TRACE("windows " + std::to_string(fno_snaps) + "/" +
                     std::to_string(pde_snaps) + ", horizon " +
                     std::to_string(horizon) + ", guard mode " +
                     std::to_string(static_cast<int>(mode)));
        HybridConfig cfg;
        cfg.fno_snapshots = fno_snaps;
        cfg.pde_snapshots = pde_snaps;
        cfg.guard.enabled = mode != Guard::off;
        // Tripping modes run a surrogate whose snapshots 3..7 are NaN: the
        // first windows trip, later windows are accepted again.
        const bool trips = mode != Guard::off && mode != Guard::untripped;
        cfg.guard.cooldown_snapshots =
            mode == Guard::cooldown3       ? 3
            : mode == Guard::cooldown_long ? fno_snaps + 3
                                           : 0;
        if (cfg.guard.enabled && pde_snaps == 0 &&
            cfg.guard.cooldown_snapshots == 0) {
          EXPECT_THROW(HybridScheduler(fno_prop, pde_prop, cfg), CheckError);
          continue;
        }

        FlakyPropagator want_fno(fno_prop, trips ? 3 : 0, trips ? 8 : 0);
        const std::vector<std::int64_t> before_want = hybrid_counts();
        const RolloutResult want =
            reference_hybrid_run(want_fno, pde_prop, cfg, seed, horizon);
        const std::vector<std::int64_t> want_counts =
            minus(hybrid_counts(), before_want);

        FlakyPropagator got_fno(fno_prop, trips ? 3 : 0, trips ? 8 : 0);
        HybridScheduler scheduler(got_fno, pde_prop, cfg);
        const std::vector<std::int64_t> before_got = hybrid_counts();
        const RolloutResult got = scheduler.run(seed, horizon);
        const std::vector<std::int64_t> got_counts =
            minus(hybrid_counts(), before_got);

        ASSERT_EQ(got.trajectory.size(), static_cast<std::size_t>(horizon));
        expect_same_result(want, got);
        EXPECT_EQ(want_counts, got_counts);
        if (trips && fno_snaps > 0) {
          EXPECT_GE(got.guard_trips(), 1);
        }
        if (mode == Guard::untripped) {
          EXPECT_EQ(got.guard_trips(), 0);
        }
      }
    }
  }
}

TEST(Hybrid, MismatchedSnapshotSpacingRejected) {
  Rng rng(89);
  fno::Fno model(tiny_fno_config(), rng);
  FnoPropagator fno_prop(model, analysis::Normalizer(0.0, 1.0), 0.02);
  PdePropagator pde_prop(make_solver(), kDtSnap);
  HybridConfig cfg;
  EXPECT_THROW(HybridScheduler(fno_prop, pde_prop, cfg), CheckError);
}

TEST(Hybrid, BothWindowsZeroRejected) {
  Rng rng(97);
  fno::Fno model(tiny_fno_config(), rng);
  FnoPropagator fno_prop(model, analysis::Normalizer(0.0, 1.0), kDtSnap);
  PdePropagator pde_prop(make_solver(), kDtSnap);
  HybridConfig cfg;
  cfg.fno_snapshots = 0;
  cfg.pde_snapshots = 0;
  EXPECT_THROW(HybridScheduler(fno_prop, pde_prop, cfg), CheckError);
}

}  // namespace
}  // namespace turb::core
