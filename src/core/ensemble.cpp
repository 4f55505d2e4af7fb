#include "core/ensemble.hpp"

#include <algorithm>
#include <cmath>
#include <utility>

#include "util/rng.hpp"

namespace turb::core {

void perturb_member_seed(History& seed, std::uint64_t ensemble_seed,
                         index_t member, double eps) {
  TURB_CHECK(member >= 0);
  TURB_CHECK(eps >= 0.0);
  if (member == 0 || eps == 0.0) return;
  index_t snap_index = 0;
  for (FieldSnapshot& snap : seed) {
    // One generator per (member, snapshot): insertion-order independent and
    // splittable, so the same member always sees the same perturbation no
    // matter how the seed was assembled.
    Rng rng(ensemble_seed +
            static_cast<std::uint64_t>(member) * 0x9E3779B97F4A7C15ull +
            static_cast<std::uint64_t>(snap_index) * 0xC2B2AE3D27D4EB4Full);
    for (index_t i = 0; i < snap.u1.size(); ++i) {
      snap.u1[i] += eps * (2.0 * rng.uniform() - 1.0);
    }
    for (index_t i = 0; i < snap.u2.size(); ++i) {
      snap.u2[i] += eps * (2.0 * rng.uniform() - 1.0);
    }
    ++snap_index;
  }
}

RolloutRequest ensemble_member_request(const RolloutRequest& base,
                                       index_t member) {
  TURB_CHECK(base.ensemble_k >= 1);
  TURB_CHECK_MSG(member >= 0 && member < base.ensemble_k,
                 "member " << member << " out of range for a "
                           << base.ensemble_k << "-member ensemble");
  // The member's one seed copy is the base copy below, perturbed in place.
  RolloutRequest request = base;
  perturb_member_seed(request.seed, base.ensemble_seed, member,
                      base.ensemble_eps);
  request.ensemble_k = 1;
  request.ensemble_keep_members = false;
  // The group-level calibrated guard owns divergence detection; member
  // streams run unguarded so an untripped member is a pure primary rollout.
  request.guard = GuardConfig{};
  return request;
}

void anchored_mean_spread(const double* values, index_t k, double* mean,
                          double* spread) {
  TURB_CHECK(k >= 1);
  const double anchor = values[0];
  double dev_sum = 0.0;
  for (index_t m = 0; m < k; ++m) dev_sum += values[m] - anchor;
  const double mean_dev = dev_sum / static_cast<double>(k);
  double var = 0.0;
  for (index_t m = 0; m < k; ++m) {
    const double d = (values[m] - anchor) - mean_dev;
    var += d * d;
  }
  *mean = anchor + mean_dev;
  *spread = std::sqrt(var / static_cast<double>(k));
}

namespace {

/// Member-0-anchored per-point mean field and pooled variance accumulation
/// for one component: writes mean into `mean_out`, returns Σ_points Σ_m
/// (d_m − mean_dev)². Identical members contribute exact zeros.
double reduce_component(const std::vector<RolloutResult>& members,
                        std::size_t snap, TensorD FieldSnapshot::*component,
                        TensorD& mean_out) {
  const auto k = static_cast<index_t>(members.size());
  const TensorD& anchor = members[0].trajectory[snap].*component;
  mean_out = anchor;
  double var_sum = 0.0;
  for (index_t i = 0; i < anchor.size(); ++i) {
    double dev_sum = 0.0;
    for (index_t m = 1; m < k; ++m) {
      dev_sum +=
          (members[static_cast<std::size_t>(m)].trajectory[snap].*component)[i] -
          anchor[i];
    }
    const double mean_dev = dev_sum / static_cast<double>(k);
    mean_out[i] = anchor[i] + mean_dev;
    for (index_t m = 0; m < k; ++m) {
      const double d =
          ((members[static_cast<std::size_t>(m)].trajectory[snap].*component)[i] -
           anchor[i]) -
          mean_dev;
      var_sum += d * d;
    }
  }
  return var_sum;
}

}  // namespace

RolloutResult reduce_ensemble_members(std::vector<RolloutResult>&& members,
                                      std::vector<GuardEvent> guard_events,
                                      bool keep_members) {
  const auto k = static_cast<index_t>(members.size());
  TURB_CHECK(k >= 1);
  const std::size_t n = members[0].trajectory.size();
  for (const RolloutResult& m : members) {
    TURB_CHECK_MSG(m.trajectory.size() == n,
                   "ensemble members produced " << m.trajectory.size()
                                                << " vs " << n
                                                << " snapshots");
  }

  RolloutResult combined;
  combined.ensemble_members = k;
  combined.guard_events = std::move(guard_events);
  combined.producer = members[0].producer;
  combined.trajectory.reserve(n);
  combined.metrics.reserve(n);
  combined.spread.reserve(n);

  std::vector<double> energies(static_cast<std::size_t>(k));
  std::vector<double> enstrophies(static_cast<std::size_t>(k));
  for (std::size_t s = 0; s < n; ++s) {
    FieldSnapshot mean;
    mean.t = members[0].trajectory[s].t;
    double var_sum = reduce_component(members, s, &FieldSnapshot::u1, mean.u1);
    var_sum += reduce_component(members, s, &FieldSnapshot::u2, mean.u2);
    const auto points =
        static_cast<double>(mean.u1.size() + mean.u2.size());

    EnsembleSnapshotSpread row;
    row.variance = var_sum / (static_cast<double>(k) * points);
    const double mean_rms =
        std::sqrt((mean.u1.squared_norm() + mean.u2.squared_norm()) / points);
    row.rel_spread =
        mean_rms > 0.0 ? std::sqrt(row.variance) / mean_rms : 0.0;
    for (index_t m = 0; m < k; ++m) {
      energies[static_cast<std::size_t>(m)] =
          members[static_cast<std::size_t>(m)].metrics[s].kinetic_energy;
      enstrophies[static_cast<std::size_t>(m)] =
          members[static_cast<std::size_t>(m)].metrics[s].enstrophy;
    }
    anchored_mean_spread(energies.data(), k, &row.energy_mean,
                         &row.energy_spread);
    anchored_mean_spread(enstrophies.data(), k, &row.enstrophy_mean,
                         &row.enstrophy_spread);
    combined.spread.push_back(row);
    combined.metrics.push_back(compute_metrics(mean));
    combined.trajectory.push_back(std::move(mean));
  }

  if (keep_members) combined.member_results = std::move(members);
  return combined;
}

SpreadCalibrator::Bands SpreadCalibrator::calibrate(const double* energies,
                                                    const double* enstrophies,
                                                    index_t k) {
  double energy_mean = 0.0, energy_spread = 0.0;
  double enstrophy_mean = 0.0, enstrophy_spread = 0.0;
  anchored_mean_spread(energies, k, &energy_mean, &energy_spread);
  anchored_mean_spread(enstrophies, k, &enstrophy_mean, &enstrophy_spread);

  // Monotone envelope: the widest spread of any *accepted* snapshot so far.
  // A transient consensus must not shrink the band below the variability
  // the ensemble has already demonstrated — but the current snapshot's
  // spread is only staged (check-then-update): a diverging member widening
  // its own band in proportion to its divergence could never trip.
  if (!seeded_) {
    // Snapshot 0 seeds the baseline: it carries the deliberate member
    // perturbation, and no divergence verdict exists without a baseline.
    env_energy_ = std::max(env_energy_, energy_spread);
    env_enstrophy_ = std::max(env_enstrophy_, enstrophy_spread);
    seeded_ = true;
  } else {
    staged_energy_ = std::max(staged_energy_, energy_spread);
    staged_enstrophy_ = std::max(staged_enstrophy_, enstrophy_spread);
  }

  Bands bands;
  bands.energy_halfwidth =
      config_.spread_band_factor *
      std::max(env_energy_, config_.spread_floor_rel * std::abs(energy_mean));
  bands.enstrophy_halfwidth =
      config_.spread_band_factor *
      std::max(env_enstrophy_,
               config_.spread_floor_rel * std::abs(enstrophy_mean));
  bands.energy_min = energy_mean - bands.energy_halfwidth;
  bands.energy_max = energy_mean + bands.energy_halfwidth;
  bands.enstrophy_max = enstrophy_mean + bands.enstrophy_halfwidth;
  return bands;
}

void SpreadCalibrator::commit_round() {
  env_energy_ = std::max(env_energy_, staged_energy_);
  env_enstrophy_ = std::max(env_enstrophy_, staged_enstrophy_);
  staged_energy_ = 0.0;
  staged_enstrophy_ = 0.0;
}

void SpreadCalibrator::discard_round() {
  staged_energy_ = 0.0;
  staged_enstrophy_ = 0.0;
}

}  // namespace turb::core
