// Global flow diagnostics recorded along a rollout (paper Figs. 8–9):
// kinetic energy, enstrophy, and the divergence residual that distinguishes
// physical PDE states from raw FNO predictions.
#pragma once

#include <vector>

#include "core/propagator.hpp"

namespace turb::core {

/// Global diagnostics of one snapshot, derived from one r2c transform of
/// (u₁, u₂). Derivatives use ns::deriv_freq wavenumbers (Nyquist modes
/// derivative-free, as in ns::derivative_x/y). Any NaN or inf in u₁/u₂
/// makes kinetic_energy, enstrophy and divergence_l2 non-finite, which is
/// what the rollout guard's non_finite check reads.
struct SnapshotMetrics {
  double t = 0.0;
  /// (1/2)⟨|u|²⟩, summed in physical space (analysis::kinetic_energy).
  double kinetic_energy = 0.0;
  /// ⟨ω²⟩ with ω̂ = i(k_x û₂ − k_y û₁), by Parseval over the half spectrum.
  double enstrophy = 0.0;
  /// max |∇·u| over the grid, from one inverse transform of i k·û.
  double divergence_linf = 0.0;
  /// √⟨(∇·u)²⟩ with (∇·u)^ = i k·û, by Parseval over the half spectrum.
  double divergence_l2 = 0.0;
};

/// Per-snapshot uncertainty diagnostics of a K-member ensemble rollout — the
/// trustworthiness signal returned alongside the mean prediction (and the
/// quantity guard band calibration is derived from). All statistics are
/// member-0-anchored (core/ensemble.hpp), so identical members yield exact
/// zeros rather than rounding dust.
struct EnsembleSnapshotSpread {
  double variance = 0.0;     ///< grid-mean per-point across-member variance
                             ///< (u1 and u2 pooled)
  double rel_spread = 0.0;   ///< √variance / RMS of the mean field
  double energy_mean = 0.0;      ///< across-member mean kinetic energy
  double energy_spread = 0.0;    ///< population std of members' energies
  double enstrophy_mean = 0.0;   ///< across-member mean enstrophy
  double enstrophy_spread = 0.0; ///< population std of members' enstrophies
};

/// Diagnostics for one snapshot.
SnapshotMetrics compute_metrics(const FieldSnapshot& snapshot);

/// Diagnostics for a window or a whole trajectory. Consecutive snapshots
/// of one grid shape share batched transforms (up to 16 per batch); every
/// entry is bitwise equal to the single-snapshot call on it.
std::vector<SnapshotMetrics> compute_metrics(
    const std::vector<FieldSnapshot>& trajectory);

/// As above, into a caller-held vector. Scratch is per-thread transform
/// workspace that only grows, so once `out` and the scratch have seen the
/// largest window the call performs no heap allocation.
void compute_metrics(const std::vector<FieldSnapshot>& window,
                     std::vector<SnapshotMetrics>& out);

/// Percentage error |a − b|/|b| · 100 between a quantity of two trajectories
/// (paper Fig. 9 reports K.E. and enstrophy errors this way).
double percentage_error(double value, double reference);

}  // namespace turb::core
