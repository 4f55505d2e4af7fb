// HybridScheduler — the paper's contribution (§V, §VI-C).
//
// The scheduler alternates between two propagators in fixed windows: the FNO
// surrogate produces `fno_snapshots` cheap predictions, then the PDE solver
// takes over for `pde_snapshots`, re-imposing the governing physics
// (divergence-free velocity, dissipation) before the surrogate resumes. With
// fno_snapshots = 0 the rollout is pure PDE; with pde_snapshots = 0 it is a
// pure FNO rollout — the three curves of Figs. 8–9 come from one code path.
//
// The alternation itself is a RolloutRequest window policy executed by
// RolloutStream (core/rollout_api.hpp): this class only maps its config onto
// one request (fno_snapshots → window, pde_snapshots → fallback_window),
// so the same hybrid session can equally be submitted to
// serve::RolloutServer.
#pragma once

#include "core/propagator.hpp"
#include "core/rollout_api.hpp"
#include "core/rollout_guard.hpp"

namespace turb::core {

struct HybridConfig {
  index_t fno_snapshots = 5;  ///< surrogate window length (0 = pure PDE)
  index_t pde_snapshots = 5;  ///< solver window length (0 = pure FNO)
  /// Optional divergence guard over FNO windows (disabled by default; with
  /// the guard off — or on but untripped — the rollout is bitwise identical
  /// to the unguarded scheduler). A tripped FNO window is discarded and
  /// replaced by a PDE cool-down of guard.cooldown_snapshots (or, when that
  /// is 0, of pde_snapshots), recorded as "<pde>_fallback" in
  /// RolloutResult::producer and as a GuardEvent; the FNO then resumes.
  GuardConfig guard;
};

class HybridScheduler {
 public:
  /// Both propagators must share the same dt_snap (checked).
  HybridScheduler(Propagator& fno, Propagator& pde, HybridConfig config);

  /// The request run(seed, total_snapshots) executes. With fno_snapshots > 0
  /// it is FNO-primary with the PDE as fallback, so it can be submitted to
  /// serve::RolloutServer as is; pure PDE runs the PDE as the (unguarded)
  /// primary.
  [[nodiscard]] RolloutRequest request(History seed,
                                       index_t total_snapshots) const;

  /// Extend `seed` (the initial history, oldest first) by `total_snapshots`.
  /// The seed must satisfy the FNO's min_history when fno windows are
  /// enabled.
  RolloutResult run(const History& seed, index_t total_snapshots);

 private:
  Propagator* fno_;
  Propagator* pde_;
  HybridConfig config_;
};

}  // namespace turb::core
