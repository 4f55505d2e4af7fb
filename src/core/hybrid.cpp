#include "core/hybrid.hpp"

#include <utility>

namespace turb::core {

HybridScheduler::HybridScheduler(Propagator& fno, Propagator& pde,
                                 HybridConfig config)
    : fno_(&fno), pde_(&pde), config_(config) {
  TURB_CHECK_MSG(same_dt_snap(fno, pde),
                 "propagators disagree on snapshot spacing: "
                     << fno.dt_snap() << " vs " << pde.dt_snap());
  TURB_CHECK_MSG(config_.fno_snapshots > 0 || config_.pde_snapshots > 0,
                 "at least one window must be non-empty");
  if (config_.guard.enabled) {
    TURB_CHECK_MSG(config_.pde_snapshots > 0 ||
                       config_.guard.cooldown_snapshots > 0,
                   "guarded pure-FNO rollouts need guard.cooldown_snapshots "
                   "> 0 (no pde window to fall back to otherwise)");
  }
}

RolloutRequest HybridScheduler::request(History seed,
                                        index_t total_snapshots) const {
  RolloutRequest request;
  request.seed = std::move(seed);
  request.steps = total_snapshots;
  if (config_.fno_snapshots == 0) {
    request.window = config_.pde_snapshots;  // pure PDE: never guarded
  } else {
    request.window = config_.fno_snapshots;
    request.fallback_window = config_.pde_snapshots;
    request.guard = config_.guard;
  }
  return request;
}

RolloutResult HybridScheduler::run(const History& seed,
                                   index_t total_snapshots) {
  if (config_.fno_snapshots == 0) {
    return run_rollout(*pde_, request(seed, total_snapshots));
  }
  return run_rollout(*fno_, request(seed, total_snapshots), pde_);
}

}  // namespace turb::core
