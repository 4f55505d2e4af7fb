// Unified rollout-request API — the one rollout state machine behind
// run_rollout(), the paper's HybridScheduler (core/hybrid.hpp) and every
// session serve::RolloutServer multiplexes.
//
//   * RolloutRequest describes a stream: seed history, horizon, window
//     policy, guard configuration, and scheduling hints (batch hint, tag).
//   * RolloutStream executes one request incrementally — window by window —
//     which is exactly the granularity the serving scheduler micro-batches
//     at. The FNO↔PDE alternation, guard checks, fallback cool-downs,
//     metrics, and history rolling all live here, so a request produces the
//     same bytes whether it runs synchronously (run_rollout) or multiplexed
//     through serve::RolloutServer.
//   * run_rollout() drives a stream to completion synchronously.
//
// Window policy: the primary propagator produces windows of `window`
// snapshots. With `fallback_window` > 0 the request alternates (the paper's
// hybrid, §V): each accepted primary window is followed by a scheduled
// window of `fallback_window` snapshots from the fallback propagator,
// recorded under the fallback's plain name ("pde").
//
// Guard semantics (primary windows only): a tripped window is discarded
// wholesale and the fallback takes over for one cool-down window of
// `guard.cooldown_snapshots` snapshots, after which the primary resumes
// (skipping the scheduled window, if any). With cooldown_snapshots == 0 the
// cool-down is one `fallback_window` when the request alternates; when it
// does not, the stream degrades for good and finishes on the fallback in
// `window`-sized chunks. Cool-down snapshots are recorded as
// "<fallback>_fallback" and counted under robust/fallback_*. Every scheduled
// or cool-down window is one advance() call of its full length (clipped to
// the horizon): PdePropagator re-seeds from history.back() per call, so
// splitting a window would change its bits.
#pragma once

#include <memory>
#include <string>

#include "core/metrics.hpp"
#include "core/propagator.hpp"
#include "core/rollout_guard.hpp"

namespace turb::core {

struct RolloutResult {
  std::vector<FieldSnapshot> trajectory;  ///< produced snapshots, in order
  std::vector<SnapshotMetrics> metrics;   ///< diagnostics per snapshot
  std::vector<std::string> producer;      ///< which propagator made each one
  std::vector<GuardEvent> guard_events;   ///< discarded-window trips, in order

  /// Ensemble UQ (serve::RolloutServer with RolloutRequest::ensemble_k > 1):
  /// how many member rollouts this result reduces over (1 = plain rollout),
  /// the per-snapshot spread diagnostics (one entry per trajectory snapshot;
  /// empty for plain rollouts), and — when the request asked to keep them —
  /// the individual member results (each bitwise identical to a solo rollout
  /// of that member's perturbed seed).
  index_t ensemble_members = 1;
  std::vector<EnsembleSnapshotSpread> spread;
  std::vector<RolloutResult> member_results;

  [[nodiscard]] index_t guard_trips() const {
    return static_cast<index_t>(guard_events.size());
  }
};

/// One trajectory-extension request. Consumed by run_rollout() and by
/// serve::RolloutServer::submit().
struct RolloutRequest {
  History seed;           ///< initial history, oldest first (>= min_history)
  index_t steps = 0;      ///< snapshots to produce (>= 1)
  GuardConfig guard;      ///< per-request divergence guard (default off)
  index_t max_history = 64;  ///< rolling-history truncation bound
  /// Snapshots per primary window — the chunk a scheduler advances a stream
  /// by per turn (and the chunk of a stream degraded for good).
  index_t window = 16;
  /// Snapshots of the scheduled fallback window after each accepted primary
  /// window (0 = primary only). Needs a fallback propagator with the
  /// primary's dt_snap; not combinable with ensemble_k > 1.
  index_t fallback_window = 0;
  /// Serving hint: how many sibling streams the scheduler may co-batch with
  /// this one (1 = no preference; capped by ServeConfig::batch_window).
  index_t batch_hint = 1;
  std::string tag;        ///< client label echoed through serving results

  /// Ensemble UQ (serve::RolloutServer): fan this request out into
  /// `ensemble_k` member streams — member 0 runs the seed unchanged, member
  /// m >= 1 runs a deterministically perturbed copy (core/ensemble.hpp) —
  /// micro-batched together through the shared engine and reduced into one
  /// mean-prediction result with per-snapshot spread. 1 = plain rollout.
  index_t ensemble_k = 1;
  /// Additive seed-perturbation amplitude for members >= 1 (0 = identical
  /// members; the reduction then returns exactly zero variance).
  double ensemble_eps = 1e-3;
  /// Base RNG seed the member perturbations derive from.
  std::uint64_t ensemble_seed = 0x5eedu;
  /// Keep the individual member results inside RolloutResult::member_results
  /// (each bitwise identical to a solo rollout of that member's request).
  bool ensemble_keep_members = false;
};

/// Incremental executor for one request: the scheduler-facing state machine
/// behind run_rollout(), HybridScheduler and the serving layer's sessions.
/// The caller either lets step() drive the propagators directly, or
/// produces primary windows externally (micro-batched through a shared
/// engine) and feeds them to accept_primary_window() — the two paths run the
/// identical metric / guard / append code, which is what makes concurrent
/// serving bitwise identical to sequential rollouts.
class RolloutStream {
 public:
  /// @param primary   propagator producing normal windows (not owned)
  /// @param fallback  scheduled / guard fallback (not owned; may be null iff
  ///                  the guard is off and the request does not alternate)
  /// The seed is moved into the stream's history; request().seed is empty.
  RolloutStream(RolloutRequest request, Propagator* primary,
                Propagator* fallback);

  [[nodiscard]] bool done() const { return produced_ >= request_.steps; }
  /// True when the next window comes from the primary propagator (false when
  /// done, on a scheduled fallback window, or degraded by the guard).
  [[nodiscard]] bool primary_due() const {
    return !done() && turn_ == Turn::primary;
  }
  /// True while the guard holds the stream on the fallback (cool-down in
  /// progress, or degraded for good).
  [[nodiscard]] bool degraded() const {
    return !done() && (turn_ == Turn::cooldown || turn_ == Turn::degraded);
  }
  /// Snapshots the next window should produce (0 when done).
  [[nodiscard]] index_t next_window() const;

  /// Feed one primary-produced window of exactly next_window() snapshots
  /// (only valid while primary_due()). Computes metrics, runs the guard, and
  /// either appends the window or discards it and arms the fallback.
  void accept_primary_window(std::vector<FieldSnapshot>&& snaps);

  /// Same, with per-snapshot metrics the caller already computed (one per
  /// snapshot, from compute_metrics on these exact fields) — the ensemble
  /// round path judges on member metrics first and must not pay for them
  /// twice.
  void accept_primary_window(std::vector<FieldSnapshot>&& snaps,
                             std::vector<SnapshotMetrics>&& metrics);

  /// Produce the next window from the fallback propagator (scheduled,
  /// cool-down, or degraded; only valid while !primary_due()).
  void advance_fallback_window();

  /// Hand the stream to the fallback: cooldown_snapshots > 0 arms one
  /// cool-down window, 0 degrades for the remainder. The guard trip path
  /// calls this; so does serve::EnsembleSession, whose group-level
  /// spread-calibrated guard hands every member to the fallback together.
  /// Requires a fallback propagator.
  void force_degrade(index_t cooldown_snapshots);

  /// Advance one window through whichever side is due, driving the
  /// propagators directly. run_rollout() is a loop over this.
  void step();

  [[nodiscard]] const History& history() const { return history_; }
  [[nodiscard]] index_t produced() const { return produced_; }
  [[nodiscard]] const RolloutRequest& request() const { return request_; }
  [[nodiscard]] const RolloutResult& result() const { return result_; }
  [[nodiscard]] const RolloutGuard& guard() const { return guard_; }
  /// Move the accumulated result out (the stream must be done()).
  [[nodiscard]] RolloutResult take_result();

 private:
  enum class Turn { primary, scheduled, cooldown, degraded };

  void append_window(std::vector<FieldSnapshot>&& snaps,
                     std::vector<SnapshotMetrics>&& metrics,
                     const std::string& producer);

  RolloutRequest request_;
  Propagator* primary_;
  Propagator* fallback_;
  RolloutGuard guard_;
  History history_;
  RolloutResult result_;
  index_t produced_ = 0;
  Turn turn_ = Turn::primary;
  index_t fallback_len_ = 0;  ///< length of a scheduled / cool-down window
};

/// Run `request` to completion against `primary`, with `fallback` producing
/// the scheduled windows of an alternating request and taking over after
/// guard trips (required iff either is configured). serve::RolloutServer
/// produces byte-identical results per stream.
RolloutResult run_rollout(Propagator& primary, RolloutRequest request,
                          Propagator* fallback = nullptr);

/// True when two propagators agree on the snapshot spacing (to 1e-12
/// relative) — required of any pair whose windows alternate.
[[nodiscard]] bool same_dt_snap(const Propagator& a, const Propagator& b);

namespace detail {
/// Advance with the per-window obs accounting every scheduler shares
/// ("hybrid/<name>_window" span + "hybrid/<name>_snapshots" counter).
std::vector<FieldSnapshot> advance_timed(Propagator& propagator,
                                         const History& history,
                                         index_t count);
}  // namespace detail

}  // namespace turb::core
