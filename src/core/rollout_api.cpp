#include "core/rollout_api.hpp"

#include <algorithm>
#include <cmath>
#include <utility>

#include "obs/obs.hpp"

namespace turb::core {

namespace detail {

std::vector<FieldSnapshot> advance_timed(Propagator& propagator,
                                         const History& history,
                                         index_t count) {
  obs::ScopedTimer span(
      obs::timer("hybrid/" + propagator.name() + "_window"));
  obs::counter("hybrid/" + propagator.name() + "_snapshots").add(count);
  return propagator.advance(history, count);
}

}  // namespace detail

bool same_dt_snap(const Propagator& a, const Propagator& b) {
  return std::abs(a.dt_snap() - b.dt_snap()) < 1e-12 * a.dt_snap();
}

RolloutStream::RolloutStream(RolloutRequest request, Propagator* primary,
                             Propagator* fallback)
    : request_(std::move(request)),
      primary_(primary),
      fallback_(fallback),
      guard_(request_.guard) {
  TURB_CHECK(primary_ != nullptr);
  TURB_CHECK(request_.steps >= 1);
  TURB_CHECK(request_.window >= 1);
  TURB_CHECK(request_.fallback_window >= 0);
  TURB_CHECK(request_.batch_hint >= 1);
  TURB_CHECK_MSG(!request_.seed.empty(), "empty seed history");
  TURB_CHECK_MSG(
      static_cast<index_t>(request_.seed.size()) >= primary_->min_history(),
      "seed holds " << request_.seed.size() << " snapshots but "
                    << primary_->name() << " needs "
                    << primary_->min_history());
  TURB_CHECK(request_.max_history >= primary_->min_history());
  TURB_CHECK_MSG(!request_.guard.enabled || fallback_ != nullptr,
                 "guarded rollout requests need a fallback propagator");
  if (request_.fallback_window > 0) {
    TURB_CHECK_MSG(fallback_ != nullptr,
                   "alternating rollout requests need a fallback propagator");
    TURB_CHECK_MSG(same_dt_snap(*primary_, *fallback_),
                   "propagators disagree on snapshot spacing: "
                       << primary_->dt_snap() << " vs "
                       << fallback_->dt_snap());
  }
  TURB_CHECK_MSG(request_.ensemble_k == 1,
                 "a RolloutStream executes one member; K-member ensembles "
                 "are fanned out by serve::RolloutServer");
  history_ = std::move(request_.seed);
  request_.seed.clear();
  result_.trajectory.reserve(static_cast<std::size_t>(request_.steps));
}

index_t RolloutStream::next_window() const {
  const index_t left = request_.steps - produced_;
  const bool fixed = turn_ == Turn::scheduled || turn_ == Turn::cooldown;
  return std::max<index_t>(
      std::min(fixed ? fallback_len_ : request_.window, left), 0);
}

void RolloutStream::append_window(std::vector<FieldSnapshot>&& snaps,
                                  std::vector<SnapshotMetrics>&& metrics,
                                  const std::string& producer) {
  const auto count = static_cast<index_t>(snaps.size());
  for (std::size_t i = 0; i < snaps.size(); ++i) {
    result_.metrics.push_back(metrics[i]);
    result_.producer.push_back(producer);
    history_.push_back(snaps[i]);
    result_.trajectory.push_back(std::move(snaps[i]));
    while (static_cast<index_t>(history_.size()) > request_.max_history) {
      history_.pop_front();
    }
  }
  produced_ += count;
}

void RolloutStream::accept_primary_window(
    std::vector<FieldSnapshot>&& snaps) {
  std::vector<SnapshotMetrics> metrics = compute_metrics(snaps);
  accept_primary_window(std::move(snaps), std::move(metrics));
}

void RolloutStream::accept_primary_window(
    std::vector<FieldSnapshot>&& snaps,
    std::vector<SnapshotMetrics>&& metrics) {
  TURB_CHECK_MSG(primary_due(), "primary window fed out of turn");
  TURB_CHECK_MSG(static_cast<index_t>(snaps.size()) == next_window(),
                 "window holds " << snaps.size() << " snapshots, expected "
                                 << next_window());
  TURB_CHECK_MSG(metrics.size() == snaps.size(),
                 "window holds " << snaps.size() << " snapshots but "
                                 << metrics.size() << " metric rows");

  if (request_.guard.enabled) {
    GuardTrip trip = GuardTrip::none;
    double value = 0.0;
    std::size_t bad = 0;
    for (std::size_t i = 0; i < snaps.size(); ++i) {
      trip = guard_.check(snaps[i], metrics[i], &value);
      if (trip != GuardTrip::none) {
        bad = i;
        break;
      }
    }
    if (trip != GuardTrip::none) {
      // Discard the whole window (the model was already leaving the
      // attractor before the offending snapshot) and hand the stream to the
      // fallback for one cool-down window — or for good when neither a
      // cool-down nor an alternation window is configured.
      obs::counter("robust/guard_trips").add();
      result_.guard_events.push_back(
          {static_cast<index_t>(result_.trajectory.size()), snaps[bad].t,
           trip, value});
      force_degrade(request_.guard.cooldown_snapshots > 0
                        ? request_.guard.cooldown_snapshots
                        : request_.fallback_window);
      return;
    }
  }
  append_window(std::move(snaps), std::move(metrics), primary_->name());
  if (request_.fallback_window > 0) {
    turn_ = Turn::scheduled;
    fallback_len_ = request_.fallback_window;
  }
}

void RolloutStream::advance_fallback_window() {
  TURB_CHECK_MSG(fallback_ != nullptr, "stream has no fallback propagator");
  TURB_CHECK_MSG(!done() && !primary_due(), "no fallback window is due");
  const index_t count = next_window();
  std::vector<FieldSnapshot> snaps =
      detail::advance_timed(*fallback_, history_, count);
  std::vector<SnapshotMetrics> metrics = compute_metrics(snaps);
  if (turn_ == Turn::scheduled) {
    append_window(std::move(snaps), std::move(metrics), fallback_->name());
  } else {
    append_window(std::move(snaps), std::move(metrics),
                  fallback_->name() + "_fallback");
    obs::counter("robust/fallback_windows").add();
    obs::counter("robust/fallback_snapshots").add(count);
  }
  if (turn_ != Turn::degraded) turn_ = Turn::primary;
}

void RolloutStream::force_degrade(index_t cooldown_snapshots) {
  TURB_CHECK_MSG(fallback_ != nullptr,
                 "degrading a stream needs a fallback propagator");
  turn_ = cooldown_snapshots > 0 ? Turn::cooldown : Turn::degraded;
  fallback_len_ = cooldown_snapshots;
}

void RolloutStream::step() {
  if (primary_due()) {
    accept_primary_window(
        detail::advance_timed(*primary_, history_, next_window()));
  } else {
    advance_fallback_window();
  }
}

RolloutResult RolloutStream::take_result() {
  TURB_CHECK_MSG(done(), "take_result on an unfinished stream");
  return std::move(result_);
}

RolloutResult run_rollout(Propagator& primary, RolloutRequest request,
                          Propagator* fallback) {
  RolloutStream stream(std::move(request), &primary, fallback);
  while (!stream.done()) stream.step();
  return stream.take_result();
}

}  // namespace turb::core
