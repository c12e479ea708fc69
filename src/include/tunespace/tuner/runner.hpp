#pragma once
// Tuning runner: replays the paper's §5.4 end-to-end experiment.
//
// Timeline model: the (real, measured) search-space construction latency is
// charged to a virtual clock first; every kernel evaluation then advances
// the clock by the simulated benchmark cost.  The runner records the
// best-configuration-so-far trajectory against the virtual clock, which is
// exactly what Figs. 6 and 7 plot — including the effect that slow
// construction methods burn minutes of the budget before the first
// configuration is ever measured.  This header holds a session's options
// and result; run_session (session.hpp) runs one.

#include <string>
#include <vector>

#include "tunespace/searchspace/searchspace.hpp"
#include "tunespace/tuner/kernels.hpp"
#include "tunespace/tuner/optimizers.hpp"
#include "tunespace/tuner/pipeline.hpp"

namespace tunespace::tuner {

/// One point of the best-so-far trajectory.  Improvements are judged by the
/// session's scalarized score; `measurement` is the incumbent's full
/// objective vector and `best_gflops` its throughput component (for scalar
/// sessions the two gflops values coincide, preserving the legacy shape).
struct TrajectoryPoint {
  double time_seconds = 0;   ///< virtual time of the improvement
  double best_gflops = 0;    ///< incumbent throughput up to that time
  std::size_t evaluations = 0;
  Measurement measurement{};   ///< incumbent objective vector

  friend bool operator==(const TrajectoryPoint&, const TrajectoryPoint&) = default;
};

/// Result of one tuning session.
struct TuningRun {
  std::string method_name;
  double construction_seconds = 0;  ///< measured, charged to the clock
  double budget_seconds = 0;
  double best_gflops = 0;           ///< incumbent's throughput component
  std::size_t evaluations = 0;
  std::vector<TrajectoryPoint> trajectory;
  ObjectiveSpec objectives{};  ///< the objective set the session optimized
  double best_score = 0;     ///< scalarized score of the incumbent
  Measurement best{};          ///< full objective vector of the incumbent
  /// Non-dominated measurements in evaluation order (insertion order of the
  /// virtual clock); maintained for scalar sessions too, where it holds
  /// just the incumbent.  Use pareto() for the canonical sorted view.
  std::vector<ParetoPoint> front;

  /// Best throughput found no later than `time`.  Contract (tested in
  /// test_tuner): a trajectory point exactly at `time` IS included (the
  /// improvement happens at that instant), and before the first recorded
  /// improvement — including any `time` < 0 — the result is 0.  For vector
  /// runs this is the gflops component of the scalarized incumbent, which
  /// may be below an earlier gflops reading if another objective paid for
  /// the trade; use pareto() to see the full front.
  double best_at(double time) const;

  /// The Pareto front in canonical order: descending scalarized score,
  /// ties broken by ascending view-local row.  Deterministic given the run
  /// (front insertion order is the virtual-clock evaluation order).
  std::vector<ParetoPoint> pareto() const;

  friend bool operator==(const TuningRun&, const TuningRun&) = default;
};

/// Options for a tuning session.
struct TuningOptions {
  double budget_seconds = 120.0;
  std::uint64_t seed = 1;
  /// Scale applied to measured construction latency before charging it to
  /// the virtual clock.  Figs. 6/7 replay a 30/10-minute A100 session in a
  /// compressed budget; scaling construction keeps its *relative* share of
  /// the budget comparable to the paper's (see EXPERIMENTS.md).
  double construction_time_scale = 1.0;
  /// Framework overhead charged per evaluation *request*, including cache
  /// hits (result lookup, bookkeeping).  Keeping this nonzero both models
  /// the real tuner loop and guarantees optimizers that revisit cached
  /// configurations (e.g. a converged genetic population) still consume
  /// budget and terminate.
  double overhead_per_request = 0.005;
  /// When >= 0, charge exactly this many virtual seconds of construction
  /// latency instead of the measured wall time.  Measured latency is
  /// machine noise, so two runs of the same session never replay the same
  /// virtual timeline; fixing the charge makes a session's TuningRun
  /// bit-reproducible — across repeats, thread counts, and between an
  /// isolated run_session call and the same session under a SessionManager.
  double fixed_construction_seconds = -1.0;
  /// Objective set of the session.  Defaults to the legacy single objective
  /// (maximize gflops); measurements are masked to this set before they
  /// enter any session state, and improvements are judged by its weighted
  /// scalarization.
  ObjectiveSpec objectives{};
  /// Opt-in cross-session transfer: seed the session with the shared eval
  /// cache's best rows for its cache fingerprint before the optimizer
  /// starts.  Seeds are ranked by scalarized score (descending, ties by
  /// ascending parent row), capped at the best 8, and charged as
  /// normal evaluations — they advance the clock, count into the
  /// trajectory/front and consume budget exactly like optimizer-requested
  /// rows.  Hard gate: with the option off, or with no cached rows for the
  /// fingerprint, the session is bit-identical to a cold run.
  bool warm_start = false;
};

}  // namespace tunespace::tuner
