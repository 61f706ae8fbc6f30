// DecisionEngine — the unified governor core the mission runner decides
// through (via runtime::NavigationPipeline; one engine per mission, or one
// shared by a fleet's concurrent missions).
//
// It owns the full per-decision path the paper's governor runs each sensor
// sweep:
//
//   space profiling (Table I)  ->  time budgeting (Eq. 1 / Alg. 1)
//       ->  Eq. 3 solve (exhaustive or pluggable strategy)  ->  policy
//
// It is the only RoboRun governor in src/ (every RoboRun mission decides
// through it), and it stays bit-identical to the seed implementation
// (frozen as tests/reference_governor.h). The exhaustive solve is
// GovernorSolver::pick over (knob budget, KnobEnvelope), then
// GovernorSolver::resultFor; it enumerates every decision.
//
// Space profiling is core::profileSpace itself: every call samples from
// scratch, so the profile is a pure function of its inputs.
//
// Sharing contract (the fleet shape). One engine instance may be shared by
// any number of governor clients on any number of threads. The exhaustive
// path keeps no state and takes no lock, and profiling keeps no state, so
// sharing cannot change any client's decisions. Stats are atomic counters.
//
// The engine reads no clock. Its only timing is the Govern "profile" /
// "budget" / "solve" spans on Config::spans, which cost one branch per site
// when no recorder is set.
//
// Pluggable strategies may carry cross-decision state, so strategy solves
// serialize on a dedicated strategy lock (fleet sharing is Exhaustive-only
// by MissionConfig::shared_engine's contract, so this never gates fleet
// traffic). Install strategies before sharing an engine across threads —
// installation is not synchronized with in-flight decisions.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>

#include "core/governor.h"
#include "core/knob_config.h"
#include "core/latency_predictor.h"
#include "core/profilers.h"
#include "core/solver.h"
#include "core/strategies.h"
#include "core/time_budgeter.h"
#include "obs/span_recorder.h"

namespace roborun::sim {
class LatencyModel;
}

namespace roborun::core {

/// One full sensor-path decision: the profile the governor saw and the
/// policy it emitted.
struct EngineDecision {
  SpaceProfile profile;
  GovernorDecision decision;
};

/// Monotonic counters since construction. A plain struct is the whole stats
/// API: fleet reports, benches and perfbench read these fields directly.
struct EngineStats {
  std::uint64_t decisions = 0;
  /// Always 0: the engine keeps no solver memo. Declared only because
  /// perfbench's stat summing and its core.memo_hit_rate still name them.
  std::uint64_t solver_memo_hits = 0;
  std::uint64_t solver_memo_misses = 0;
  std::uint64_t strategy_decisions = 0;  ///< routed to a pluggable strategy
  std::uint64_t profile_builds = 0;  ///< trajectory sample passes run
  /// Always 0: every profile is sampled from scratch. Declared only because
  /// perfbench's stat summing still names it.
  std::uint64_t profile_reuses = 0;
  /// Always 0: the engine reads no clock (time its stages with the Govern
  /// spans instead). Declared only because perfbench's stat summing still
  /// names them.
  double profile_wall_ms = 0.0;
  double budget_wall_ms = 0.0;
  double solve_wall_ms = 0.0;

  /// Always 0 (see solver_memo_hits). Declared only because perfbench
  /// still names it.
  double solverMemoHitRate() const { return 0.0; }
};

class DecisionEngine {
 public:
  struct Config {
    KnobConfig knobs;          ///< incl. fixed_overhead (the single source)
    BudgeterConfig budgeter;
    ProfilerConfig profiler;
    /// Span recorder for the governor sub-stages (Govern spans with detail
    /// "profile" / "budget" / "solve"). Pure measurement channel — null
    /// (the default) costs one branch per site and nothing else, and a
    /// non-null recorder can never change a decision.
    obs::SpanRecorder* spans = nullptr;
  };

  DecisionEngine(const Config& config, LatencyPredictor predictor);

  /// Build an engine whose Eq. 4 predictor is freshly calibrated against
  /// the given simulator latency model (core/latency_calibration.h). This
  /// is how the mission runner and the fleet scheduler build engines: the
  /// latency-model -> predictor feedback stays behind the engine boundary,
  /// so clients hand over ground truth, never fitted coefficients.
  static std::shared_ptr<DecisionEngine> calibrated(const sim::LatencyModel& latency_model,
                                                    const Config& config);

  /// The governor core: budget the profiled horizon, solve Eq. 3, emit the
  /// policy. Bit-identical to the frozen reference::RoboRunGovernor::decide
  /// (tests/reference_governor.h) for every input. Thread-safe; the
  /// exhaustive path takes no lock.
  GovernorDecision decide(const SpaceProfile& profile);

  /// Degraded-sensing fallback: the safe-envelope policy a governor pins
  /// while its sensors are blacked out — the coarsest precision the
  /// envelope admits, floor volumes (volumesAtScale(0)), and the budgeter's
  /// floor deadline, with budget_met = false so the decision reads as
  /// degraded downstream. A pure function of (knobs, profile): no
  /// strategy, no state, so it is trivially thread-safe and
  /// bit-reproducible. Used by the mission runner during FaultPlan
  /// blackout epochs (the drone hovers; the pipeline keeps ticking at
  /// minimum cost so the map and trajectory stay warm for recovery).
  GovernorDecision blackoutFallback(const SpaceProfile& profile) const;

  /// The full per-decision path: profile space from the live sensor frame /
  /// map / trajectory, then decide().
  EngineDecision decideFromSensors(const sim::SensorFrame& frame,
                                   const perception::OccupancyOctree& map,
                                   const planning::Trajectory& trajectory,
                                   const geom::Vec3& position, const geom::Vec3& velocity,
                                   const geom::Vec3& travel_dir);

  /// Space profiling only: core::profileSpace under this engine's
  /// ProfilerConfig, counted in profile_builds. Stateless and thread-safe.
  SpaceProfile profile(const sim::SensorFrame& frame,
                       const perception::OccupancyOctree& map,
                       const planning::Trajectory& trajectory, const geom::Vec3& position,
                       const geom::Vec3& velocity, const geom::Vec3& travel_dir);

  /// Route Eq. 3 through an alternative strategy (core/strategies.h), bound
  /// to this engine's predictor. Exhaustive clears back to the built-in
  /// enumeration. Strategy decisions (strategies may carry state)
  /// serialize on the strategy lock.
  void selectStrategy(StrategyType type, int patience = 3);

  EngineStats stats() const;

  const KnobConfig& knobs() const { return config_.knobs; }
  const TimeBudgeter& budgeter() const { return budgeter_; }
  const LatencyPredictor& predictor() const { return predictor_; }
  double fixedOverhead() const { return config_.knobs.fixed_overhead; }

 private:
  Config config_;
  TimeBudgeter budgeter_;
  LatencyPredictor predictor_;
  GovernorSolver solver_;  ///< bound to predictor_; immutable, so lock-free

  // Pluggable strategy (stateful, so serialized): the atomic flag lets the
  // common strategy-less fleet path skip the lock entirely.
  std::unique_ptr<SolverStrategy> strategy_;  ///< guarded by strategy_mutex_
  std::atomic<bool> has_strategy_{false};
  mutable std::mutex strategy_mutex_;

  // Stats: lock-free counters (relaxed; read as a snapshot by stats()).
  struct AtomicStats {
    std::atomic<std::uint64_t> decisions{0};
    std::atomic<std::uint64_t> strategy_decisions{0};
    std::atomic<std::uint64_t> profile_builds{0};
  };
  AtomicStats stats_;
};

}  // namespace roborun::core
