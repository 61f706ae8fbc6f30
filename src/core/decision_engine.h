// DecisionEngine — the unified, memoized governor core the mission runner
// decides through (via runtime::NavigationPipeline; one engine per mission,
// or one shared by a fleet's concurrent missions).
//
// It owns the full per-decision path the paper's governor runs each sensor
// sweep:
//
//   space profiling (Table I)  ->  time budgeting (Eq. 1 / Alg. 1)
//       ->  Eq. 3 solve (exhaustive or pluggable strategy)  ->  policy
//
// It is the only RoboRun governor in src/ (every RoboRun mission decides
// through it), and it stays bit-identical to the seed implementation
// (frozen as tests/reference_governor.h) while adding a solver memo for
// decision-heavy traffic:
//
//  * Solver memoization. The exhaustive Eq. 3 enumeration
//    (GovernorSolver::pick) is a pure function of (knob budget,
//    KnobEnvelope): every other input reaches the solver only through those
//    seven doubles. Picks are cached in a generation-stamped,
//    allocation-free open-addressed table. The *quantized* key tuple picks
//    the bucket (nearby budgets/envelopes land in the same probe window,
//    keeping the table dense); a hit requires the stored key to match the
//    live key BIT FOR BIT, and GovernorSolver::resultFor re-derives the
//    feasibility flag / objective / deadline from the live inputs, on hits
//    and misses alike. A cached answer is therefore always identical to
//    what enumeration would have produced — quantization can only cost
//    hits, never correctness.
//
// Space profiling is core::profileSpace itself: every call samples from
// scratch, so the profile is a pure function of its inputs.
//
// Sharing contract (the fleet shape). One engine instance may be shared by
// any number of governor clients on any number of threads; because every
// answer is bit-identical regardless of memo state, sharing cannot change
// any client's decisions — it only trades warmth. Profiling keeps no state,
// so concurrent clients never contend there; the memo is built to scale
// instead of serialize:
//
//  * Sharded solver memo. The open-addressed memo table is striped across
//    16 independently locked shards selected by key hash; concurrent
//    decide() calls probe and insert in parallel, only colliding when their
//    keys land in the same shard. Enumeration on a miss runs outside any
//    lock (it is a pure function of the immutable solver), and a hit still
//    requires the full 7x64-bit key to match exactly, so cached answers
//    stay bit-identical to enumeration. There is no whole-engine mutex on
//    the decide path; stats are atomic counters.
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

#include <array>
#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string_view>
#include <vector>

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

/// Monotonic counters since construction (or the last resetStats()). A
/// plain struct is the whole stats API: fleet reports, benches and
/// perfbench read these fields directly.
struct EngineStats {
  std::uint64_t decisions = 0;
  std::uint64_t solver_memo_hits = 0;
  std::uint64_t solver_memo_misses = 0;  ///< exhaustive enumerations run
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

  /// Memo hits per Eq. 3 solve (0 when no solver decisions ran). On a
  /// fleet-shared engine this is the cross-tenant warmth metric: which hits
  /// land is scheduling-dependent, so treat it as a measurement — like wall
  /// time, never part of the deterministic replay contract. (profile_builds,
  /// by contrast, IS schedule-independent: one per profile of a trajectory
  /// with at least two points.)
  double solverMemoHitRate() const {
    const std::uint64_t solved = solver_memo_hits + solver_memo_misses;
    return solved == 0 ? 0.0 : static_cast<double>(solver_memo_hits) /
                                   static_cast<double>(solved);
  }
};

class DecisionEngine {
 public:
  struct Config {
    KnobConfig knobs;          ///< incl. fixed_overhead (the single source)
    BudgeterConfig budgeter;
    ProfilerConfig profiler;
    /// Solver memo capacity (total entries across all shards; rounded up so
    /// each shard is a power of two). 0 disables memoization — every
    /// decision enumerates; bench ablation surface.
    std::size_t solver_memo_capacity = 1024;
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

  /// The governor core: budget the profiled horizon, solve Eq. 3 (memoized
  /// on the exhaustive path), emit the policy. Bit-identical to the frozen
  /// reference::RoboRunGovernor::decide (tests/reference_governor.h) for
  /// every input, with or without the memo. Thread-safe; concurrent callers
  /// only contend per memo shard.
  GovernorDecision decide(const SpaceProfile& profile);

  /// Degraded-sensing fallback: the safe-envelope policy a governor pins
  /// while its sensors are blacked out — the coarsest precision the
  /// envelope admits, floor volumes (volumesAtScale(0)), and the budgeter's
  /// floor deadline, with budget_met = false so the decision reads as
  /// degraded downstream. A pure function of (knobs, profile): no memo, no
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
  /// memoized solver. Strategy decisions bypass the memo (strategies may
  /// carry state) and serialize on the strategy lock.
  void selectStrategy(StrategyType type, int patience = 3);
  /// Forget cross-decision strategy state (start of a new mission). The
  /// solver memo survives — entries are pure functions of their key, so
  /// they stay valid across missions.
  void resetStrategy();
  /// Drop every memo entry (O(1) per shard: generation bumps).
  void clearMemo();

  EngineStats stats() const;
  void resetStats();

  const KnobConfig& knobs() const { return config_.knobs; }
  const TimeBudgeter& budgeter() const { return budgeter_; }
  const LatencyPredictor& predictor() const { return predictor_; }
  double fixedOverhead() const { return config_.knobs.fixed_overhead; }

 private:
  /// Memo key: the exact bit patterns of (knob_budget, envelope). Hashing
  /// quantizes; matching never does.
  using MemoKey = std::array<std::uint64_t, 7>;

  struct MemoEntry {
    std::uint64_t generation = 0;  ///< 0 = never written
    MemoKey key{};
    /// The enumeration's pick; everything else (deadline, predicted
    /// latency, objective, budget_met) is re-derived by resultFor.
    SolverPick pick;
  };

  /// One stripe of the solver memo: its own lock, slots and generation.
  /// Shard choice comes from the quantized key hash's high bits, bucket
  /// choice within the shard from the low bits, so striping is independent
  /// of probe placement.
  struct MemoShard {
    mutable std::mutex mutex;
    std::vector<MemoEntry> slots;
    std::uint64_t generation = 1;
    std::uint64_t mask = 0;  ///< slots - 1 (0 when memoization disabled)
  };
  static constexpr std::size_t kMemoShards = 16;

  SolverResult solveMemoized(double budget, const SpaceProfile& profile);

  Config config_;
  TimeBudgeter budgeter_;
  LatencyPredictor predictor_;
  GovernorSolver solver_;  ///< bound to predictor_; immutable, so lock-free

  // Pluggable strategy (stateful, so serialized): the atomic flag lets the
  // common strategy-less fleet path skip the lock entirely.
  std::unique_ptr<SolverStrategy> strategy_;  ///< guarded by strategy_mutex_
  std::atomic<bool> has_strategy_{false};
  mutable std::mutex strategy_mutex_;

  // Sharded solver memo (allocation-free after construction).
  std::array<MemoShard, kMemoShards> memo_shards_;

  // Stats: lock-free counters (relaxed; read as a snapshot by stats()).
  struct AtomicStats {
    std::atomic<std::uint64_t> decisions{0};
    std::atomic<std::uint64_t> solver_memo_hits{0};
    std::atomic<std::uint64_t> solver_memo_misses{0};
    std::atomic<std::uint64_t> strategy_decisions{0};
    std::atomic<std::uint64_t> profile_builds{0};
  };
  AtomicStats stats_;
};

}  // namespace roborun::core
