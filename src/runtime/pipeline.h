// The navigation pipeline: perception -> perception-to-planning -> planning
// -> control, executing one decision per sensor sweep under a knob policy.
//
// Each stage output that ROS would carry between nodes (downsampled point
// cloud, planner map, trajectory) is charged a communication latency from
// its payload size through sim::CommModel; the per-stage compute latencies
// come from each kernel's work report through the deterministic latency
// model.
#pragma once

#include <memory>
#include <optional>
#include <span>
#include <string>

#include "control/follower.h"
#include "core/decision_engine.h"
#include "core/policy.h"
#include "geom/rng.h"
#include "obs/span_recorder.h"
#include "perception/map_bridge.h"
#include "perception/octomap_kernel.h"
#include "perception/octree.h"
#include "perception/planner_map.h"
#include "perception/point_cloud.h"
#include "planning/astar.h"
#include "planning/planner_arena.h"
#include "planning/rrt_star.h"
#include "planning/smoother.h"
#include "runtime/metrics.h"
#include "sim/latency_model.h"
#include "sim/sensor.h"

namespace roborun::runtime {

/// Which planner fills the planning stage. RrtStar is the paper's design
/// and the default — mission results in this mode are byte-identical to the
/// seed. AStar runs the deterministic pooled lattice planner instead (same
/// maps, same smoothing), searching from scratch on every replan.
/// AStarIncremental is a deprecated alias of AStar kept for callers that
/// still name it; it selects the identical planner.
enum class PlannerMode { RrtStar, AStar, AStarIncremental = AStar };

/// How the mission runner schedules the pipeline's stages within an epoch.
/// Both modes run the one mission loop (runtime::runMission); Async is a
/// branch in it that changes where sweep N is integrated and which map the
/// planner reads.
///
/// Sync is the frozen reference: every stage of epoch N runs to completion
/// on the calling thread before the interval is flown — mission results are
/// byte-identical to the pre-pipelining loop (tests/reference_mission.h,
/// enforced by pipeline_equivalence_test and bench_mission_latency's
/// anchor check). Async overlaps the expensive perception work (octree ray
/// integration + bridge rebuild) of sweep N with the governing, planning
/// and flying of the decision interval, double-buffered by epoch parity:
/// the governor still sees the map through sweep N-1 (exactly what sync's
/// govern sees — insertion happens after governing either way) and the
/// planner consumes the newest *published* map snapshot, which is at most
/// one sweep stale (runtime/epoch_executor.h). Async missions satisfy the
/// same safety invariants and are deterministic run-to-run, but their
/// records are NOT byte-comparable to sync's (planning inputs lag a sweep).
enum class ExecutionMode { Sync, Async };

inline const char* executionModeName(ExecutionMode m) {
  return m == ExecutionMode::Sync ? "sync" : "async";
}

inline bool parseExecutionMode(const std::string& name, ExecutionMode& out) {
  if (name == "sync") out = ExecutionMode::Sync;
  else if (name == "async") out = ExecutionMode::Async;
  else return false;
  return true;
}

struct PipelineConfig {
  double v_max = 3.2;              ///< m/s; design velocity cap (smoother profile)
  double a_max = 4.0;              ///< m/s^2
  double replan_horizon = 60.0;    ///< m; local-goal distance cap
  double goal_radius = 5.0;        ///< m; arrival tolerance
  double lateral_margin = 40.0;    ///< m; RRT* sampling box half-width
  double altitude_min = 1.0;       ///< m; planning altitude band (missions fly
  double altitude_max = 8.0;       ///< near the nominal cruise height; no
                                   ///< roof-hopping over warehouse racks)
  std::size_t rrt_max_iterations = 3000;
  double rrt_step = 4.0;           ///< m
  PlannerMode planner_mode = PlannerMode::RrtStar;  ///< design knob (see enum)
  /// Stage scheduling within each mission epoch (see enum). Sync (default)
  /// is the byte-identical reference; Async overlaps perception with
  /// planning/flying for lower wall time and decision latency.
  ExecutionMode execution = ExecutionMode::Sync;
  double astar_goal_tolerance = 3.0;      ///< m; A*-mode goal acceptance
  std::size_t astar_max_expansions = 200000;
  sim::LatencyConfig latency;
  sim::CommModel comm;
  /// Fleet hook: a borrowed persistent PlannerArena used instead of the
  /// pipeline's own. Every planner call resets the arena (O(1) stamps) on
  /// entry, so results are bit-identical whether the arena is fresh or has
  /// served a thousand prior missions — lending one arena per WORKER lets a
  /// fleet scheduler keep steady-state replanning allocation-free across
  /// missions. The arena is not synchronized: it must never be lent to two
  /// concurrently deciding pipelines. Null (the default) keeps the
  /// pipeline's private arena.
  planning::PlannerArena* shared_arena = nullptr;
  /// Observability hook: when non-null, the pipeline's stage methods (and
  /// the mission loop / epoch executor driving them) record epoch-stamped
  /// spans into this recorder. A MEASUREMENT channel, strictly outside the
  /// bitwise replay contract — results are byte-identical with it on or
  /// off (the tier2 byte-identity suite pins this). Null (the default)
  /// costs one branch per instrumentation site and nothing else.
  obs::SpanRecorder* spans = nullptr;
};

/// Everything one sensor sweep's perception half produces: the modeled
/// stage latencies for the perception stages, the kernels' work reports,
/// and the planner map the bridge built. Built by
/// NavigationPipeline::integrateSweep — on the calling thread in sync mode,
/// on the epoch executor's worker in async mode — and handed back to the
/// pipeline via planStage.
struct PerceptionOutcome {
  /// Only the perception fields are populated: point_cloud, octomap,
  /// bridge, comm_point_cloud, comm_map. planStage fills the rest.
  StageLatencies latencies;
  perception::OctomapInsertReport octomap_report;
  perception::BridgeReport bridge_report;
  perception::PlannerMapMsg map_msg;   ///< the bridge's output
};

struct DecisionOutcome {
  StageLatencies latencies;
  bool replanned = false;
  bool plan_failed = false;
  perception::OctomapInsertReport octomap_report;
  perception::BridgeReport bridge_report;
  planning::RrtReport rrt_report;
  planning::SmootherReport smoother_report;
  planning::AStarReport astar_report;  ///< populated in the A* planner modes
  /// Measured wall time of this decision's replan (planner + smoother), in
  /// milliseconds; 0.0 when the decision did not replan. A measurement of
  /// this run — NOT deterministic, excluded from the replay contract (the
  /// modeled `latencies` drive all decisions).
  double plan_wall_ms = 0.0;
};

/// Owns the world model (octree), the planner state, and the follower.
class NavigationPipeline {
 public:
  NavigationPipeline(const geom::Aabb& world_extent, const geom::Vec3& goal,
                     const PipelineConfig& config, std::uint64_t seed);

  /// Execute one decision with the given policy. `runtime_latency` is the
  /// governor's own cost (charged to the runtime stage). Composed of the
  /// two stage methods below (integrateSweep -> planStage) — the
  /// composition is byte-identical to the pre-split monolithic decide() and
  /// IS the sync execution mode.
  DecisionOutcome decide(const sim::SensorFrame& frame, const geom::Vec3& position,
                         const core::PipelinePolicy& policy, double runtime_latency);

  // --- Stage methods (the async executor drives these individually) ---

  /// Perception half of a decision: downsample the sweep, integrate it into
  /// the octree, rebuild the planner map through the bridge. Mutates ONLY
  /// the world-model state (octree_) — no RNG — so the epoch executor may
  /// run it on its worker thread while the calling thread governs/plans/
  /// flies on the previously integrated snapshot. `traj_positions` is the
  /// planned path to prioritize (captured by the caller; sync passes the
  /// live trajectory) and
  /// `recovery_inflation` is goal_override_.has_value() captured at the
  /// same instant (the worker must not read goal_override_ — the mission
  /// runner writes it concurrently).
  PerceptionOutcome integrateSweep(const sim::SensorFrame& frame, const geom::Vec3& position,
                                   const core::PipelinePolicy& policy,
                                   std::span<const geom::Vec3> traj_positions,
                                   bool recovery_inflation);

  /// Planning half of a decision: replan check against `perception`'s map,
  /// plan + smooth if needed, charge planning/comm latencies. Copies
  /// `perception`'s latencies/reports into the returned outcome so one
  /// DecisionOutcome per epoch keeps its sync shape.
  DecisionOutcome planStage(const PerceptionOutcome& perception, const geom::Vec3& position,
                            const core::PipelinePolicy& policy, double runtime_latency);

  /// Install the shared decision engine this pipeline governs through. The
  /// engine may be shared with any number of clients (it is internally
  /// synchronized and answers are bit-identical either way).
  void installEngine(std::shared_ptr<core::DecisionEngine> engine);
  core::DecisionEngine* engine() { return engine_.get(); }
  const core::DecisionEngine* engine() const { return engine_.get(); }

  /// One governor decision over the live sensor frame and this pipeline's
  /// own map + trajectory: profile -> budget -> Eq. 3 solve. Requires an
  /// installed engine. The travel-direction fallback when hovering is
  /// toward the mission goal (the decide-then-fly loop's convention).
  core::EngineDecision govern(const sim::SensorFrame& frame, const geom::Vec3& position,
                              const geom::Vec3& velocity);

  /// Space profiling only (the spatial-oblivious design still profiles for
  /// its velocity governor and records). Requires an installed engine.
  core::SpaceProfile profileSpace(const sim::SensorFrame& frame, const geom::Vec3& position,
                                  const geom::Vec3& velocity);

  const perception::OccupancyOctree& map() const { return *octree_; }
  const control::TrajectoryFollower& follower() const { return follower_; }
  control::TrajectoryFollower& follower() { return follower_; }
  const geom::Vec3& goal() const { return goal_; }
  const PipelineConfig& config() const { return config_; }

  /// The current planned trajectory (empty before the first plan).
  const planning::Trajectory& trajectory() const { return follower_.trajectory(); }

  /// Recovery override: when set, replans target this point instead of the
  /// mission goal (the mission runner uses it to backtrack along its own
  /// flown breadcrumbs out of dead ends). Cleared by the runner once a plan
  /// succeeds.
  void setGoalOverride(const std::optional<geom::Vec3>& goal) { goal_override_ = goal; }
  const std::optional<geom::Vec3>& goalOverride() const { return goal_override_; }

 private:
  bool needsReplan(const perception::PlannerMap& map, const geom::Vec3& position,
                   double check_precision, std::size_t& steps_out) const;
  geom::Vec3 selectLocalGoal(const perception::PlannerMap& map, const geom::Vec3& position,
                             double horizon) const;

  PipelineConfig config_;
  geom::Vec3 goal_;
  std::optional<geom::Vec3> goal_override_;
  std::unique_ptr<perception::OccupancyOctree> octree_;
  control::TrajectoryFollower follower_;
  /// The unified governor core (may be shared across pipelines/threads);
  /// null until installEngine().
  std::shared_ptr<core::DecisionEngine> engine_;
  // Persistent planner storage: one arena reused by every replan of this
  // pipeline (RRT* tree/grid or pooled A*) unless the config lends one.
  // Only storage persists — every search starts from scratch.
  planning::PlannerArena arena_;
  geom::Rng rng_;
  sim::LatencyModel latency_model_;
};

}  // namespace roborun::runtime
