#include "runtime/pipeline.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <numbers>
#include <stdexcept>

namespace roborun::runtime {

using core::Stage;
using geom::Vec3;

NavigationPipeline::NavigationPipeline(const geom::Aabb& world_extent, const Vec3& goal,
                                       const PipelineConfig& config, std::uint64_t seed)
    : config_(config),
      goal_(goal),
      octree_(std::make_unique<perception::OccupancyOctree>(world_extent, 0.3)),
      rng_(seed),
      latency_model_(config.latency) {}

bool NavigationPipeline::needsReplan(const perception::PlannerMap& map, const Vec3& position,
                                     double check_precision, std::size_t& steps_out) const {
  steps_out = 0;
  const auto& traj = follower_.trajectory();
  if (traj.empty()) return true;
  // Nearly consumed and not at the goal yet -> extend with a fresh plan.
  if (follower_.remaining() < config_.goal_radius &&
      traj.points().back().position.dist(goal_) > config_.goal_radius)
    return true;

  // Validate the remaining path against the newly communicated map.
  const auto& pts = traj.points();
  const double start_s = traj.closestArcLength(position);
  double acc = 0.0;
  for (std::size_t i = 1; i < pts.size(); ++i) {
    const double seg = pts[i].position.dist(pts[i - 1].position);
    acc += seg;
    if (acc + seg < start_s) continue;  // already flown
    const auto check = map.checkSegment(pts[i - 1].position, pts[i].position, check_precision);
    steps_out += check.steps;
    if (check.hit) return true;
  }
  return false;
}

Vec3 NavigationPipeline::selectLocalGoal(const perception::PlannerMap& map,
                                         const Vec3& position, double horizon) const {
  const Vec3 target = goal_override_.value_or(goal_);
  const Vec3 to_goal = target - position;
  const double dist = to_goal.norm();
  if (dist <= horizon) return target;
  const Vec3 dir = to_goal / dist;
  Vec3 lg = position + dir * horizon;
  if (!map.occupiedPoint(lg)) return lg;
  // Nudge around local blockage: try vertical and lateral offsets, then
  // shorter horizons.
  const Vec3 side = Vec3{-dir.y, dir.x, 0.0}.normalized();
  for (const double dz : {0.0, 1.5, 3.0}) {
    for (const double dy : {0.0, 6.0, -6.0, 12.0, -12.0}) {
      if (dz == 0.0 && dy == 0.0) continue;
      Vec3 candidate = lg + side * dy + Vec3{0, 0, dz};
      candidate.z = std::clamp(candidate.z, config_.altitude_min, config_.altitude_max);
      if (!map.occupiedPoint(candidate)) return candidate;
    }
  }
  for (double frac = 0.75; frac > 0.2; frac -= 0.25) {
    const Vec3 candidate = position + dir * (horizon * frac);
    if (!map.occupiedPoint(candidate)) return candidate;
  }
  return lg;
}

void NavigationPipeline::installEngine(std::shared_ptr<core::DecisionEngine> engine) {
  engine_ = std::move(engine);
}

core::EngineDecision NavigationPipeline::govern(const sim::SensorFrame& frame,
                                                const Vec3& position, const Vec3& velocity) {
  if (!engine_)
    throw std::logic_error(
        "NavigationPipeline::govern: no DecisionEngine installed (call installEngine())");
  const Vec3 travel = velocity.norm() > 0.2 ? velocity : (goal_ - position);
  return engine_->decideFromSensors(frame, *octree_, follower_.trajectory(), position,
                                    velocity, travel);
}

core::SpaceProfile NavigationPipeline::profileSpace(const sim::SensorFrame& frame,
                                                    const Vec3& position,
                                                    const Vec3& velocity) {
  if (!engine_)
    throw std::logic_error(
        "NavigationPipeline::profileSpace: no DecisionEngine installed (call installEngine())");
  const Vec3 travel = velocity.norm() > 0.2 ? velocity : (goal_ - position);
  return engine_->profile(frame, *octree_, follower_.trajectory(), position, velocity,
                          travel);
}

DecisionOutcome NavigationPipeline::decide(const sim::SensorFrame& frame, const Vec3& position,
                                           const core::PipelinePolicy& policy,
                                           double runtime_latency) {
  // The sync composition of the two stage methods, byte-identical to the
  // pre-split monolithic decide().
  const auto traj_positions = follower_.trajectory().positions();
  const PerceptionOutcome perception =
      integrateSweep(frame, position, policy, traj_positions, goal_override_.has_value());
  return planStage(perception, position, policy, runtime_latency);
}

PerceptionOutcome NavigationPipeline::integrateSweep(const sim::SensorFrame& frame,
                                                     const Vec3& position,
                                                     const core::PipelinePolicy& policy,
                                                     std::span<const geom::Vec3> traj_positions,
                                                     bool recovery_inflation) {
  // Span stamped with whatever epoch the executing lane is serving: the
  // sync loop's current epoch, or — on the epoch executor's worker — the
  // submitted sweep's epoch (set in workerLoop), so async overlap shows up
  // as an integrate span on its own lane overlapping the main lane.
  obs::ScopedSpan obs_span(config_.spans, obs::Stage::Integrate);
  PerceptionOutcome out;
  const auto& p_perc = policy.stage(Stage::Perception);
  const auto& p_bridge = policy.stage(Stage::PerceptionToPlanning);

  // --- Perception: point cloud kernel + precision operator ---
  auto ds = perception::downsample(perception::fromSensorFrame(frame), p_perc.precision);
  out.latencies.point_cloud = latency_model_.pointCloud(frame.rayCount());
  out.latencies.comm_point_cloud = config_.comm.cost(perception::byteSizeOf(ds.cloud));

  // --- Perception: OctoMap kernel (precision + volume operators) ---
  perception::OctomapInsertParams ins;
  ins.precision = p_perc.precision;
  ins.volume_budget = std::max(p_perc.volume, 1.0);
  out.octomap_report = perception::insertPointCloud(*octree_, ds.cloud, ins, traj_positions);
  out.latencies.octomap = latency_model_.octomap(out.octomap_report.ray_steps);

  // --- Perception-to-planning bridge (precision + volume operators) ---
  perception::BridgeParams bp;
  bp.precision = p_bridge.precision;
  bp.volume_budget = std::max(p_bridge.volume, 1.0);
  // Recovery replans (goal override) shave the inflation down to just above
  // the airframe radius: the drone must always be able to re-plan the path
  // it physically flew, or backtracking out of dead ends is impossible.
  // (Passed in as a flag: the async worker must not read goal_override_.)
  if (recovery_inflation) bp.inflation = 0.45;
  auto bridge = perception::buildPlannerMap(*octree_, position, bp);
  out.bridge_report = bridge.report;
  out.latencies.bridge = latency_model_.bridge(bridge.report.nodes);
  out.latencies.comm_map = config_.comm.cost(perception::byteSizeOf(bridge.msg));
  out.map_msg = std::move(bridge.msg);
  return out;
}

DecisionOutcome NavigationPipeline::planStage(const PerceptionOutcome& perception,
                                              const Vec3& position,
                                              const core::PipelinePolicy& policy,
                                              double runtime_latency) {
  obs::ScopedSpan obs_span(config_.spans, obs::Stage::Plan);
  DecisionOutcome out;
  out.latencies = perception.latencies;
  out.latencies.runtime = runtime_latency;
  out.octomap_report = perception.octomap_report;
  out.bridge_report = perception.bridge_report;

  const auto& p_plan = policy.stage(Stage::Planning);
  const perception::PlannerMap& planner_map = perception.map_msg.map;

  // --- Planning: replan check, planner (RRT* or pooled A*), smoothing ---
  std::size_t monitor_steps = 0;
  const bool replan =
      needsReplan(planner_map, position, p_plan.precision, monitor_steps);
  std::size_t planning_steps = monitor_steps;

  if (replan) {
    out.replanned = true;
    const auto plan_wall_start = std::chrono::steady_clock::now();
    // Plan only as far as the planner's volume knob lets it explore: a small
    // budget (tight deadline) means short hops; an open-space budget means
    // the full horizon. Without this coupling, a volume-starved RRT* would
    // chase an unreachable goal and fail forever.
    // NOTE: this literal is intentionally frozen (not std::numbers::pi).
    // Missions are chaotic in their inputs: changing the constant by 1e-14
    // reroutes whole trajectories, and the validated regression baselines
    // (fixture seeds, tests/reference_mission.h, the figures
    // bench/paper_report.cpp prints) were recorded against this value.
    const double v2_radius =
        std::cbrt(3.0 * std::max(p_plan.volume, 1.0) / (4.0 * 3.14159265358979));
    const double horizon =
        std::clamp(0.9 * v2_radius, 8.0, config_.replan_horizon);
    const Vec3 local_goal = selectLocalGoal(planner_map, position, horizon);

    const geom::Aabb root = octree_->rootBox();
    const double x_lo = std::min(position.x, local_goal.x) - 15.0;
    const double x_hi = std::max(position.x, local_goal.x) + 15.0;
    const geom::Aabb plan_bounds{
        {x_lo, std::min(position.y, local_goal.y) - config_.lateral_margin,
         std::max(config_.altitude_min, root.lo.z)},
        {x_hi, std::max(position.y, local_goal.y) + config_.lateral_margin,
         std::min(root.hi.z, std::max(config_.altitude_max, position.z + 0.5))}};

    std::vector<Vec3> plan_path;
    bool plan_found = false;
    if (config_.planner_mode == PlannerMode::RrtStar) {
      planning::RrtParams rp;
      rp.bounds = plan_bounds;
      rp.step = config_.rrt_step;
      rp.max_iterations = config_.rrt_max_iterations;
      rp.volume_budget = std::max(p_plan.volume, rp.step * rp.step * rp.step);
      rp.check_precision = p_plan.precision;

      auto rrt = planning::planPath(planner_map, position, local_goal, rp, rng_,
                                    config_.shared_arena ? *config_.shared_arena : arena_);
      out.rrt_report = rrt.report;
      planning_steps += rrt.report.check_steps;
      plan_found = rrt.report.found;
      plan_path = std::move(rrt.path);
    } else {
      planning::AStarParams ap;
      ap.bounds = plan_bounds;
      ap.cell = 0.0;  // the map's own snapped precision
      ap.goal_tolerance = config_.astar_goal_tolerance;
      ap.max_expansions = config_.astar_max_expansions;
      auto astar = planning::planPathAStar(planner_map, position, local_goal, ap,
                                           config_.shared_arena ? *config_.shared_arena : arena_);
      out.astar_report = astar.report;
      planning_steps += astar.report.generated;
      plan_found = astar.report.found;
      plan_path = std::move(astar.path);
    }

    if (plan_found) {
      // Covers smoothing plus the trajectory handoff to the follower —
      // nested inside this epoch's plan span.
      obs::ScopedSpan smooth_span(config_.spans, obs::Stage::Smooth);
      planning::SmootherParams sp;
      sp.v_max = config_.v_max;
      sp.a_max = config_.a_max;
      sp.check_precision = p_plan.precision;
      auto smooth = planning::smoothPath(plan_path, planner_map, sp);
      out.smoother_report = smooth.report;
      out.latencies.smoothing = latency_model_.smoother(smooth.report.segments);
      planning_steps += smooth.report.check_steps;
      follower_.setTrajectory(smooth.trajectory);
      out.latencies.comm_trajectory =
          config_.comm.cost(planning::byteSizeOf(smooth.trajectory));
    } else {
      out.plan_failed = true;
      // The old trajectory is invalid (that is why we replanned) and no new
      // one exists: clear it so the budgeter/profilers don't reason over a
      // path the vehicle refuses to fly.
      follower_.setTrajectory(planning::Trajectory{});
    }
    out.plan_wall_ms = std::chrono::duration<double, std::milli>(
                           std::chrono::steady_clock::now() - plan_wall_start)
                           .count();
  }
  // Work-unit latency: RRT* charges sampling iterations, the A* modes
  // charge node expansions; collision/march work rides in planning_steps
  // either way.
  const std::size_t planner_iterations = config_.planner_mode == PlannerMode::RrtStar
                                             ? out.rrt_report.iterations
                                             : out.astar_report.expansions;
  out.latencies.planning = latency_model_.planner(planner_iterations, planning_steps);
  return out;
}

}  // namespace roborun::runtime
