#include "runtime/mission.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <optional>
#include <stdexcept>
#include <string>

#include "core/decision_engine.h"
#include "runtime/epoch_executor.h"

namespace roborun::runtime {

namespace {

using geom::Vec3;

/// Cooperative wall-clock watchdog token: armed once at mission start,
/// polled at the top of every decision epoch. Wall time is a measurement of
/// this run (like every *_wall_ms field), so the token never feeds the
/// simulation — it only bounds how long a mission may occupy its worker.
class WallDeadline {
 public:
  explicit WallDeadline(double max_wall_ms) : armed_(max_wall_ms > 0.0) {
    if (armed_)
      deadline_ = std::chrono::steady_clock::now() +
                  std::chrono::duration_cast<std::chrono::steady_clock::duration>(
                      std::chrono::duration<double, std::milli>(max_wall_ms));
  }
  bool expired() const {
    return armed_ && std::chrono::steady_clock::now() >= deadline_;
  }

 private:
  bool armed_;
  std::chrono::steady_clock::time_point deadline_{};
};

/// Collision probe: the drone's airframe against the ground-truth world and
/// the dynamic obstacle field (evaluated at its current time).
bool inCollision(const env::World& world, const env::DynamicObstacleField& dynamic,
                 const Vec3& p, double radius) {
  // Static-only missions skip the dynamic-field probes entirely (the sensor
  // path already guards this; the collision probe runs every sim substep,
  // so 5 no-op field scans per substep add up).
  const bool probe_dynamic = !dynamic.empty();
  if (world.occupied(p) || (probe_dynamic && dynamic.occupied(p))) return true;
  const Vec3 offsets[4] = {{radius, 0, 0}, {-radius, 0, 0}, {0, radius, 0}, {0, -radius, 0}};
  for (const auto& o : offsets)
    if (world.occupied(p + o) || (probe_dynamic && dynamic.occupied(p + o))) return true;
  return false;
}

}  // namespace

MissionResult runMission(const env::Environment& environment, DesignType design,
                         const MissionConfig& config) {
  const env::World& world = *environment.world;
  const Vec3 start = environment.spec.start();
  const Vec3 goal = environment.spec.goal();

  sim::DepthCameraArray sensor(config.sensor);
  env::DynamicObstacleField dynamic = config.dynamic_obstacles;
  dynamic.setTime(0.0);
  sim::Drone drone(config.drone);
  drone.reset(start);
  sim::EnergyModel energy(config.energy);
  sim::StoppingModel stopping = config.budgeter.stopping;

  NavigationPipeline pipeline(world.extent(), goal, config.pipeline,
                              config.seed * 2654435761ULL + 1);

  // The governor core. Both designs profile space through the pipeline's
  // DecisionEngine (which calls core::profileSpace); RoboRun additionally
  // budgets + solves through it. A fleet-shared engine is used when the
  // config lends one; otherwise the Eq. 4 latency model is calibrated
  // once at startup, behind the engine boundary. Stateful solver
  // strategies must stay per-mission, so the shared path is Exhaustive-only
  // (the hook's contract; see MissionConfig::shared_engine).
  if (config.shared_engine && config.solver_strategy == core::StrategyType::Exhaustive) {
    pipeline.installEngine(config.shared_engine);
  } else {
    core::DecisionEngine::Config engine_config;
    engine_config.knobs = config.knobs;
    engine_config.budgeter = config.budgeter;
    engine_config.profiler = config.profiler;
    // A private engine records its governor sub-spans (profile/budget/
    // solve) into the same recorder the mission loop uses; null means off.
    engine_config.spans = config.pipeline.spans;
    auto engine = core::DecisionEngine::calibrated(
        sim::LatencyModel(config.pipeline.latency), engine_config);
    engine->selectStrategy(config.solver_strategy);
    pipeline.installEngine(std::move(engine));
  }
  const core::StaticGovernor oblivious(config.knobs, stopping, config.static_design);

  // Async only: the worker that integrates sweep N while this thread
  // governs, plans and flies; a sync mission starts no thread. Declared
  // after the pipeline, so destruction joins the worker (draining any
  // in-flight sweep) before the pipeline goes away, on the throw paths too.
  std::optional<EpochExecutor> executor;
  if (config.pipeline.execution == ExecutionMode::Async) executor.emplace(pipeline);
  // The newest awaited snapshot, which async planning reads. Its slot is
  // reused two submits later; this pointer moves to each await before then.
  const EpochExecutor::Snapshot* snapshot = nullptr;

  MissionResult result;
  double t = 0.0;
  double commanded_speed = 0.0;
  Vec3 prev_pos = start;

  // Breadcrumbs for dead-end recovery: the flown path is known-traversable,
  // so after repeated plan failures the runner backtracks along it before
  // trying again (cul-de-sacs in congested zones are unplannable forward).
  std::vector<Vec3> breadcrumbs{start};
  int consecutive_plan_failures = 0;

  const WallDeadline wall_deadline(config.max_wall_ms);
  // The fault schedule is a pure function of (mission seed, dials), indexed
  // by decision epoch — and every loop iteration pushes exactly one record,
  // so records.size() IS the epoch counter (tests recompute the plan and
  // index records by epoch against it).
  const sim::FaultPlan fault_plan(config.seed, config.faults);
  // Observability: null means off — no clocks, no atomics, one branch per
  // site (the overhead contract). The recorder only ever observes; the
  // tier2 byte-identity suite pins that results are unchanged by it.
  obs::SpanRecorder* const spans = config.pipeline.spans;

  while (t < config.max_mission_time) {
    if (wall_deadline.expired()) {
      result.status = MissionStatus::AbortedWallDeadline;
      break;
    }
    const std::size_t epoch = result.records.size();
    if (spans) obs::SpanRecorder::setEpoch(epoch);
    const sim::FaultEpoch fault =
        fault_plan.active() ? fault_plan.at(epoch) : sim::FaultEpoch{};
    if (fault.poisoned)
      throw std::runtime_error("fault plan: poisoned at epoch " +
                               std::to_string(epoch));
    const Vec3 pos = drone.state().position;
    const Vec3 vel = drone.state().velocity;

    // --- sense ---
    // Ambient visibility is a property of the space being flown through
    // (per-zone weather), capped by the configured global conditions — and
    // collapsed to the blackout floor while the fault plan blacks out the
    // sensors.
    const std::size_t obs_capture =
        spans ? spans->begin(obs::Stage::Capture) : obs::SpanRecorder::kNoSpan;
    double ambient = std::min(config.sensor.weather_visibility,
                              environment.spec.weatherVisibilityAt(pos.x));
    if (fault.blackout) {
      ambient = std::min(ambient, fault_plan.config().blackout_visibility);
      ++result.fault_blackouts;
    }
    sensor.setWeatherVisibility(ambient);
    sim::SensorFrame frame =
        sensor.capture(world, pos, dynamic.empty() ? nullptr : &dynamic);
    if (fault_plan.config().dropout > 0.0)
      frame = fault_plan.degradeFrame(frame, epoch);
    if (spans) spans->end(obs_capture);

    // --- async: retire sweep N-1 (overlapped with the capture above): await
    // its integration, so the governor and this epoch's planning see the
    // map through N-1 ---
    if (executor && executor->pending()) snapshot = &executor->await();

    // --- profile + govern (the pipeline's DecisionEngine owns the path).
    // Both modes govern on the octree through sweep N-1: sync inserts sweep
    // N only after governing, and the async worker is idle until the next
    // submit ---
    const std::size_t obs_govern =
        spans ? spans->begin(obs::Stage::Govern) : obs::SpanRecorder::kNoSpan;
    const auto govern_start = std::chrono::steady_clock::now();
    core::SpaceProfile profile;
    core::GovernorDecision decision;
    double runtime_latency = 0.0;
    if (design == DesignType::RoboRun) {
      if (fault.blackout) {
        // Graceful degradation: with the sensors blacked out there is
        // nothing to solve against — pin the engine's safe-envelope
        // fallback (coarsest precision, floor volumes, floor deadline) and
        // hover through the outage. The static runtime cost applies: no
        // budgeting/solving ran this epoch.
        profile = pipeline.profileSpace(frame, pos, vel);
        decision = pipeline.engine()->blackoutFallback(profile);
        runtime_latency = config.pipeline.latency.runtime_static;
      } else {
        core::EngineDecision governed = pipeline.govern(frame, pos, vel);
        profile = std::move(governed.profile);
        decision = governed.decision;
        runtime_latency = config.pipeline.latency.runtime_governor;
      }
    } else {
      profile = pipeline.profileSpace(frame, pos, vel);
      decision = oblivious.decide();
      runtime_latency = config.pipeline.latency.runtime_static;
    }
    result.decision_wall_ms += std::chrono::duration<double, std::milli>(
                                   std::chrono::steady_clock::now() - govern_start)
                                   .count();
    if (spans) spans->end(obs_govern);

    // --- execute the pipeline under the policy. Sync integrates sweep N
    // and plans on it (staleness 0). Async hands sweep N to the worker and
    // plans on the newest awaited snapshot while it integrates, at most
    // one sweep stale ---
    DecisionOutcome outcome;
    std::size_t staleness = 0;
    if (executor) {
      executor->submit(epoch, frame, pos, decision.policy,
                       pipeline.goalOverride().has_value());
      if (snapshot == nullptr) {
        // Pipeline fill (epoch 0): nothing integrated yet. Await sweep 0
        // immediately, so the first decision plans on fresh data exactly
        // like sync's first epoch; the overlap starts at epoch 1.
        snapshot = &executor->await();
      }
      staleness = epoch - static_cast<std::size_t>(snapshot->epoch);
      outcome =
          pipeline.planStage(snapshot->perception, pos, decision.policy, runtime_latency);
    } else {
      outcome = pipeline.decide(frame, pos, decision.policy, runtime_latency);
    }
    if (fault.spike) {
      // Compute-latency spike: scale the modeled compute-stage latencies
      // (comm and the governor's own runtime cost are untouched). The
      // scaled latency flows into the safe-velocity inversion and the
      // decision period exactly like a genuinely slow decision would.
      const double mag = fault_plan.config().spike_mag;
      outcome.latencies.point_cloud *= mag;
      outcome.latencies.octomap *= mag;
      outcome.latencies.bridge *= mag;
      outcome.latencies.planning *= mag;
      outcome.latencies.smoothing *= mag;
      ++result.fault_spikes;
    }
    const double latency = outcome.latencies.total();

    // --- dead-end recovery bookkeeping ---
    if (outcome.plan_failed) {
      ++consecutive_plan_failures;
      if (consecutive_plan_failures >= 3 && breadcrumbs.size() > 1) {
        // Aim the next replans at a breadcrumb back along the flown path;
        // escalate further back the longer we stay stuck.
        const std::size_t hop = 10 + 5 * static_cast<std::size_t>(
                                          std::min(consecutive_plan_failures / 3, 8));
        const std::size_t idx = breadcrumbs.size() > hop ? breadcrumbs.size() - hop : 0;
        pipeline.setGoalOverride(breadcrumbs[idx]);
      }
    } else if (outcome.replanned) {
      consecutive_plan_failures = 0;
    }
    // Recovery point (nearly) reached: resume pursuing the mission goal.
    if (pipeline.goalOverride() &&
        pos.dist(*pipeline.goalOverride()) < config.pipeline.goal_radius * 1.5)
      pipeline.setGoalOverride(std::nullopt);

    // --- decide the safe velocity ---
    // The usable horizon is what the MAV both sees (cone visibility) and
    // knows (trajectory validated against the map out to the first unknown
    // cell): Eq. 1 inverted over that horizon gives the speed at which the
    // achieved decision latency is still safe.
    double speed = 0.0;
    if (design == DesignType::RoboRun) {
      // The braking horizon is bounded by both what the map has validated
      // along the trajectory (d_unknown) and what the sensors can currently
      // see (cone visibility) — either alone over-claims.
      const double horizon =
          pipeline.trajectory().empty()
              ? profile.visibility
              : std::min(profile.visibility, profile.d_unknown);
      speed = std::min(config.v_max_dynamic, stopping.safeCommandVelocity(latency, horizon));
    } else {
      speed = oblivious.staticVelocity();
    }
    // A failed replan means the current trajectory is invalid (that is what
    // triggered replanning) — do not fly it; hover and retry next decision.
    if (outcome.plan_failed || !pipeline.follower().hasTrajectory()) speed = 0.0;
    // Blacked-out sensors: hover with bounded patience (blackout windows
    // are finite by construction) — flying blind on a stale map is how a
    // degraded mission becomes a lost airframe. Retreat is suppressed too:
    // the blackout frame's closest-hit direction is meaningless.
    if (fault.blackout) speed = 0.0;
    // Wedged against an obstacle: retreat straight away from it instead of
    // tracking the trajectory (recovery behavior; also how a stuck planner
    // regains room to find a path). The threshold must stay BELOW the
    // planner map's inflation radius, or valid trajectories trigger
    // permanent follow/retreat oscillation.
    const bool retreat =
        !fault.blackout && profile.d_obstacle < config.drone.collision_radius + 0.1;
    commanded_speed = retreat ? config.creep_velocity * 0.8 : speed;

    // --- record (under async, the perception latencies are the consumed
    // snapshot's, so records lag one sweep on those stages) ---
    DecisionRecord rec;
    rec.t = t;
    rec.position = pos;
    rec.zone = environment.spec.zoneOf(pos.x);
    rec.velocity = vel.norm();
    rec.commanded_velocity = commanded_speed;
    rec.visibility = profile.visibility;
    rec.known_free_horizon = profile.d_unknown;
    rec.deadline = decision.budget;
    rec.latencies = outcome.latencies;
    rec.policy = decision.policy;
    rec.replanned = outcome.replanned;
    rec.plan_failed = outcome.plan_failed;
    rec.budget_met = decision.budget_met;
    rec.cpu_utilization =
        std::min(1.0, outcome.latencies.compute() / std::max(decision.budget, 1e-3));
    result.records.push_back(rec);
    result.planner_wall_ms += outcome.plan_wall_ms;
    if (config.decision_observer) config.decision_observer(epoch, staleness);

    energy.integrate(0.0, 0.0, outcome.latencies.compute());

    // --- fly the decision interval (under async, the worker integrates
    // sweep N underneath) ---
    const std::size_t obs_fly =
        spans ? spans->begin(obs::Stage::Fly) : obs::SpanRecorder::kNoSpan;
    const double period = std::max(latency, config.min_decision_period);
    double flown = 0.0;
    bool terminal = false;
    const Vec3 away = -frame.closestHitDirection();
    while (flown < period && !terminal) {
      const double dt = std::min(config.sim_dt, period - flown);
      Vec3 cmd;
      if (retreat && away.norm() > 0.5) {
        cmd = Vec3{away.x, away.y, 0.0}.normalized() * commanded_speed;
      } else {
        cmd = pipeline.follower().velocityCommand(drone.state().position, commanded_speed, dt);
      }
      // Reflexive proximity guard against movers — the fast sonar/TOF bumper
      // loop real MAVs run below the navigation pipeline. Only dynamic
      // obstacles need it: the planner's inflated map already keeps static
      // obstacles out of reach, but a mover can cross the trajectory (or
      // drive at a hovering drone) between decisions. Probe time-to-contact
      // along the commanded motion and the closing range to the nearest
      // mover; brake, then sidestep, when either margin collapses.
      if (!dynamic.empty() && config.proximity_guard) {
        const Vec3 here = drone.state().position;
        const double speed_now = std::max(cmd.norm(), drone.state().speed());
        bool brake = false;
        if (speed_now > 0.05) {
          const Vec3 heading = cmd.norm() > 0.05 ? cmd.normalized()
                                                 : drone.state().velocity.normalized();
          // Probe a small fan (heading and +/- ~20 degrees) so a mover
          // cutting in from the side is seen before it crosses the nose.
          const Vec3 side = Vec3{-heading.y, heading.x, 0.0} * 0.36;
          const double margin = stopping.stoppingDistance(speed_now) +
                                2.0 * config.drone.collision_radius;
          for (const Vec3& probe :
               {heading, (heading + side).normalized(), (heading - side).normalized()}) {
            const auto tohit = dynamic.raycast(here, probe, 25.0);
            if (tohit && *tohit < margin) {
              brake = true;
              break;
            }
          }
        }
        const double bubble = 2.5 * config.drone.collision_radius + 0.5;
        const double closest = dynamic.nearestObstacleXY(here, bubble + 1.0);
        if (brake) cmd = {0.0, 0.0, 0.0};
        if (closest < bubble) {
          // A mover inside the bubble: sidestep directly away from it.
          Vec3 escape{0.0, 0.0, 0.0};
          for (std::size_t i = 0; i < dynamic.size(); ++i) {
            const Vec3 c = dynamic.positionOf(i);
            const Vec3 away_xy{here.x - c.x, here.y - c.y, 0.0};
            if (away_xy.norm() < bubble + dynamic.obstacles()[i].radius)
              escape = escape + away_xy.normalized();
          }
          if (escape.norm() > 0.1) {
            const Vec3 dir = escape.normalized();
            // Never sidestep into a static obstacle: if the escape lane is
            // blocked, braking (handled above via TTC) is the safe fallback.
            if (world.visibility(here, dir, 3.0) >= 3.0 - 1e-9)
              cmd = dir * std::max(config.creep_velocity, 1.0);
            else
              cmd = {0.0, 0.0, 0.0};
          }
        }
      }
      drone.commandVelocity(cmd);
      drone.update(dt);
      flown += dt;
      dynamic.advance(dt);
      const Vec3 p = drone.state().position;
      energy.integrate(drone.state().speed(), dt);
      result.distance_traveled += p.dist(prev_pos);
      prev_pos = p;
      if (p.dist(breadcrumbs.back()) > 2.0) breadcrumbs.push_back(p);
      if (inCollision(world, dynamic, p, config.drone.collision_radius)) {
        result.status = MissionStatus::Collided;
        terminal = true;
      } else if (p.dist(goal) <= config.pipeline.goal_radius) {
        result.status = MissionStatus::ReachedGoal;
        terminal = true;
      } else if (config.enforce_battery &&
                 energy.totalEnergy() > config.battery.usable()) {
        result.status = MissionStatus::EnergyExhausted;
        terminal = true;
      }
    }
    if (spans) spans->end(obs_fly);
    t += flown;
    if (terminal) break;
  }

  // No terminal event set a status: the default TimedOut stands (the sim
  // clock ran out), or the watchdog's AbortedWallDeadline already did.
  result.mission_time = t;
  if (config.enforce_battery && config.battery.capacity > 0.0) {
    sim::Battery pack(config.battery);
    pack.drain(energy.totalEnergy());
    result.battery_soc = pack.stateOfCharge();
  }
  result.flight_energy = energy.flightEnergy();
  result.compute_energy = energy.computeEnergy();
  return result;
}

}  // namespace roborun::runtime
