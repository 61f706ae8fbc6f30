#include "core/decision_engine.h"

#include <algorithm>
#include <array>

#include "core/latency_calibration.h"

namespace roborun::core {

DecisionEngine::DecisionEngine(const Config& config, LatencyPredictor predictor)
    : config_(config),
      budgeter_(config.budgeter),
      predictor_(std::move(predictor)),
      solver_(config_.knobs, predictor_) {}

std::shared_ptr<DecisionEngine> DecisionEngine::calibrated(const sim::LatencyModel& latency_model,
                                                           const Config& config) {
  return std::make_shared<DecisionEngine>(
      config, calibratePredictor(latency_model, config.knobs).predictor);
}

// --- governor path ----------------------------------------------------------

GovernorDecision DecisionEngine::decide(const SpaceProfile& profile) {
  GovernorDecision decision;
  const std::size_t obs_budget = config_.spans
                                     ? config_.spans->begin(obs::Stage::Govern, "budget")
                                     : obs::SpanRecorder::kNoSpan;
  decision.budget = budgeter_.globalBudget(profile.waypoints);
  if (config_.spans) config_.spans->end(obs_budget);

  SolverResult result;
  const std::size_t obs_solve = config_.spans
                                    ? config_.spans->begin(obs::Stage::Govern, "solve")
                                    : obs::SpanRecorder::kNoSpan;
  if (has_strategy_.load(std::memory_order_acquire)) {
    // Strategies may carry cross-decision state, so they serialize here;
    // the fleet-shared shape never takes this branch (Exhaustive-only).
    std::lock_guard lock(strategy_mutex_);
    SolverInputs inputs;
    inputs.budget = decision.budget;
    inputs.fixed_overhead = config_.knobs.fixed_overhead;
    inputs.profile = profile;
    result = strategy_->solve(inputs);
    stats_.strategy_decisions.fetch_add(1, std::memory_order_relaxed);
  } else {
    // The enumeration reads the profile only through the envelope, so it
    // skips the waypoint-vector copy the SolverInputs interface forces.
    const double fixed_overhead = config_.knobs.fixed_overhead;
    const double knob_budget = std::max(decision.budget - fixed_overhead, 0.0);
    result = GovernorSolver::resultFor(
        solver_.pick(knob_budget, computeEnvelope(config_.knobs, profile)), decision.budget,
        fixed_overhead);
  }
  if (config_.spans) config_.spans->end(obs_solve);

  decision.policy = result.policy;
  decision.budget_met = result.budget_met;
  decision.solver_objective = result.objective;
  stats_.decisions.fetch_add(1, std::memory_order_relaxed);
  return decision;
}

GovernorDecision DecisionEngine::blackoutFallback(const SpaceProfile& profile) const {
  // The safe envelope at minimum cost: the constraints still come from
  // computeEnvelope (so the fallback obeys the same feasible region every
  // policy source does), but instead of solving, pin the coarsest admitted
  // precision and the floor volumes. No stats, no locks.
  const KnobEnvelope env = computeEnvelope(config_.knobs, profile);
  const std::array<double, 3> volumes = env.volumesAtScale(0.0);
  GovernorDecision decision;
  for (std::size_t i = 0; i < kNumStages; ++i)
    decision.policy.stages[i] = {env.p0_hi, volumes[i]};
  decision.budget = budgeter_.config().budget_floor;
  decision.policy.deadline = decision.budget;
  decision.policy.predicted_latency = predictor_.predictTotal(decision.policy);
  decision.budget_met = false;  // blackout decisions always read as degraded
  decision.solver_objective = 0.0;
  return decision;
}

EngineDecision DecisionEngine::decideFromSensors(const sim::SensorFrame& frame,
                                                 const perception::OccupancyOctree& map,
                                                 const planning::Trajectory& trajectory,
                                                 const geom::Vec3& position,
                                                 const geom::Vec3& velocity,
                                                 const geom::Vec3& travel_dir) {
  EngineDecision out;
  {
    obs::ScopedSpan obs_profile(config_.spans, obs::Stage::Govern, "profile");
    out.profile = profile(frame, map, trajectory, position, velocity, travel_dir);
  }
  out.decision = decide(out.profile);
  return out;
}

// --- space profiling --------------------------------------------------------

SpaceProfile DecisionEngine::profile(const sim::SensorFrame& frame,
                                     const perception::OccupancyOctree& map,
                                     const planning::Trajectory& trajectory,
                                     const geom::Vec3& position, const geom::Vec3& velocity,
                                     const geom::Vec3& travel_dir) {
  // profileSpace samples occupancy along the trajectory only when it has at
  // least two points; profile_builds counts those sample passes.
  if (trajectory.size() >= 2) stats_.profile_builds.fetch_add(1, std::memory_order_relaxed);
  return profileSpace(frame, map, trajectory, position, velocity, travel_dir, config_.profiler);
}

void DecisionEngine::selectStrategy(StrategyType type, int patience) {
  std::lock_guard lock(strategy_mutex_);
  strategy_ = type == StrategyType::Exhaustive
                  ? nullptr
                  : makeStrategy(type, config_.knobs, predictor_, patience);
  has_strategy_.store(strategy_ != nullptr, std::memory_order_release);
}

EngineStats DecisionEngine::stats() const {
  EngineStats out;
  out.decisions = stats_.decisions.load(std::memory_order_relaxed);
  out.strategy_decisions = stats_.strategy_decisions.load(std::memory_order_relaxed);
  out.profile_builds = stats_.profile_builds.load(std::memory_order_relaxed);
  return out;
}

}  // namespace roborun::core
