#include "core/solver.h"

#include <algorithm>
#include <cmath>
#include <numbers>

namespace roborun::core {

namespace {

/// Monotone line search: largest volume scale s in [0,1] whose total latency
/// stays within `budget` (stage latencies increase with volume). Writes the
/// total latency at the chosen scale to `latency_out`.
template <typename LatencyFn>
double volumeScaleForBudget(LatencyFn&& latency_of_scale, double budget, double& latency_out) {
  const double at_full = latency_of_scale(1.0);
  if (at_full <= budget) {
    latency_out = at_full;
    return 1.0;
  }
  double lo = 0.0;
  double hi = 1.0;
  for (int iter = 0; iter < 24; ++iter) {
    const double mid = 0.5 * (lo + hi);
    if (latency_of_scale(mid) <= budget)
      lo = mid;
    else
      hi = mid;
  }
  latency_out = latency_of_scale(lo);
  return lo;
}

}  // namespace

std::array<double, 3> KnobEnvelope::volumesAtScale(double s) const {
  return {v_demand + s * std::max(v0_cap - v_demand, 0.0),
          v_demand + s * std::max(v1_cap - v_demand, 0.0),
          v_demand + s * std::max(v2_cap - v_demand, 0.0)};
}

KnobEnvelope computeEnvelope(const KnobConfig& knobs, const SpaceProfile& prof) {
  KnobEnvelope env;
  // Precision demand interval (half-gap sampling factor: two voxels must
  // fit across a gap of width g for it to stay resolvable).
  const double demand_lo = knobs.dynamic_precision.clamp(prof.gap_min * 0.5);
  const double demand_hi_raw =
      std::min(prof.gap_avg * 0.5, std::max(prof.d_obstacle * 0.5, 1e-3));
  const double demand_hi = knobs.dynamic_precision.clamp(demand_hi_raw);
  env.p0_lo = knobs.snapDown(demand_lo);
  env.p0_hi = knobs.snapDown(demand_hi);
  if (env.p0_lo > env.p0_hi) env.p0_lo = env.p0_hi;  // safety overrides the floor

  // Volume caps: v0 <= v1 <= min(v_sensor, v_map) and Table II ranges.
  env.v1_cap = std::min({prof.sensor_volume > 0 ? prof.sensor_volume : 1e18,
                         prof.map_volume > 0 ? prof.map_volume : 1e18,
                         knobs.dynamic_bridge_volume.hi});
  env.v0_cap = std::min(knobs.dynamic_octomap_volume.hi, env.v1_cap);
  env.v2_cap = std::min(knobs.dynamic_planner_volume.hi, env.v1_cap);
  // Demand floor: the map must cover at least the stopping/visibility
  // horizon sphere so the MAV can always re-decide safely.
  const double horizon = std::max(prof.visibility, 5.0);
  env.v_demand =
      std::min(4.0 / 3.0 * std::numbers::pi * horizon * horizon * horizon, env.v0_cap);
  return env;
}

SolverResult GovernorSolver::solve(const SolverInputs& inputs) const {
  const double knob_budget = std::max(inputs.budget - inputs.fixed_overhead, 0.0);
  return resultFor(pick(knob_budget, computeEnvelope(knobs_, inputs.profile)), inputs.budget,
                   inputs.fixed_overhead);
}

SolverPick GovernorSolver::pick(double knob_budget, const KnobEnvelope& env) const {
  const auto ladder = knobs_.precisionLadder();
  SolverPick best;
  double best_objective = 0.0;
  bool best_met = false;

  for (int l1 = 0; l1 < knobs_.precision_levels; ++l1) {
    const double p1 = ladder[static_cast<std::size_t>(l1)];
    // The planner's raytracer must also resolve the demanded gaps: a map
    // pruned coarser than the demand bound inflates every gap shut.
    if (p1 > env.p0_hi + 1e-9) continue;
    for (int l0 = 0; l0 <= l1; ++l0) {
      const double p0 = ladder[static_cast<std::size_t>(l0)];
      if (p0 + 1e-9 < env.p0_lo || p0 > env.p0_hi + 1e-9) continue;

      auto latency_of_scale = [&](double s) {
        const auto v = env.volumesAtScale(s);
        return predictor_->predict(Stage::Perception, p0, v[0]) +
               predictor_->predict(Stage::PerceptionToPlanning, p1, v[1]) +
               predictor_->predict(Stage::Planning, p1, v[2]);
      };

      double latency = 0.0;
      const double s = volumeScaleForBudget(latency_of_scale, knob_budget, latency);
      const auto v = env.volumesAtScale(s);
      const double diff = knob_budget - latency;
      const double objective = diff * diff;
      const bool met = latency <= knob_budget + 1e-9;

      // Preference: meet the budget; then the *coarsest* precision the
      // space demands allow (precision finer than the gaps/obstacles
      // require buys no safety, only latency — Fig. 10c shows RoboRun
      // pinned at the coarse end in the open zone); then the largest
      // volume; finally the closest budget fit.
      bool better = false;
      if (!best.has_solution) {
        better = true;
      } else if (met != best_met) {
        better = met;
      } else if (p0 != best.p0) {
        better = p0 > best.p0;
      } else if (p1 != best.p1) {
        better = p1 > best.p1;
      } else if (v[0] != best.volumes[0]) {
        better = v[0] > best.volumes[0];
      } else {
        better = objective < best_objective;
      }
      if (better) {
        best = {p0, p1, v, latency, true};
        best_objective = objective;
        best_met = met;
      }
    }
  }
  return best;
}

SolverResult GovernorSolver::resultFor(const SolverPick& pick, double budget,
                                       double fixed_overhead) {
  SolverResult result;
  if (!pick.has_solution) return result;
  const double knob_budget = std::max(budget - fixed_overhead, 0.0);
  result.policy.stage(Stage::Perception) = {pick.p0, pick.volumes[0]};
  result.policy.stage(Stage::PerceptionToPlanning) = {pick.p1, pick.volumes[1]};
  result.policy.stage(Stage::Planning) = {pick.p1, pick.volumes[2]};
  result.policy.deadline = budget;
  result.policy.predicted_latency = pick.latency + fixed_overhead;
  const double diff = knob_budget - pick.latency;
  result.objective = diff * diff;
  result.budget_met = pick.latency <= knob_budget + 1e-9;
  return result;
}

}  // namespace roborun::core
