// Governor solver — paper Eq. 3.
//
// Constrained optimization choosing per-stage precision/volume knobs:
//
//   min_{p,v} ( delta_d - sum_i delta_i(p_i, v_i) )^2
//     s.t.  g_min <= p_0 <= min(p_1, g_avg, d_obs)
//           v_0 <= v_1 <= min(v_sensor, v_map)
//           p_i in { voxmin * 2^n }          (OctoMap constraint)
//           p_1 == p_2                        (framework requirement)
//
// The precision grid is tiny (6 rungs), so precision pairs are enumerated
// exactly; for each pair the volumes are found by a monotone line search
// (stage latency increases with volume). Among budget-feasible candidates
// the solver prefers finer precision, then larger volume — i.e. it spends
// whatever budget the environment grants on navigation quality.
#pragma once

#include <array>

#include "core/knob_config.h"
#include "core/latency_predictor.h"
#include "core/policy.h"
#include "core/profilers.h"

namespace roborun::core {

struct SolverInputs {
  double budget = 1.0;          ///< s; delta_d from the time budgeter
  /// s; point-cloud + runtime + fixed comm cost subtracted from the budget
  /// before solving. Single-sourced with KnobConfig::fixed_overhead (this
  /// default used to be an out-of-sync 0.26 copy).
  double fixed_overhead = kDefaultFixedOverhead;
  SpaceProfile profile;
};

/// The feasible knob region Eq. 3's constraints induce for one decision:
/// the demanded precision interval (snapped to the power-of-two ladder) and
/// the per-stage volume caps/floor. Shared by the exhaustive solver and the
/// alternative strategies in core/strategies.h so every policy source obeys
/// the same safety constraints.
struct KnobEnvelope {
  double p0_lo = 0.3;    ///< finest demanded perception precision (ladder rung)
  double p0_hi = 9.6;    ///< coarsest allowed perception precision (ladder rung)
  double v0_cap = 0.0;   ///< m^3; perception volume cap
  double v1_cap = 0.0;   ///< m^3; bridge volume cap
  double v2_cap = 0.0;   ///< m^3; planner volume cap
  double v_demand = 0.0; ///< m^3; safety floor (horizon sphere)

  /// Per-stage volumes at a scale s in [0,1] between the floor and caps.
  std::array<double, 3> volumesAtScale(double s) const;
};

/// Evaluate Eq. 3's constraint set for a profile.
KnobEnvelope computeEnvelope(const KnobConfig& knobs, const SpaceProfile& profile);

struct SolverResult {
  PipelinePolicy policy;
  double objective = 0.0;   ///< (delta_d - sum delta_i)^2 at the solution
  bool budget_met = false;  ///< predicted latency fits the budget
};

/// Eq. 3's choice for one (knob budget, envelope): the two precisions, the
/// three stage volumes and their predicted latency. Everything else in a
/// SolverResult is a pure function of this plus (budget, fixed_overhead).
struct SolverPick {
  double p0 = 0.0;
  double p1 = 0.0;
  std::array<double, 3> volumes{};
  double latency = 0.0;       ///< s; knob latency, fixed overhead excluded
  bool has_solution = false;  ///< false: the envelope admitted no candidate
};

class GovernorSolver {
 public:
  GovernorSolver(const KnobConfig& knobs, const LatencyPredictor& predictor)
      : knobs_(knobs), predictor_(&predictor) {}

  /// computeEnvelope, then pick(), then resultFor().
  SolverResult solve(const SolverInputs& inputs) const;

  /// The Eq. 3 enumeration: every (p0, p1) ladder pair the envelope admits,
  /// each with the largest volume scale that fits `knob_budget`. A pure
  /// function of its arguments (and the immutable knobs/predictor).
  SolverPick pick(double knob_budget, const KnobEnvelope& env) const;

  /// The policy, objective and budget_met flag a pick implies for a
  /// decision with this deadline and fixed overhead.
  static SolverResult resultFor(const SolverPick& pick, double budget, double fixed_overhead);

  const KnobConfig& knobs() const { return knobs_; }

 private:
  KnobConfig knobs_;
  const LatencyPredictor* predictor_;
};

}  // namespace roborun::core
