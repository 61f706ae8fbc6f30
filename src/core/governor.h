// The decision both governors emit, and the spatial-oblivious static
// governor RoboRun is evaluated against.
//
// The RoboRun governor itself (paper Sec. III-D) is core::DecisionEngine
// (core/decision_engine.h): each decision it runs the time budgeter (Eq. 1 +
// Algorithm 1) over the profiled waypoint horizon to get the space-induced
// deadline, then the Eq. 3 solver against the Eq. 4 latency model to pick
// the six operator knob values that fit that deadline.
//
// The static governor returns Table II's worst-case knob column and a fixed
// design-time deadline/velocity: the worst-case visibility and worst-case
// pipeline latency a spatially-oblivious designer must assume.
#pragma once

#include "core/knob_config.h"
#include "core/policy.h"
#include "sim/stopping_model.h"

namespace roborun::core {

struct GovernorDecision {
  PipelinePolicy policy;
  double budget = 0.0;       ///< s; the deadline assigned to this decision
  bool budget_met = false;   ///< solver predicts the policy fits the budget
  double solver_objective = 0.0;
};

/// Worst-case design assumptions of the spatial-oblivious baseline.
struct StaticDesign {
  double worst_case_visibility = 6.0;  ///< m; near-obstacle occluded view
  double worst_case_latency = 6.0;     ///< s; worst-case pipeline latency
};

class StaticGovernor {
 public:
  StaticGovernor(const KnobConfig& knobs, const sim::StoppingModel& stopping,
                 const StaticDesign& design = {});

  /// The constant policy (Table II static column).
  const PipelinePolicy& policy() const { return policy_; }
  /// The fixed design-time deadline.
  double deadline() const { return deadline_; }
  /// The fixed max velocity that keeps the worst case safe — the paper's
  /// "maximum velocity chosen such that at least 80% of flights are
  /// collision-free", derived here from the worst-case design point.
  double staticVelocity() const { return static_velocity_; }

  GovernorDecision decide() const;

 private:
  PipelinePolicy policy_;
  double deadline_;
  double static_velocity_;
};

}  // namespace roborun::core
