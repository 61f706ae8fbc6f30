#include "core/governor.h"

namespace roborun::core {

StaticGovernor::StaticGovernor(const KnobConfig& knobs, const sim::StoppingModel& stopping,
                               const StaticDesign& design) {
  policy_.stage(Stage::Perception) = {knobs.static_point_cloud_precision,
                                      knobs.static_octomap_volume};
  policy_.stage(Stage::PerceptionToPlanning) = {knobs.static_bridge_precision,
                                                knobs.static_bridge_volume};
  policy_.stage(Stage::Planning) = {knobs.static_bridge_precision,
                                    knobs.static_planner_volume};
  deadline_ = design.worst_case_latency;
  policy_.deadline = deadline_;
  policy_.predicted_latency = design.worst_case_latency;
  static_velocity_ = stopping.safeCommandVelocity(design.worst_case_latency,
                                                  design.worst_case_visibility);
}

GovernorDecision StaticGovernor::decide() const {
  GovernorDecision decision;
  decision.policy = policy_;
  decision.budget = deadline_;
  decision.budget_met = true;
  return decision;
}

}  // namespace roborun::core
