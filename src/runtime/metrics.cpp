#include "runtime/metrics.h"

#include <cstring>

#include "geom/stats.h"

namespace roborun::runtime {

std::size_t MissionResult::replans() const {
  std::size_t n = 0;
  for (const auto& r : records) n += r.replanned ? 1 : 0;
  return n;
}

double MissionResult::averageVelocity() const {
  if (records.empty()) return 0.0;
  double sum = 0.0;
  for (const auto& r : records) sum += r.commanded_velocity;
  return sum / static_cast<double>(records.size());
}

double MissionResult::medianLatency() const {
  if (records.empty()) return 0.0;
  std::vector<double> xs;
  xs.reserve(records.size());
  for (const auto& r : records) xs.push_back(r.latencies.total());
  return geom::median(xs);
}

double MissionResult::averageCpuUtilization() const {
  if (records.empty()) return 0.0;
  double sum = 0.0;
  for (const auto& r : records) sum += r.cpu_utilization;
  return sum / static_cast<double>(records.size());
}

namespace {

bool bitEqual(double a, double b) { return std::memcmp(&a, &b, sizeof(double)) == 0; }

}  // namespace

bool decisionRecordsIdentical(const DecisionRecord& a, const DecisionRecord& b) {
  if (!bitEqual(a.t, b.t) || !bitEqual(a.position.x, b.position.x) ||
      !bitEqual(a.position.y, b.position.y) || !bitEqual(a.position.z, b.position.z) ||
      a.zone != b.zone || !bitEqual(a.velocity, b.velocity) ||
      !bitEqual(a.commanded_velocity, b.commanded_velocity) ||
      !bitEqual(a.visibility, b.visibility) ||
      !bitEqual(a.known_free_horizon, b.known_free_horizon) ||
      !bitEqual(a.deadline, b.deadline))
    return false;
  const StageLatencies& la = a.latencies;
  const StageLatencies& lb = b.latencies;
  if (!bitEqual(la.runtime, lb.runtime) || !bitEqual(la.point_cloud, lb.point_cloud) ||
      !bitEqual(la.octomap, lb.octomap) || !bitEqual(la.bridge, lb.bridge) ||
      !bitEqual(la.planning, lb.planning) || !bitEqual(la.smoothing, lb.smoothing) ||
      !bitEqual(la.comm_point_cloud, lb.comm_point_cloud) ||
      !bitEqual(la.comm_map, lb.comm_map) ||
      !bitEqual(la.comm_trajectory, lb.comm_trajectory))
    return false;
  for (std::size_t s = 0; s < core::kNumStages; ++s)
    if (!bitEqual(a.policy.stages[s].precision, b.policy.stages[s].precision) ||
        !bitEqual(a.policy.stages[s].volume, b.policy.stages[s].volume))
      return false;
  if (!bitEqual(a.policy.deadline, b.policy.deadline) ||
      !bitEqual(a.policy.predicted_latency, b.policy.predicted_latency))
    return false;
  return a.replanned == b.replanned && a.plan_failed == b.plan_failed &&
         a.budget_met == b.budget_met && bitEqual(a.cpu_utilization, b.cpu_utilization);
}

bool missionResultsIdentical(const MissionResult& a, const MissionResult& b) {
  if (a.status != b.status || a.fault_blackouts != b.fault_blackouts ||
      a.fault_spikes != b.fault_spikes ||
      !bitEqual(a.mission_time, b.mission_time) ||
      !bitEqual(a.flight_energy, b.flight_energy) ||
      !bitEqual(a.compute_energy, b.compute_energy) ||
      !bitEqual(a.battery_soc, b.battery_soc) ||
      !bitEqual(a.distance_traveled, b.distance_traveled) ||
      a.records.size() != b.records.size())
    return false;
  for (std::size_t i = 0; i < a.records.size(); ++i)
    if (!decisionRecordsIdentical(a.records[i], b.records[i])) return false;
  return true;
}

}  // namespace roborun::runtime
