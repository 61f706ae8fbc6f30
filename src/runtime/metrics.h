// Per-decision records and mission-level metrics — everything the paper's
// result figures (7 through 11) are computed from.
#pragma once

#include <string>
#include <vector>

#include "core/policy.h"
#include "env/env_spec.h"
#include "geom/vec3.h"

namespace roborun::runtime {

using geom::Vec3;

/// End-to-end latency of one decision, broken into the computation (red) and
/// communication (blue) stages of the paper's Fig. 11a.
struct StageLatencies {
  // computation
  double runtime = 0.0;      ///< governor (RoboRun) / static lookup (baseline)
  double point_cloud = 0.0;
  double octomap = 0.0;
  double bridge = 0.0;       ///< map pruning for the planner
  double planning = 0.0;     ///< RRT*
  double smoothing = 0.0;    ///< path smoother
  // communication
  double comm_point_cloud = 0.0;
  double comm_map = 0.0;
  double comm_trajectory = 0.0;

  double compute() const {
    return runtime + point_cloud + octomap + bridge + planning + smoothing;
  }
  double comm() const { return comm_point_cloud + comm_map + comm_trajectory; }
  double total() const { return compute() + comm(); }
};

struct DecisionRecord {
  double t = 0.0;             ///< mission clock at decision start (s)
  Vec3 position;
  env::Zone zone = env::Zone::B;
  double velocity = 0.0;      ///< speed when the decision was made (m/s)
  double commanded_velocity = 0.0;  ///< safe velocity chosen from this decision
  double visibility = 0.0;    ///< m, along the travel direction
  double known_free_horizon = 0.0;  ///< m; d_unknown along the trajectory
  double deadline = 0.0;      ///< s; assigned time budget
  StageLatencies latencies;
  core::PipelinePolicy policy;
  bool replanned = false;
  bool plan_failed = false;   ///< replan was needed but no path was found
  bool budget_met = false;    ///< solver predicted the policy fits
  double cpu_utilization = 0.0;  ///< compute busy share of the deadline window
};

/// How a mission terminated. Exactly one status per mission — the taxonomy
/// replaces the old reached_goal/collided/timed_out/battery_depleted bool
/// quartet, whose "all false" reading was an undefined state tools had to
/// defensively reject. Values are part of the trace format (written as the
/// integer code), so the codes are frozen: append, never renumber.
enum class MissionStatus : int {
  ReachedGoal = 0,         ///< arrived within the goal radius
  Collided = 1,            ///< airframe struck an obstacle
  TimedOut = 2,            ///< sim clock passed MissionConfig::max_mission_time
  EnergyExhausted = 3,     ///< aborted mid-flight on an empty pack
  AbortedWallDeadline = 4, ///< cooperative watchdog: wall clock passed max_wall_ms
  Crashed = 5,             ///< an exception escaped the mission (fleet isolation)
};

inline const char* missionStatusName(MissionStatus s) {
  switch (s) {
    case MissionStatus::ReachedGoal: return "reached_goal";
    case MissionStatus::Collided: return "collided";
    case MissionStatus::TimedOut: return "timed_out";
    case MissionStatus::EnergyExhausted: return "energy_exhausted";
    case MissionStatus::AbortedWallDeadline: return "aborted_wall_deadline";
    case MissionStatus::Crashed: return "crashed";
  }
  return "?";
}

/// Infrastructure failure (the fleet's retry + failure-report set), as
/// opposed to a mission-level outcome: the mission did not run to a
/// simulated conclusion.
inline bool missionStatusIsInfrastructureFailure(MissionStatus s) {
  return s == MissionStatus::AbortedWallDeadline || s == MissionStatus::Crashed;
}

struct MissionResult {
  /// TimedOut is the default so a result abandoned mid-loop (watchdog,
  /// exception) still reads as a defined non-success — the old quartet's
  /// undefined all-false state is unrepresentable.
  MissionStatus status = MissionStatus::TimedOut;

  bool reached_goal() const { return status == MissionStatus::ReachedGoal; }
  bool collided() const { return status == MissionStatus::Collided; }
  bool timed_out() const { return status == MissionStatus::TimedOut; }
  bool battery_depleted() const { return status == MissionStatus::EnergyExhausted; }

  double mission_time = 0.0;     ///< s
  double flight_energy = 0.0;    ///< J
  double compute_energy = 0.0;   ///< J
  double battery_soc = 1.0;      ///< state of charge at mission end [0,1]
  double distance_traveled = 0.0;///< m
  /// Deterministic fault-injection tallies (sim::FaultPlan): decision epochs
  /// flown under a sensor blackout / with a latency spike applied. Zero when
  /// no faults are configured; part of the bitwise replay contract.
  std::size_t fault_blackouts = 0;
  std::size_t fault_spikes = 0;
  /// Measured wall time spent replanning (planner + smoother, summed over
  /// the replanning decisions) across the whole mission (ms). A measurement
  /// of this run, like a fleet row's wall_ms — NOT part of the
  /// deterministic replay contract; every decision-driving quantity uses
  /// the modeled latencies instead.
  double planner_wall_ms = 0.0;
  /// Measured wall time of the governor path (space profiling + budgeting +
  /// Eq. 3 solve), summed over every decision (ms). Same contract as
  /// planner_wall_ms: a measurement of this run, never decision-driving.
  double decision_wall_ms = 0.0;
  std::vector<DecisionRecord> records;

  std::size_t decisions() const { return records.size(); }
  /// Decisions that ran the planner (the replan-rate denominator for the
  /// per-replan timing fleet_runner --bench-json reports).
  std::size_t replans() const;
  /// Mean of the per-decision commanded velocities (the paper's "flight
  /// velocity" metric).
  double averageVelocity() const;
  /// Median end-to-end decision latency.
  double medianLatency() const;
  double averageCpuUtilization() const;
};

/// Bitwise equality of every field of two decision records (doubles compared
/// by bit pattern, so -0.0 vs 0.0 or NaN payload differences count as
/// divergence — exactly what the replay contract distinguishes).
bool decisionRecordsIdentical(const DecisionRecord& a, const DecisionRecord& b);

/// Bitwise equality of every DETERMINISTIC MissionResult field: status,
/// fault tallies, the summary metrics, and all records. The wall-clock
/// measurement fields (planner_wall_ms, decision_wall_ms) are excluded —
/// they vary run to run by contract. This is the single definition of
/// "same mission result" shared by the fleet replay pin
/// (fleetResultsIdentical), the pipeline equivalence suites, and
/// bench_mission_latency's sync-anchor check.
bool missionResultsIdentical(const MissionResult& a, const MissionResult& b);

}  // namespace roborun::runtime
