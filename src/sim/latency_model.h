// Deterministic compute-latency model.
//
// Substitute for the paper's wall-clock measurements on the 4-core i9
// workload machine. Each pipeline kernel reports *work units* (ray-march
// steps, tree nodes, planner iterations, ...) and this model converts them
// to seconds with per-unit costs calibrated to the paper's reported
// operating points:
//   - fixed 210 ms point-cloud stage (both designs, Sec. V-C),
//   - ~50 ms RoboRun runtime overhead (Sec. V-C),
//   - seconds-scale end-to-end latency at the static worst-case knobs with
//     OctoMap dominant (Fig. 11b baseline),
//   - ~11x median end-to-end reduction for RoboRun (Fig. 11a).
// Using modeled rather than measured time keeps missions bit-reproducible
// and machine-independent while preserving how latency *scales* with the
// precision and volume knobs — which is what every figure depends on.
//
// This model is also the governor's calibration ground truth: the runtime
// pipelines hand it to core::DecisionEngine::calibrated(), which fits the
// Eq. 4 predictor against it once at startup (core/latency_calibration.h)
// — the latency-model -> predictor feedback never leaves the engine
// boundary.
#pragma once

#include <cstddef>

namespace roborun::sim {

struct LatencyConfig {
  // Perception: point cloud kernel (fixed cost + per-ray depth processing).
  double point_cloud_fixed = 0.210;
  double point_cloud_per_ray = 2.0e-6;

  // Perception: OctoMap kernel, per voxel-level ray-march step.
  double octomap_per_step = 6.5e-5;

  // Perception-to-planning bridge: per map node pruned/serialized.
  double bridge_per_node = 1.0e-5;

  // Planning: RRT* per iteration and per collision-check march step.
  double planner_per_iteration = 1.0e-4;
  double planner_per_check_step = 2.0e-5;

  // Path smoothing: per trajectory segment solved.
  double smoother_per_segment = 5.0e-3;

  // Runtime layer: RoboRun governor (profilers + budgeter + solver) vs the
  // baseline's static parameter lookup.
  double runtime_governor = 0.050;
  double runtime_static = 0.002;
};

/// Inter-stage communication cost. Fig. 11a of the paper splits decision
/// latency into computation and communication stages, and the comm share
/// depends on the message payload (point cloud, planner map, trajectory).
/// ROS charges serialization + transport per message; this charges a fixed
/// per-message overhead plus bytes over an effective transport rate.
struct CommModel {
  double base_latency = 0.003;      ///< s; per-message serialization overhead
  double bytes_per_second = 2.0e6;  ///< effective intra-host transport rate

  double cost(std::size_t bytes) const {
    return base_latency + static_cast<double>(bytes) / bytes_per_second;
  }
};

class LatencyModel {
 public:
  LatencyModel() = default;
  explicit LatencyModel(const LatencyConfig& config) : config_(config) {}

  const LatencyConfig& config() const { return config_; }

  double pointCloud(std::size_t rays) const {
    return config_.point_cloud_fixed + config_.point_cloud_per_ray * static_cast<double>(rays);
  }
  double octomap(std::size_t ray_steps) const {
    return config_.octomap_per_step * static_cast<double>(ray_steps);
  }
  double bridge(std::size_t nodes) const {
    return config_.bridge_per_node * static_cast<double>(nodes);
  }
  double planner(std::size_t iterations, std::size_t check_steps) const {
    return config_.planner_per_iteration * static_cast<double>(iterations) +
           config_.planner_per_check_step * static_cast<double>(check_steps);
  }
  double smoother(std::size_t segments) const {
    return config_.smoother_per_segment * static_cast<double>(segments);
  }
  double runtime(bool governed) const {
    return governed ? config_.runtime_governor : config_.runtime_static;
  }

 private:
  LatencyConfig config_;
};

}  // namespace roborun::sim
