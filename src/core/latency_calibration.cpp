#include "core/latency_calibration.h"

#include <algorithm>
#include <cmath>
#include <numbers>

namespace roborun::core {

namespace {

double effectiveRadius(double volume) {
  return std::cbrt(3.0 * volume / (4.0 * std::numbers::pi));
}

}  // namespace

double modeledStageLatency(Stage stage, double precision, double volume,
                           const sim::LatencyModel& model, const CalibrationScene& scene) {
  switch (stage) {
    case Stage::Perception: {
      // Ray-march work saturating harmonically at the region's voxel count
      // (mirrors the OctoMap kernel's dedup model).
      const double r = effectiveRadius(volume);
      const double ray_steps =
          std::max(1.0, static_cast<double>(scene.sensor_rays) * r / precision);
      const double voxel_cap =
          std::max(1.0, volume / (precision * precision * precision));
      const double steps = 1.0 / (1.0 / ray_steps + 1.0 / voxel_cap);
      return model.octomap(static_cast<std::size_t>(std::max(1.0, steps)));
    }
    case Stage::PerceptionToPlanning: {
      // Pruned occupied nodes scale with the region surface over p^2; comm
      // cost (16 B/node over the transport) is folded in since the governor
      // budgets end-to-end time.
      const double area = std::pow(36.0 * std::numbers::pi, 1.0 / 3.0) *
                          std::pow(std::max(volume, 1.0), 2.0 / 3.0);
      const double nodes = scene.surface_fraction * area / (precision * precision);
      const double comm_per_node = 16.0 / sim::CommModel{}.bytes_per_second;
      return model.bridge(static_cast<std::size_t>(std::max(1.0, nodes))) +
             nodes * comm_per_node;
    }
    case Stage::Planning: {
      const double cell = scene.planner_step;
      const double iters = std::min(static_cast<double>(scene.planner_max_iterations),
                                    std::max(1.0, volume / (cell * cell * cell)));
      const double steps_per_iter = scene.planner_neighbor_checks * cell / precision;
      return model.planner(static_cast<std::size_t>(iters),
                           static_cast<std::size_t>(iters * steps_per_iter));
    }
  }
  return 0.0;
}

std::vector<LatencySample> calibrationSamples(Stage stage, const sim::LatencyModel& model,
                                              const KnobConfig& knobs,
                                              const CalibrationScene& scene) {
  const KnobRange volume_range = [&] {
    switch (stage) {
      case Stage::Perception: return knobs.dynamic_octomap_volume;
      case Stage::PerceptionToPlanning: return knobs.dynamic_bridge_volume;
      case Stage::Planning: return knobs.dynamic_planner_volume;
    }
    return KnobRange{};
  }();

  std::vector<LatencySample> samples;
  const auto ladder = knobs.precisionLadder();
  const std::size_t nv = std::max<std::size_t>(scene.volumes_per_stage, 2);
  for (int li = 0; li < knobs.precision_levels; ++li) {
    const double p = ladder[static_cast<std::size_t>(li)];
    for (std::size_t vi = 1; vi <= nv; ++vi) {
      // Skip v = 0 (zero latency carries no fit information).
      const double v = volume_range.lo +
                       (volume_range.hi - volume_range.lo) * static_cast<double>(vi) /
                           static_cast<double>(nv);
      samples.push_back({p, v, modeledStageLatency(stage, p, v, model, scene)});
    }
  }
  return samples;
}

CalibrationResult calibratePredictor(const sim::LatencyModel& model, const KnobConfig& knobs,
                                     const CalibrationScene& scene) {
  CalibrationResult result;
  for (std::size_t i = 0; i < kNumStages; ++i) {
    const auto stage = static_cast<Stage>(i);
    const auto samples = calibrationSamples(stage, model, knobs, scene);
    result.relative_mse[i] = result.predictor.fit(stage, samples);
  }
  return result;
}

}  // namespace roborun::core
