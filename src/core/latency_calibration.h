// Offline latency-model calibration.
//
// The paper: "To find each stage's latency as a function of precision and
// volume, we profiled a representative set of precision-volume combinations.
// We then fit a polynomial model to this data with <8% average MSE."
//
// Our representative set comes from the kernels' analytic work models (the
// same work accounting the kernels report at runtime) evaluated over the
// knob grid of Table II, converted to seconds by the LatencyModel. The fit
// (Eq. 4, see LatencyPredictor) is what the governor's solver consults.
#pragma once

#include <array>
#include <vector>

#include "core/knob_config.h"
#include "core/latency_predictor.h"
#include "sim/latency_model.h"

namespace roborun::core {

/// Scene assumptions behind the calibration samples (a mid-congestion
/// operating point; bench/paper_report.cpp's Fig. 2a and Eq. 4 sections
/// print what it yields).
struct CalibrationScene {
  std::size_t sensor_rays = 1680;    ///< rays per sweep (6 cams x 20 x 14)
  double surface_fraction = 0.08;    ///< obstacle share of the region surface
  double planner_step = 5.0;         ///< m; RRT* extension step
  double planner_neighbor_checks = 4.0;  ///< avg collision checks per iteration
  std::size_t planner_max_iterations = 3000;
  std::size_t volumes_per_stage = 8; ///< grid density on the volume axis
};

/// Work-model latency of one stage at (p, v) — ground truth for the fit.
double modeledStageLatency(Stage stage, double precision, double volume,
                           const sim::LatencyModel& model, const CalibrationScene& scene);

/// The (p, v, latency) sample grid for one stage over the Table II ranges.
std::vector<LatencySample> calibrationSamples(Stage stage, const sim::LatencyModel& model,
                                              const KnobConfig& knobs,
                                              const CalibrationScene& scene);

struct CalibrationResult {
  LatencyPredictor predictor;
  std::array<double, kNumStages> relative_mse{};  ///< per-stage fit quality
};

/// Fit all three stages; the runtime factories call this once at startup.
CalibrationResult calibratePredictor(const sim::LatencyModel& model, const KnobConfig& knobs,
                                     const CalibrationScene& scene = {});

}  // namespace roborun::core
