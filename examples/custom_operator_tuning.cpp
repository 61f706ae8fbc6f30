// Using the RoboRun core API directly: profile a scene, budget time, solve
// for knobs, and inspect the resulting policy — the workflow for anyone
// integrating the governor into their own pipeline or adding an operator.
//
// Also demonstrates re-calibrating the Eq. 4 latency model for different
// compute hardware (an accelerated OctoMap) and how that changes the
// solver's choices under the same deadline.

#include <iostream>
#include <utility>

#include "core/decision_engine.h"
#include "core/latency_calibration.h"
#include "runtime/report.h"

int main() {
  using namespace roborun;

  // --- 1. Calibrate the latency model for two compute platforms ---
  const core::KnobConfig knobs;
  const sim::LatencyConfig stock;           // the paper's 4-core i9 calibration
  sim::LatencyConfig accelerated = stock;   // e.g. an OctoMap FPGA offload
  accelerated.octomap_per_step /= 8.0;

  const auto stock_cal = core::calibratePredictor(sim::LatencyModel(stock), knobs);
  const auto accel_cal = core::calibratePredictor(sim::LatencyModel(accelerated), knobs);

  // --- 2. Describe the space the drone currently sees ---
  core::SpaceProfile congested;
  congested.gap_avg = 3.0;       // aisle-scale gaps
  congested.gap_min = 1.2;
  congested.d_obstacle = 2.0;    // wall 2 m away
  congested.d_unknown = 6.0;
  congested.sensor_volume = 113000.0;
  congested.map_volume = 70000.0;
  congested.velocity = 1.0;
  congested.visibility = 6.0;
  congested.waypoints.push_back({{0, 0, 3}, 1.0, 6.0, 0.0});
  congested.waypoints.push_back({{5, 0, 3}, 1.5, 5.0, 3.0});
  congested.waypoints.push_back({{10, 0, 3}, 1.5, 4.0, 3.0});

  // --- 3. Budget and solve on both platforms ---
  for (const auto& [name, cal] :
       {std::pair{"stock i9", &stock_cal}, std::pair{"accelerated octomap", &accel_cal}}) {
    core::DecisionEngine::Config config;
    config.knobs = knobs;
    core::DecisionEngine governor(config, cal->predictor);
    const auto decision = governor.decide(congested);
    runtime::printBanner(std::cout, name);
    runtime::printMetric(std::cout, "time budget (deadline)", decision.budget, "s");
    runtime::printMetric(std::cout, "predicted pipeline latency",
                         decision.policy.predicted_latency, "s");
    for (std::size_t i = 0; i < core::kNumStages; ++i) {
      const auto stage = static_cast<core::Stage>(i);
      const auto& s = decision.policy.stage(stage);
      std::cout << "    " << core::stageName(stage) << ": precision " << s.precision
                << " m, volume " << s.volume << " m^3\n";
    }
  }

  std::cout << "\nWith the same deadline, cheaper OctoMap work lets the solver afford\n"
               "finer precision and/or more volume — recalibration is all it takes to\n"
               "retarget RoboRun to new compute hardware.\n";
  return 0;
}
