// Unit and property tests for the Eq. 3 governor solver and the Eq. 4
// latency predictor / calibration.
#include <gtest/gtest.h>

#include <cmath>
#include <stdexcept>

#include "core/latency_calibration.h"
#include "core/latency_predictor.h"
#include "core/solver.h"
#include "geom/rng.h"

namespace roborun::core {
namespace {

LatencyPredictor calibrated() {
  const sim::LatencyModel model;
  return calibratePredictor(model, KnobConfig{}).predictor;
}

SpaceProfile openSpaceProfile() {
  SpaceProfile p;
  p.gap_avg = 100.0;  // no gaps observed
  p.gap_min = 100.0;
  p.d_obstacle = 30.0;
  p.d_unknown = 30.0;
  p.sensor_volume = 113000.0;
  p.map_volume = 90000.0;
  p.velocity = 2.5;
  p.visibility = 30.0;
  return p;
}

SpaceProfile congestedProfile() {
  SpaceProfile p;
  p.gap_avg = 3.0;
  p.gap_min = 1.0;
  p.d_obstacle = 2.0;
  p.d_unknown = 4.0;
  p.sensor_volume = 113000.0;
  p.map_volume = 60000.0;
  p.velocity = 0.8;
  p.visibility = 4.0;
  return p;
}

TEST(KnobConfigTest, Table2Values) {
  const KnobConfig k;
  EXPECT_DOUBLE_EQ(k.static_point_cloud_precision, 0.3);
  EXPECT_DOUBLE_EQ(k.static_octomap_volume, 46000.0);
  EXPECT_DOUBLE_EQ(k.static_bridge_volume, 150000.0);
  EXPECT_DOUBLE_EQ(k.dynamic_precision.lo, 0.3);
  EXPECT_DOUBLE_EQ(k.dynamic_precision.hi, 9.6);
  EXPECT_DOUBLE_EQ(k.dynamic_octomap_volume.hi, 60000.0);
  EXPECT_DOUBLE_EQ(k.dynamic_bridge_volume.hi, 1000000.0);
}

TEST(KnobConfigTest, PrecisionLadderIsPowersOfTwo) {
  const KnobConfig k;
  const auto ladder = k.precisionLadder();
  for (int i = 0; i < k.precision_levels; ++i) {
    const double expected = 0.3 * std::pow(2.0, i);
    EXPECT_DOUBLE_EQ(ladder[static_cast<std::size_t>(i)], expected);
  }
}

// The ladder array holds 8 rungs and every enumeration indexes it up to
// precision_levels, so a level count outside [1, 8] must be refused rather
// than read past the array (or leave an empty ladder).
TEST(KnobConfigTest, PrecisionLadderRejectsLevelsItCannotHold) {
  KnobConfig k;
  k.precision_levels = 9;
  EXPECT_THROW(k.precisionLadder(), std::invalid_argument);
  EXPECT_THROW(calibratePredictor(sim::LatencyModel{}, k), std::invalid_argument);
  k.precision_levels = 0;
  EXPECT_THROW(k.precisionLadder(), std::invalid_argument);
  k.precision_levels = 8;
  EXPECT_DOUBLE_EQ(k.precisionLadder()[7], 38.4);
}

TEST(KnobConfigTest, SnapDownRoundsToFinerRung) {
  const KnobConfig k;
  EXPECT_DOUBLE_EQ(k.snapDown(0.7), 0.6);
  EXPECT_DOUBLE_EQ(k.snapDown(2.4), 2.4);
  EXPECT_DOUBLE_EQ(k.snapDown(50.0), 9.6);
  EXPECT_DOUBLE_EQ(k.snapDown(0.05), 0.3);
}

TEST(LatencyPredictorTest, Eq4Structure) {
  LatencyPredictor pred;
  pred.setCoeffs(Stage::Perception, {1.0, 0.0, 0.0, 0.0});
  // delta = (1/p)^3 * v
  EXPECT_NEAR(pred.predict(Stage::Perception, 0.5, 10.0), 8.0 * 10.0, 1e-9);
  // Halving precision (0.5 -> 0.25) gives 8x latency: the paper's Fig. 2a.
  EXPECT_NEAR(pred.predict(Stage::Perception, 0.25, 10.0) /
                  pred.predict(Stage::Perception, 0.5, 10.0),
              8.0, 1e-9);
  // Linear in volume.
  EXPECT_NEAR(pred.predict(Stage::Perception, 0.5, 20.0),
              2.0 * pred.predict(Stage::Perception, 0.5, 10.0), 1e-9);
}

TEST(LatencyPredictorTest, FitRecoversPlantedModel) {
  // Generate samples from a known Eq. 4 model and re-fit.
  LatencyPredictor truth;
  truth.setCoeffs(Stage::Planning, {2e-4, 1e-4, 5e-4, 3e-5});
  std::vector<LatencySample> samples;
  for (double p = 0.3; p <= 9.6; p *= 2.0)
    for (double v = 1000; v <= 100000; v *= 3.0)
      samples.push_back({p, v, truth.predict(Stage::Planning, p, v)});
  LatencyPredictor fitted;
  const double mse = fitted.fit(Stage::Planning, samples);
  EXPECT_LT(mse, 1e-12);
  for (const auto& s : samples)
    EXPECT_NEAR(fitted.predict(Stage::Planning, s.precision, s.volume), s.latency, 1e-9);
}

TEST(CalibrationTest, FitQualityUsable) {
  // The paper reports <8% MSE for its Eq. 4 fits against measured
  // latencies. Our ground truth is the analytic work model, whose
  // saturating shapes (ray/voxel dedup, iteration caps) are deliberately
  // not Eq. 4-shaped, so the parametric fit carries a larger residual —
  // bench/paper_report.cpp's Eq. 4 section prints it. This test guards
  // against regressions that would make the governor's model unusable, and
  // pins each stage's residual so a change to the samples or the latency
  // model cannot move the printed fit unnoticed.
  constexpr double kPinnedMse[kNumStages] = {0.41758231516779254, 0.24872729740449784,
                                             0.43003074689204013};
  const sim::LatencyModel model;
  const auto result = calibratePredictor(model, KnobConfig{});
  for (std::size_t i = 0; i < kNumStages; ++i) {
    EXPECT_LT(result.relative_mse[i], 0.5)
        << "stage " << stageName(static_cast<Stage>(i));
    EXPECT_NEAR(result.relative_mse[i], kPinnedMse[i], 0.01)
        << "stage " << stageName(static_cast<Stage>(i));
  }
}

TEST(CalibrationTest, ModeledLatencyMonotone) {
  const sim::LatencyModel model;
  const CalibrationScene scene;
  for (std::size_t i = 0; i < kNumStages; ++i) {
    const auto stage = static_cast<Stage>(i);
    // More volume -> more latency; coarser precision -> less latency.
    EXPECT_LE(modeledStageLatency(stage, 0.6, 10000, model, scene),
              modeledStageLatency(stage, 0.6, 50000, model, scene) + 1e-12);
    EXPECT_LE(modeledStageLatency(stage, 2.4, 30000, model, scene),
              modeledStageLatency(stage, 0.6, 30000, model, scene) + 1e-12);
  }
}

TEST(CalibrationTest, StaticKnobLatencyIsSecondsScale) {
  // At the baseline's static knobs the modeled pipeline latency must land
  // in the multi-second regime the paper reports (Fig. 11a right).
  const sim::LatencyModel model;
  const CalibrationScene scene;
  const double total =
      modeledStageLatency(Stage::Perception, 0.3, 46000, model, scene) +
      modeledStageLatency(Stage::PerceptionToPlanning, 0.3, 150000, model, scene) +
      modeledStageLatency(Stage::Planning, 0.3, 150000, model, scene);
  EXPECT_GT(total, 2.0);
  EXPECT_LT(total, 12.0);
}

GovernorSolver makeSolver(const LatencyPredictor& pred) {
  return GovernorSolver(KnobConfig{}, pred);
}

TEST(SolverTest, OpenSpaceRelaxesPrecision) {
  const auto pred = calibrated();
  const auto solver = makeSolver(pred);
  SolverInputs inputs;
  inputs.budget = 9.0;
  inputs.profile = openSpaceProfile();
  const auto result = solver.solve(inputs);
  // No gap/obstacle demand -> the coarsest rung is both allowed and forced.
  EXPECT_DOUBLE_EQ(result.policy.stage(Stage::Perception).precision, 9.6);
  EXPECT_TRUE(result.budget_met);
}

TEST(SolverTest, CongestionForcesFinePrecision) {
  const auto pred = calibrated();
  const auto solver = makeSolver(pred);
  SolverInputs inputs;
  inputs.budget = 8.0;
  inputs.profile = congestedProfile();
  const auto result = solver.solve(inputs);
  // d_obs 2 m -> precision demand ~<= 1 m: must be a fine rung.
  EXPECT_LE(result.policy.stage(Stage::Perception).precision, 1.2);
}

TEST(SolverTest, ConstraintP0LeP1) {
  const auto pred = calibrated();
  const auto solver = makeSolver(pred);
  for (const double budget : {0.5, 2.0, 8.0}) {
    SolverInputs inputs;
    inputs.budget = budget;
    inputs.profile = congestedProfile();
    const auto result = solver.solve(inputs);
    EXPECT_LE(result.policy.stage(Stage::Perception).precision,
              result.policy.stage(Stage::PerceptionToPlanning).precision + 1e-9);
    // p1 == p2 (framework constraint).
    EXPECT_DOUBLE_EQ(result.policy.stage(Stage::PerceptionToPlanning).precision,
                     result.policy.stage(Stage::Planning).precision);
  }
}

TEST(SolverTest, VolumeOrderingConstraint) {
  const auto pred = calibrated();
  const auto solver = makeSolver(pred);
  SolverInputs inputs;
  inputs.budget = 5.0;
  inputs.profile = congestedProfile();
  const auto result = solver.solve(inputs);
  const double v0 = result.policy.stage(Stage::Perception).volume;
  const double v1 = result.policy.stage(Stage::PerceptionToPlanning).volume;
  EXPECT_LE(v0, v1 + 1e-6);
  EXPECT_LE(v1, std::min(inputs.profile.sensor_volume, inputs.profile.map_volume) + 1e-6);
}

TEST(SolverTest, PrecisionOnPowerOfTwoGrid) {
  const auto pred = calibrated();
  const auto solver = makeSolver(pred);
  geom::Rng rng(3);
  const KnobConfig knobs;
  for (int trial = 0; trial < 30; ++trial) {
    SolverInputs inputs;
    inputs.budget = rng.uniform(0.3, 10.0);
    SpaceProfile prof = congestedProfile();
    prof.gap_avg = rng.uniform(0.5, 50.0);
    prof.gap_min = rng.uniform(0.3, prof.gap_avg);
    prof.d_obstacle = rng.uniform(0.5, 30.0);
    inputs.profile = prof;
    const auto result = solver.solve(inputs);
    for (std::size_t i = 0; i < kNumStages; ++i) {
      const double p = result.policy.stages[i].precision;
      const double n = std::log2(p / knobs.voxel_min);
      EXPECT_NEAR(n, std::round(n), 1e-9) << "precision off-grid: " << p;
      EXPECT_TRUE(knobs.dynamic_precision.contains(p));
    }
  }
}

TEST(SolverTest, TighterBudgetNeverMoreVolume) {
  const auto pred = calibrated();
  const auto solver = makeSolver(pred);
  double prev_volume = -1.0;
  for (const double budget : {0.4, 1.0, 3.0, 9.0}) {
    SolverInputs inputs;
    inputs.budget = budget;
    inputs.profile = congestedProfile();
    const auto result = solver.solve(inputs);
    const double v = result.policy.stage(Stage::Perception).volume;
    if (prev_volume >= 0.0) {
      EXPECT_GE(v + 1e-6, prev_volume);
    }
    prev_volume = v;
  }
}

TEST(SolverTest, PredictedLatencyFitsGenerousBudget) {
  const auto pred = calibrated();
  const auto solver = makeSolver(pred);
  SolverInputs inputs;
  inputs.budget = 10.0;
  inputs.profile = congestedProfile();
  const auto result = solver.solve(inputs);
  EXPECT_TRUE(result.budget_met);
  EXPECT_LE(result.policy.predicted_latency, inputs.budget + 1e-6);
}

TEST(SolverTest, DeadlineRecordedOnPolicy) {
  const auto pred = calibrated();
  const auto solver = makeSolver(pred);
  SolverInputs inputs;
  inputs.budget = 3.3;
  inputs.profile = openSpaceProfile();
  const auto result = solver.solve(inputs);
  EXPECT_DOUBLE_EQ(result.policy.deadline, 3.3);
}

// Property sweep over random profiles: every solver output satisfies all
// Eq. 3 constraints.
class SolverConstraintSweep : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(SolverConstraintSweep, AllConstraintsHold) {
  const auto pred = calibrated();
  const auto solver = makeSolver(pred);
  const KnobConfig knobs;
  geom::Rng rng(GetParam());
  for (int trial = 0; trial < 25; ++trial) {
    SpaceProfile prof;
    prof.gap_avg = rng.uniform(0.5, 100.0);
    prof.gap_min = rng.uniform(0.3, prof.gap_avg);
    prof.d_obstacle = rng.uniform(0.3, 30.0);
    prof.sensor_volume = 113000.0;
    prof.map_volume = rng.uniform(500.0, 200000.0);
    prof.visibility = rng.uniform(1.0, 30.0);
    prof.velocity = rng.uniform(0.0, 3.2);
    SolverInputs inputs;
    inputs.budget = rng.uniform(0.1, 10.0);
    inputs.profile = prof;
    const auto result = solver.solve(inputs);
    const auto& pol = result.policy;
    EXPECT_LE(pol.stage(Stage::Perception).precision,
              pol.stage(Stage::PerceptionToPlanning).precision + 1e-9);
    EXPECT_DOUBLE_EQ(pol.stage(Stage::PerceptionToPlanning).precision,
                     pol.stage(Stage::Planning).precision);
    EXPECT_LE(pol.stage(Stage::Perception).volume,
              pol.stage(Stage::PerceptionToPlanning).volume + 1e-6);
    EXPECT_LE(pol.stage(Stage::PerceptionToPlanning).volume,
              std::min(prof.sensor_volume, prof.map_volume) + 1e-6);
    EXPECT_TRUE(knobs.dynamic_precision.contains(pol.stage(Stage::Perception).precision));
    EXPECT_GE(pol.stage(Stage::Perception).volume, 0.0);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SolverConstraintSweep,
                         ::testing::Values(10u, 20u, 30u, 40u, 50u));

// --- computeEnvelope edge cases --------------------------------------------

TEST(EnvelopeTest, ZeroVisibilityProfileStillDemandsSafetyFloor) {
  // A blind decision (startup, total occlusion): no gaps observed, no
  // obstacle sensed, zero visibility. The envelope must collapse precision
  // to the finest rung and still demand a positive map volume so the MAV
  // can re-decide safely.
  const KnobConfig knobs;
  SpaceProfile prof;  // all zeros
  const KnobEnvelope env = computeEnvelope(knobs, prof);
  EXPECT_DOUBLE_EQ(env.p0_lo, knobs.voxel_min);
  EXPECT_DOUBLE_EQ(env.p0_hi, knobs.voxel_min);
  // The 5 m minimum horizon sphere, not zero.
  const double floor_sphere = 4.0 / 3.0 * std::acos(-1.0) * 125.0;
  EXPECT_NEAR(env.v_demand, std::min(floor_sphere, env.v0_cap), 1e-6);
  EXPECT_GT(env.v_demand, 0.0);
  // Unmeasured sensor/map volumes must not zero the caps: Table II bounds.
  EXPECT_DOUBLE_EQ(env.v1_cap, knobs.dynamic_bridge_volume.hi);
  EXPECT_DOUBLE_EQ(env.v0_cap, knobs.dynamic_octomap_volume.hi);
  // The scale interpolation stays within [floor, cap] at both ends.
  const auto at_floor = env.volumesAtScale(0.0);
  const auto at_cap = env.volumesAtScale(1.0);
  EXPECT_DOUBLE_EQ(at_floor[0], env.v_demand);
  EXPECT_DOUBLE_EQ(at_cap[0], std::max(env.v0_cap, env.v_demand));
}

TEST(EnvelopeTest, BudgetBelowFixedOverheadStillReturnsSafePolicy) {
  // Eq. 3 with budget < fixed_overhead: the knob budget clamps to zero. The
  // solver must still return a constraint-satisfying policy — volumes pinned
  // at the safety floor — and report the budget as missed, never crash or
  // return garbage.
  const auto pred = calibrated();
  const auto solver = makeSolver(pred);
  SolverInputs inputs;
  inputs.budget = 0.1;
  inputs.fixed_overhead = 0.27;  // > budget
  inputs.profile = congestedProfile();
  const auto result = solver.solve(inputs);
  EXPECT_FALSE(result.budget_met);
  const KnobEnvelope env = computeEnvelope(solver.knobs(), inputs.profile);
  // With zero knob budget the monotone search never leaves the floor.
  EXPECT_NEAR(result.policy.stage(Stage::Perception).volume, env.v_demand, 1e-6);
  EXPECT_NEAR(result.policy.stage(Stage::PerceptionToPlanning).volume, env.v_demand, 1e-6);
  EXPECT_NEAR(result.policy.stage(Stage::Planning).volume, env.v_demand, 1e-6);
  EXPECT_DOUBLE_EQ(result.policy.deadline, 0.1);
  EXPECT_GE(result.policy.predicted_latency, inputs.fixed_overhead);
  EXPECT_TRUE(solver.knobs().dynamic_precision.contains(
      result.policy.stage(Stage::Perception).precision));
}

TEST(EnvelopeTest, PrecisionSnapsToFinestRung) {
  // Gaps far below the finest voxel: the demand clamps *up* to voxmin (the
  // ladder cannot resolve finer), pinning both ends at rung 0.
  const KnobConfig knobs;
  SpaceProfile prof = congestedProfile();
  prof.gap_min = 0.01;
  prof.gap_avg = 0.02;
  prof.d_obstacle = 0.01;
  const KnobEnvelope env = computeEnvelope(knobs, prof);
  EXPECT_DOUBLE_EQ(env.p0_lo, knobs.voxel_min);
  EXPECT_DOUBLE_EQ(env.p0_hi, knobs.voxel_min);
}

TEST(EnvelopeTest, PrecisionSnapsToCoarsestRung) {
  // Open space with huge gaps and a distant obstacle: both ends clamp to
  // the coarsest rung (voxmin * 2^(levels-1) = 9.6 m).
  const KnobConfig knobs;
  SpaceProfile prof = openSpaceProfile();
  prof.gap_min = 1000.0;
  prof.gap_avg = 1000.0;
  prof.d_obstacle = 1000.0;
  const KnobEnvelope env = computeEnvelope(knobs, prof);
  const double coarsest =
      knobs.voxel_min * std::pow(2.0, knobs.precision_levels - 1);
  EXPECT_DOUBLE_EQ(env.p0_lo, coarsest);
  EXPECT_DOUBLE_EQ(env.p0_hi, coarsest);
  // Snapping must land exactly on ladder rungs.
  const auto ladder = knobs.precisionLadder();
  const auto on_ladder = [&](double p) {
    for (int i = 0; i < knobs.precision_levels; ++i)
      if (std::abs(ladder[static_cast<std::size_t>(i)] - p) < 1e-12) return true;
    return false;
  };
  EXPECT_TRUE(on_ladder(env.p0_lo));
  EXPECT_TRUE(on_ladder(env.p0_hi));
}

TEST(EnvelopeTest, CloseObstacleOverridesWideGapFloor) {
  // Wide observed gaps would allow coarse voxels, but a very close obstacle
  // drives the demand ceiling *below* the floor; safety must win and the
  // interval collapse onto the (finer) ceiling.
  const KnobConfig knobs;
  SpaceProfile prof = openSpaceProfile();
  prof.gap_min = 100.0;  // floor alone would snap to 9.6
  prof.gap_avg = 100.0;
  prof.d_obstacle = 0.4;  // ceiling: 0.2 -> clamps to 0.3
  const KnobEnvelope env = computeEnvelope(knobs, prof);
  EXPECT_DOUBLE_EQ(env.p0_hi, knobs.voxel_min);
  EXPECT_LE(env.p0_lo, env.p0_hi);
  EXPECT_DOUBLE_EQ(env.p0_lo, env.p0_hi);  // collapsed, not inverted
}

}  // namespace
}  // namespace roborun::core
