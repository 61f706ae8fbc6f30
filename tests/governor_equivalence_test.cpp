// DecisionEngine vs frozen seed governor (tests/reference_governor.h):
// randomized profile x budget x strategy grids must produce BIT-IDENTICAL
// policies, objectives and budget_met flags, and the engine's space profile
// must reproduce core::profileSpace bit-for-bit under arbitrary
// map-change / trajectory-change / hover schedules.
#include <gtest/gtest.h>

#include <cstring>
#include <vector>

#include "core/decision_engine.h"
#include "core/latency_calibration.h"
#include "env/env_gen.h"
#include "perception/octomap_kernel.h"
#include "perception/point_cloud.h"
#include "reference_governor.h"

namespace roborun::core {
namespace {

using geom::Rng;
using geom::Vec3;

bool bitEqual(double a, double b) { return std::memcmp(&a, &b, sizeof(double)) == 0; }

LatencyPredictor calibrated(const KnobConfig& knobs = {}) {
  const sim::LatencyModel model;
  return calibratePredictor(model, knobs).predictor;
}

/// A mission-shaped random profile: gaps/threats/volumes plus a waypoint
/// chain so Algorithm 1 produces varied budgets.
SpaceProfile randomProfile(Rng& rng) {
  SpaceProfile p;
  p.gap_min = rng.uniform(0.4, 20.0);
  p.gap_avg = p.gap_min + rng.uniform(0.0, 80.0);
  p.d_obstacle = rng.uniform(0.3, 30.0);
  p.d_unknown = rng.uniform(1.0, 40.0);
  p.sensor_volume = rng.uniform(20000.0, 120000.0);
  p.map_volume = rng.uniform(5000.0, 150000.0);
  p.velocity = rng.uniform(0.0, 3.2);
  p.position = rng.uniformInBox({-50, -50, 1}, {50, 50, 8});
  p.visibility = rng.uniform(1.0, 30.0);

  const int horizon = rng.uniformInt(1, 10);
  Vec3 wp = p.position;
  p.waypoints.push_back({wp, std::max(p.velocity, 0.05), p.visibility, 0.0});
  for (int i = 1; i < horizon; ++i) {
    wp = wp + Vec3{rng.uniform(1.0, 6.0), rng.uniform(-2.0, 2.0), 0.0};
    p.waypoints.push_back({wp, rng.uniform(0.1, 3.2), rng.uniform(0.5, 30.0),
                           rng.uniform(0.1, 3.0)});
  }
  return p;
}

void expectDecisionIdentical(const GovernorDecision& got, const GovernorDecision& want,
                             const char* context) {
  EXPECT_TRUE(bitEqual(got.budget, want.budget)) << context;
  EXPECT_EQ(got.budget_met, want.budget_met) << context;
  EXPECT_TRUE(bitEqual(got.solver_objective, want.solver_objective)) << context;
  EXPECT_TRUE(bitEqual(got.policy.deadline, want.policy.deadline)) << context;
  EXPECT_TRUE(bitEqual(got.policy.predicted_latency, want.policy.predicted_latency))
      << context;
  for (std::size_t i = 0; i < kNumStages; ++i) {
    EXPECT_TRUE(bitEqual(got.policy.stages[i].precision, want.policy.stages[i].precision))
        << context << " stage " << i;
    EXPECT_TRUE(bitEqual(got.policy.stages[i].volume, want.policy.stages[i].volume))
        << context << " stage " << i;
  }
}

void expectProfileIdentical(const SpaceProfile& got, const SpaceProfile& want,
                            const char* context) {
  EXPECT_TRUE(bitEqual(got.gap_avg, want.gap_avg)) << context;
  EXPECT_TRUE(bitEqual(got.gap_min, want.gap_min)) << context;
  EXPECT_TRUE(bitEqual(got.d_obstacle, want.d_obstacle)) << context;
  EXPECT_TRUE(bitEqual(got.d_unknown, want.d_unknown)) << context;
  EXPECT_TRUE(bitEqual(got.sensor_volume, want.sensor_volume)) << context;
  EXPECT_TRUE(bitEqual(got.map_volume, want.map_volume)) << context;
  EXPECT_TRUE(bitEqual(got.velocity, want.velocity)) << context;
  EXPECT_TRUE(bitEqual(got.visibility, want.visibility)) << context;
  EXPECT_TRUE(bitEqual(got.position.x, want.position.x)) << context;
  EXPECT_TRUE(bitEqual(got.position.y, want.position.y)) << context;
  EXPECT_TRUE(bitEqual(got.position.z, want.position.z)) << context;
  ASSERT_EQ(got.waypoints.size(), want.waypoints.size()) << context;
  for (std::size_t i = 0; i < got.waypoints.size(); ++i) {
    const auto& g = got.waypoints[i];
    const auto& w = want.waypoints[i];
    EXPECT_TRUE(bitEqual(g.position.x, w.position.x)) << context << " wp " << i;
    EXPECT_TRUE(bitEqual(g.position.y, w.position.y)) << context << " wp " << i;
    EXPECT_TRUE(bitEqual(g.position.z, w.position.z)) << context << " wp " << i;
    EXPECT_TRUE(bitEqual(g.velocity, w.velocity)) << context << " wp " << i;
    EXPECT_TRUE(bitEqual(g.visibility, w.visibility)) << context << " wp " << i;
    EXPECT_TRUE(bitEqual(g.flight_time_from_prev, w.flight_time_from_prev))
        << context << " wp " << i;
  }
}

// --- solver/governor core equivalence --------------------------------------

class StrategyGrid : public ::testing::TestWithParam<StrategyType> {};

TEST_P(StrategyGrid, EngineMatchesFrozenReferenceOverRandomSequences) {
  const StrategyType strategy = GetParam();
  const KnobConfig knobs;
  const BudgeterConfig budgeter;
  const LatencyPredictor predictor = calibrated(knobs);

  for (const std::uint64_t seed : {11u, 23u, 47u}) {
    DecisionEngine::Config config;
    config.knobs = knobs;
    config.budgeter = budgeter;
    DecisionEngine engine(config, predictor);
    engine.selectStrategy(strategy);

    reference::RoboRunGovernor ref(knobs, budgeter, predictor, knobs.fixed_overhead);
    ref.selectStrategy(strategy);

    Rng rng(seed);
    for (int step = 0; step < 150; ++step) {
      const SpaceProfile profile = randomProfile(rng);
      const GovernorDecision got = engine.decide(profile);
      const GovernorDecision want = ref.decide(profile);
      expectDecisionIdentical(got, want,
                              (std::string(strategyName(strategy)) + " step " +
                               std::to_string(step))
                                  .c_str());
    }
  }
}

INSTANTIATE_TEST_SUITE_P(AllStrategies, StrategyGrid,
                         ::testing::Values(StrategyType::Exhaustive, StrategyType::Greedy,
                                           StrategyType::UniformSplit,
                                           StrategyType::HysteresisExhaustive,
                                           StrategyType::HysteresisGreedy));

TEST(GovernorEquivalenceTest, CustomKnobConfigsMatchReference) {
  // Non-default ladders / ranges / overheads keep the equivalence: the
  // enumeration must not bake in Table II.
  KnobConfig knobs;
  knobs.voxel_min = 0.25;
  knobs.precision_levels = 5;
  knobs.dynamic_precision = {0.25, 4.0};
  knobs.dynamic_octomap_volume = {0.0, 30000.0};
  knobs.fixed_overhead = 0.31;
  const LatencyPredictor predictor = calibrated(knobs);

  DecisionEngine::Config config;
  config.knobs = knobs;
  DecisionEngine engine(config, predictor);
  reference::RoboRunGovernor ref(knobs, BudgeterConfig{}, predictor, knobs.fixed_overhead);

  Rng rng(404);
  for (int i = 0; i < 150; ++i) {
    const SpaceProfile profile = randomProfile(rng);
    expectDecisionIdentical(engine.decide(profile), ref.decide(profile), "custom knobs");
  }
}

// --- sensor-path (profiler) equivalence ------------------------------------

struct ProfilerScenario {
  env::Environment environment;
  sim::DepthCameraArray sensor;
  perception::OccupancyOctree octree;
  planning::Trajectory trajectory;

  explicit ProfilerScenario(std::uint64_t env_seed)
      : environment(makeEnv(env_seed)),
        sensor(sim::SensorConfig{}),
        octree(environment.world->extent(), 0.3) {}

  static env::Environment makeEnv(std::uint64_t seed) {
    env::EnvSpec spec;
    spec.goal_distance = 240.0;
    spec.obstacle_spread = 35.0;
    spec.seed = seed;
    return env::generateEnvironment(spec);
  }

  /// One sensor sweep integrated into the octree.
  void integrateSweep(const Vec3& pos, double precision = 0.3) {
    const sim::SensorFrame frame = sensor.capture(*environment.world, pos);
    const auto cloud = perception::downsample(perception::fromSensorFrame(frame), precision);
    perception::OctomapInsertParams ins;
    ins.precision = precision;
    perception::insertPointCloud(octree, cloud.cloud, ins, {});
  }

  void setTrajectory(const Vec3& from, const Vec3& to, std::size_t points) {
    std::vector<planning::TrajectoryPoint> pts;
    for (std::size_t i = 0; i < points; ++i) {
      const double f = static_cast<double>(i) / static_cast<double>(points - 1);
      planning::TrajectoryPoint p;
      p.position = from + (to - from) * f;
      p.velocity = 1.5;
      p.time = f * 20.0;
      pts.push_back(p);
    }
    trajectory = planning::Trajectory(std::move(pts));
  }
};

TEST(ProfilerEquivalenceTest, EngineProfileMatchesSeedUnderFlownSchedules) {
  const ProfilerConfig profiler_config;
  DecisionEngine::Config config;
  config.profiler = profiler_config;
  DecisionEngine engine(config, calibrated());

  ProfilerScenario scene(17);
  scene.setTrajectory({0, 0, 3}, {60, 4, 3}, 24);

  Rng rng(55);
  Vec3 pos{0, 0, 3};
  Vec3 vel{1.2, 0, 0};
  int hover_streak = 0;
  for (int epoch = 0; epoch < 60; ++epoch) {
    // Movement model: mostly advance, sometimes hover in place (identical
    // position).
    if (hover_streak > 0) {
      --hover_streak;
    } else if (rng.chance(0.35)) {
      hover_streak = rng.uniformInt(1, 4);
    } else {
      pos = pos + Vec3{rng.uniform(0.5, 2.5), rng.uniform(-0.5, 0.5), 0.0};
    }

    const sim::SensorFrame frame = scene.sensor.capture(*scene.environment.world, pos);
    const Vec3 travel = vel.norm() > 0.2 ? vel : Vec3{1, 0, 0};

    const SpaceProfile want = profileSpace(frame, scene.octree, scene.trajectory, pos, vel,
                                           travel, profiler_config);
    const SpaceProfile got =
        engine.profile(frame, scene.octree, scene.trajectory, pos, vel, travel);
    expectProfileIdentical(got, want, ("epoch " + std::to_string(epoch)).c_str());

    // Mutate the world model like a mission epoch would; sometimes sweep
    // from far off-corridor, sometimes from the corridor itself.
    const Vec3 sweep_origin =
        rng.chance(0.5) ? pos : pos + Vec3{0.0, rng.uniform(40.0, 60.0), 0.0};
    scene.integrateSweep(sweep_origin);

    // Occasionally replan (new trajectory object contents).
    if (rng.chance(0.15))
      scene.setTrajectory(pos, pos + Vec3{55, rng.uniform(-8.0, 8.0), 0}, 20);
  }

  // Every epoch had a multi-point trajectory, so every profile is counted.
  EXPECT_EQ(engine.stats().profile_builds, 60u);
}

TEST(ProfilerEquivalenceTest, EmptyAndDegenerateTrajectories) {
  const ProfilerConfig profiler_config;
  DecisionEngine::Config config;
  config.profiler = profiler_config;
  DecisionEngine engine(config, calibrated());

  ProfilerScenario scene(29);
  const Vec3 pos{2, 1, 3};
  const Vec3 vel{0, 0, 0};
  const sim::SensorFrame frame = scene.sensor.capture(*scene.environment.world, pos);

  // Empty trajectory (startup/hover).
  {
    const SpaceProfile want = profileSpace(frame, scene.octree, scene.trajectory, pos, vel,
                                           {1, 0, 0}, profiler_config);
    const SpaceProfile got =
        engine.profile(frame, scene.octree, scene.trajectory, pos, vel, {1, 0, 0});
    expectProfileIdentical(got, want, "empty trajectory");
  }
  // Single-point trajectory (no sample pass, so not counted).
  {
    scene.trajectory = planning::Trajectory({{{5, 0, 3}, 1.0, 0.0}});
    const SpaceProfile want = profileSpace(frame, scene.octree, scene.trajectory, pos, vel,
                                           {1, 0, 0}, profiler_config);
    const SpaceProfile got =
        engine.profile(frame, scene.octree, scene.trajectory, pos, vel, {1, 0, 0});
    expectProfileIdentical(got, want, "single-point trajectory");
  }
  EXPECT_EQ(engine.stats().profile_builds, 0u);
  // Sub-floor probe step (the d_unknown probe and the waypoint pass run at
  // different step widths).
  {
    ProfilerConfig fine = profiler_config;
    fine.unknown_probe_step = 0.1;
    DecisionEngine::Config fine_config;
    fine_config.profiler = fine;
    DecisionEngine fine_engine(fine_config, calibrated());
    ProfilerScenario fine_scene(31);
    fine_scene.setTrajectory({0, 0, 3}, {40, 0, 3}, 16);
    const sim::SensorFrame f2 = fine_scene.sensor.capture(*fine_scene.environment.world, pos);
    const SpaceProfile want = profileSpace(f2, fine_scene.octree, fine_scene.trajectory, pos,
                                           vel, {1, 0, 0}, fine);
    const SpaceProfile got =
        fine_engine.profile(f2, fine_scene.octree, fine_scene.trajectory, pos, vel, {1, 0, 0});
    expectProfileIdentical(got, want, "sub-floor probe step");
  }
}

TEST(GovernorEquivalenceTest, SensorPathDecisionsMatchReferenceComposition) {
  // The full decideFromSensors path against the seed composition
  // (profileSpace + frozen governor) over a flown schedule.
  const KnobConfig knobs;
  const ProfilerConfig profiler_config;
  const LatencyPredictor predictor = calibrated(knobs);

  DecisionEngine::Config config;
  config.knobs = knobs;
  config.profiler = profiler_config;
  DecisionEngine engine(config, predictor);
  reference::RoboRunGovernor ref(knobs, BudgeterConfig{}, predictor, knobs.fixed_overhead);

  ProfilerScenario scene(43);
  scene.setTrajectory({0, 0, 3}, {70, 0, 3}, 28);

  Rng rng(77);
  Vec3 pos{0, 0, 3};
  const Vec3 vel{1.4, 0, 0};
  for (int epoch = 0; epoch < 40; ++epoch) {
    if (!rng.chance(0.3)) pos = pos + Vec3{rng.uniform(0.5, 2.0), 0, 0};
    const sim::SensorFrame frame = scene.sensor.capture(*scene.environment.world, pos);
    const Vec3 travel = vel;

    const EngineDecision got =
        engine.decideFromSensors(frame, scene.octree, scene.trajectory, pos, vel, travel);
    const SpaceProfile want_profile = profileSpace(frame, scene.octree, scene.trajectory,
                                                   pos, vel, travel, profiler_config);
    expectProfileIdentical(got.profile, want_profile,
                           ("sensor epoch " + std::to_string(epoch)).c_str());
    expectDecisionIdentical(got.decision, ref.decide(want_profile),
                            ("sensor epoch " + std::to_string(epoch)).c_str());

    scene.integrateSweep(pos);
  }
}

}  // namespace
}  // namespace roborun::core
