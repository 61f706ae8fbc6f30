// Unit tests for the navigation pipeline and runtime metrics.
#include <gtest/gtest.h>

#include "core/governor.h"
#include "env/env_gen.h"
#include "runtime/metrics.h"
#include "runtime/pipeline.h"
#include "runtime/trace.h"
#include "sim/latency_model.h"
#include "sim/sensor.h"

namespace roborun::runtime {
namespace {

using core::PipelinePolicy;
using core::Stage;
using geom::Aabb;
using geom::Vec3;

PipelinePolicy staticPolicy() {
  return core::StaticGovernor(core::KnobConfig{}, sim::StoppingModel{}).policy();
}

PipelinePolicy coarsePolicy() {
  PipelinePolicy p;
  p.stage(Stage::Perception) = {9.6, 30000.0};
  p.stage(Stage::PerceptionToPlanning) = {9.6, 80000.0};
  p.stage(Stage::Planning) = {9.6, 80000.0};
  p.deadline = 9.0;
  return p;
}

struct Fixture {
  env::Environment environment;
  sim::DepthCameraArray sensor;
  NavigationPipeline pipeline;

  explicit Fixture(double goal_distance = 420.0, const PipelineConfig& config = {})
      : environment(makeEnv(goal_distance)),
        sensor(sim::SensorConfig{}),
        pipeline(environment.world->extent(), environment.spec.goal(), config, 99) {}

  static env::Environment makeEnv(double goal_distance) {
    env::EnvSpec spec;
    spec.goal_distance = goal_distance;
    spec.seed = 12;
    return env::generateEnvironment(spec);
  }

  DecisionOutcome decideAt(const Vec3& pos, const PipelinePolicy& policy) {
    const auto frame = sensor.capture(*environment.world, pos);
    return pipeline.decide(frame, pos, policy, 0.05);
  }
};

TEST(PipelineTest, FirstDecisionPlansATrajectory) {
  Fixture f;
  const auto out = f.decideAt(f.environment.spec.start(), staticPolicy());
  EXPECT_TRUE(out.replanned);
  EXPECT_FALSE(out.plan_failed);
  EXPECT_TRUE(f.pipeline.follower().hasTrajectory());
  EXPECT_GT(f.pipeline.trajectory().length(), 5.0);
}

TEST(PipelineTest, LatenciesArePositiveAndStructured) {
  Fixture f;
  const auto out = f.decideAt(f.environment.spec.start(), staticPolicy());
  const auto& lat = out.latencies;
  EXPECT_NEAR(lat.point_cloud, 0.210, 0.05);  // fixed pc cost dominates
  EXPECT_GT(lat.octomap, 0.0);
  EXPECT_GT(lat.comm_point_cloud, 0.0);
  EXPECT_GT(lat.total(), lat.compute());
  EXPECT_NEAR(lat.total(), lat.compute() + lat.comm(), 1e-12);
  EXPECT_DOUBLE_EQ(lat.runtime, 0.05);
}

TEST(PipelineTest, CoarsePolicyIsMuchCheaper) {
  Fixture fine;
  Fixture coarse;
  const auto out_fine = fine.decideAt(fine.environment.spec.start(), staticPolicy());
  const auto out_coarse = coarse.decideAt(coarse.environment.spec.start(), coarsePolicy());
  // The paper's core mechanism: coarse knobs slash perception latency.
  EXPECT_LT(out_coarse.latencies.octomap, out_fine.latencies.octomap * 0.25);
}

TEST(PipelineTest, MapAccumulatesAcrossDecisions) {
  Fixture f;
  f.decideAt(f.environment.spec.start(), staticPolicy());
  const double vol1 = f.pipeline.map().stats().mappedVolume();
  f.decideAt(f.environment.spec.start() + Vec3{5, 0, 0}, staticPolicy());
  const double vol2 = f.pipeline.map().stats().mappedVolume();
  EXPECT_GT(vol1, 0.0);
  EXPECT_GE(vol2, vol1);
}

TEST(PipelineTest, NoReplanWhenTrajectoryStillValid) {
  Fixture f;
  const auto first = f.decideAt(f.environment.spec.start(), staticPolicy());
  ASSERT_TRUE(first.replanned);
  // Same position, same (still valid) trajectory: no replan.
  const auto second = f.decideAt(f.environment.spec.start(), staticPolicy());
  EXPECT_FALSE(second.replanned);
}

// Communication is charged in closed form from each stage output's payload:
// one decide() must bill exactly config.comm.cost(byteSizeOf(...)) for the
// downsampled cloud, the bridge's planner map and (on a replan) the new
// trajectory. The expected payloads come from a twin pipeline driven
// through the stage methods, and from the point-cloud kernels directly.
TEST(PipelineTest, DecideChargesCommCostOfStageOutputs) {
  Fixture f;
  Fixture twin;
  const Vec3 start = f.environment.spec.start();
  // Coarse enough that downsampling really shrinks the cloud.
  const PipelinePolicy policy = coarsePolicy();
  const auto frame = f.sensor.capture(*f.environment.world, start);
  const auto out = f.pipeline.decide(frame, start, policy, 0.05);
  ASSERT_TRUE(out.replanned);
  ASSERT_FALSE(out.plan_failed);

  const sim::CommModel& comm = f.pipeline.config().comm;
  const auto cloud = perception::downsample(perception::fromSensorFrame(frame),
                                            policy.stage(Stage::Perception).precision)
                         .cloud;
  const auto sweep = twin.pipeline.integrateSweep(frame, start, policy, {}, false);
  EXPECT_EQ(out.latencies.comm_point_cloud, comm.cost(perception::byteSizeOf(cloud)));
  EXPECT_EQ(out.latencies.comm_map, comm.cost(perception::byteSizeOf(sweep.map_msg)));
  EXPECT_EQ(out.latencies.comm_trajectory,
            comm.cost(planning::byteSizeOf(f.pipeline.trajectory())));
}

TEST(PipelineTest, CommCostIsBaseLatencyPlusBytesOverBandwidth) {
  const sim::CommModel comm;
  EXPECT_EQ(comm.cost(0), comm.base_latency);
  EXPECT_EQ(comm.cost(8000), comm.base_latency + 8000.0 / comm.bytes_per_second);
  const sim::CommModel custom{0.001, 1e6};
  EXPECT_EQ(custom.cost(8000), 0.001 + 8000.0 / 1e6);
  EXPECT_LT(comm.cost(10), comm.cost(1000));
  EXPECT_LT(comm.cost(1000), comm.cost(1000000));
  // The struct defaults are the transport the pipeline actually charges.
  EXPECT_EQ(PipelineConfig{}.comm.base_latency, 0.003);
  EXPECT_EQ(PipelineConfig{}.comm.bytes_per_second, 2.0e6);
}

// The pooled A* planner drives the same pipeline end to end: replan,
// smooth, hand off — the deterministic alternative to RRT* wired through the
// planning stage by the planner_mode design knob.
TEST(PipelineTest, AStarModePlansATrajectory) {
  PipelineConfig config;
  config.planner_mode = PlannerMode::AStar;
  Fixture f(420.0, config);
  const auto out = f.decideAt(f.environment.spec.start(), staticPolicy());
  EXPECT_TRUE(out.replanned);
  EXPECT_FALSE(out.plan_failed);
  EXPECT_GT(out.astar_report.expansions, 0u);
  EXPECT_TRUE(out.astar_report.found);
  EXPECT_TRUE(f.pipeline.follower().hasTrajectory());
  EXPECT_GT(f.pipeline.trajectory().length(), 5.0);
  // The latency model charges A* expansions where RRT* charges iterations.
  EXPECT_GT(out.latencies.planning, 0.0);
}

TEST(MetricsTest, StageLatencyAccounting) {
  StageLatencies lat;
  lat.runtime = 0.05;
  lat.point_cloud = 0.21;
  lat.octomap = 1.0;
  lat.bridge = 0.5;
  lat.planning = 0.8;
  lat.smoothing = 0.1;
  lat.comm_point_cloud = 0.02;
  lat.comm_map = 0.3;
  lat.comm_trajectory = 0.01;
  EXPECT_NEAR(lat.compute(), 2.66, 1e-12);
  EXPECT_NEAR(lat.comm(), 0.33, 1e-12);
  EXPECT_NEAR(lat.total(), 2.99, 1e-12);
}

TEST(MetricsTest, MissionAggregates) {
  MissionResult result;
  result.mission_time = 30.0;
  for (int i = 0; i < 3; ++i) {
    DecisionRecord r;
    r.t = 10.0 * i;
    r.commanded_velocity = 1.0 + i;             // 1, 2, 3
    r.latencies.octomap = 0.5 * (i + 1);        // 0.5, 1.0, 1.5
    r.cpu_utilization = 0.2 * (i + 1);          // 0.2, 0.4, 0.6
    r.zone = (i == 1) ? env::Zone::B : env::Zone::A;
    result.records.push_back(r);
  }
  EXPECT_DOUBLE_EQ(result.averageVelocity(), 2.0);
  EXPECT_DOUBLE_EQ(result.medianLatency(), 1.0);
  EXPECT_NEAR(result.averageCpuUtilization(), 0.4, 1e-12);
  const auto zones = summarizeZones(result);  // A, B, C
  EXPECT_DOUBLE_EQ(zones[1].mean_velocity, 2.0);
  EXPECT_DOUBLE_EQ(zones[2].mean_velocity, 0.0);
  // Zone A: [0,10) and [20,30) -> 20 s; zone B: [10,20) -> 10 s.
  EXPECT_NEAR(zones[0].time_in_zone, 20.0, 1e-9);
  EXPECT_NEAR(zones[1].time_in_zone, 10.0, 1e-9);
}

TEST(MetricsTest, EmptyMissionSafeDefaults) {
  const MissionResult result;
  EXPECT_DOUBLE_EQ(result.averageVelocity(), 0.0);
  EXPECT_DOUBLE_EQ(result.medianLatency(), 0.0);
  EXPECT_DOUBLE_EQ(result.averageCpuUtilization(), 0.0);
  EXPECT_EQ(result.decisions(), 0u);
}

}  // namespace
}  // namespace roborun::runtime
