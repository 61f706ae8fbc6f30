// Unit tests for the RoboRun governor (core::DecisionEngine::decide) and the
// static (spatial-oblivious) governor.
#include <gtest/gtest.h>

#include <memory>

#include "core/decision_engine.h"
#include "core/governor.h"
#include "sim/latency_model.h"

namespace roborun::core {
namespace {

std::shared_ptr<DecisionEngine> makeGovernor() {
  return DecisionEngine::calibrated(sim::LatencyModel(), DecisionEngine::Config{});
}

SpaceProfile profileWith(double vis, double gap_avg, double gap_min, double d_obs,
                         double velocity) {
  SpaceProfile p;
  p.visibility = vis;
  p.gap_avg = gap_avg;
  p.gap_min = gap_min;
  p.d_obstacle = d_obs;
  p.d_unknown = vis;
  p.sensor_volume = 113000.0;
  p.map_volume = 80000.0;
  p.velocity = velocity;
  p.waypoints.push_back({geom::Vec3{}, std::max(velocity, 0.05), vis, 0.0});
  return p;
}

TEST(RoboRunGovernorTest, OpenSpaceGetsLongDeadlineCoarseKnobs) {
  auto gov = makeGovernor();
  const auto open = profileWith(30.0, 100.0, 100.0, 30.0, 2.5);
  const auto decision = gov->decide(open);
  EXPECT_GT(decision.budget, 5.0);
  EXPECT_DOUBLE_EQ(decision.policy.stage(Stage::Perception).precision, 9.6);
  EXPECT_TRUE(decision.budget_met);
}

TEST(RoboRunGovernorTest, CongestionGetsShortDeadlineFineKnobs) {
  auto gov = makeGovernor();
  const auto tight = profileWith(4.0, 2.5, 1.0, 1.5, 1.0);
  const auto decision = gov->decide(tight);
  EXPECT_LT(decision.budget, 5.0);
  EXPECT_LE(decision.policy.stage(Stage::Perception).precision, 1.2);
}

TEST(RoboRunGovernorTest, DeadlineTracksVelocity) {
  auto gov = makeGovernor();
  const auto slow = profileWith(15.0, 100.0, 100.0, 15.0, 0.3);
  const auto fast = profileWith(15.0, 100.0, 100.0, 15.0, 3.0);
  EXPECT_GT(gov->decide(slow).budget, gov->decide(fast).budget);
}

TEST(RoboRunGovernorTest, PolicyDeadlineMatchesBudget) {
  auto gov = makeGovernor();
  const auto p = profileWith(12.0, 5.0, 2.0, 4.0, 1.5);
  const auto decision = gov->decide(p);
  EXPECT_DOUBLE_EQ(decision.policy.deadline, decision.budget);
}

TEST(StaticGovernorTest, Table2StaticPolicy) {
  const KnobConfig knobs;
  const StaticGovernor gov(knobs, sim::StoppingModel{});
  const auto& policy = gov.policy();
  EXPECT_DOUBLE_EQ(policy.stage(Stage::Perception).precision, 0.3);
  EXPECT_DOUBLE_EQ(policy.stage(Stage::Perception).volume, 46000.0);
  EXPECT_DOUBLE_EQ(policy.stage(Stage::PerceptionToPlanning).precision, 0.3);
  EXPECT_DOUBLE_EQ(policy.stage(Stage::PerceptionToPlanning).volume, 150000.0);
  EXPECT_DOUBLE_EQ(policy.stage(Stage::Planning).volume, 150000.0);
}

TEST(StaticGovernorTest, PaperLikeStaticVelocity) {
  // The worst-case design point must produce the paper's ~0.4 m/s baseline.
  const StaticGovernor gov(KnobConfig{}, sim::StoppingModel{});
  EXPECT_GT(gov.staticVelocity(), 0.25);
  EXPECT_LT(gov.staticVelocity(), 0.6);
}

TEST(StaticGovernorTest, DecisionIsConstant) {
  const StaticGovernor gov(KnobConfig{}, sim::StoppingModel{});
  const auto a = gov.decide();
  const auto b = gov.decide();
  EXPECT_DOUBLE_EQ(a.budget, b.budget);
  EXPECT_DOUBLE_EQ(a.policy.stage(Stage::Perception).precision,
                   b.policy.stage(Stage::Perception).precision);
  EXPECT_DOUBLE_EQ(a.budget, gov.deadline());
}

TEST(StaticGovernorTest, HarsherDesignPointSlowerVelocity) {
  const sim::StoppingModel stopping;
  const StaticGovernor mild(KnobConfig{}, stopping, StaticDesign{8.0, 4.0});
  const StaticGovernor harsh(KnobConfig{}, stopping, StaticDesign{3.0, 8.0});
  EXPECT_GT(mild.staticVelocity(), harsh.staticVelocity());
}

// The paper's central contrast: for the same congested profile, RoboRun's
// dynamic policy predicts far lower latency than the static worst case
// whenever the environment allows it.
TEST(GovernorContrastTest, DynamicBeatsStaticInOpenSpace) {
  auto gov = makeGovernor();
  const StaticGovernor oblivious(KnobConfig{}, sim::StoppingModel{});
  const auto open = profileWith(30.0, 100.0, 100.0, 30.0, 2.5);
  const auto dynamic = gov->decide(open);
  EXPECT_LT(dynamic.policy.predicted_latency,
            oblivious.policy().predicted_latency * 0.25);
}

}  // namespace
}  // namespace roborun::core
