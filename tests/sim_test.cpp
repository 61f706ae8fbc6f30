// Unit tests for the simulation substrate: stopping model (Eq. 2 / Eq. 1),
// drone kinematics, depth-camera sensor, latency and energy models.
#include <gtest/gtest.h>

#include <cmath>

#include "env/world.h"
#include "geom/polyfit.h"
#include "sim/drone.h"
#include "sim/energy_model.h"
#include "sim/latency_model.h"
#include "sim/sensor.h"
#include "sim/stopping_model.h"

namespace roborun::sim {
namespace {

TEST(StoppingModelTest, Eq2Coefficients) {
  const StoppingModel m;
  // dstop(v) = 0.055 v^2 + 0.36 v + 0.20 (paper Eq. 2 magnitudes).
  EXPECT_NEAR(m.stoppingDistance(0.0), 0.20, 1e-12);
  EXPECT_NEAR(m.stoppingDistance(1.0), 0.055 + 0.36 + 0.20, 1e-12);
  EXPECT_NEAR(m.stoppingDistance(3.0), 0.055 * 9 + 0.36 * 3 + 0.20, 1e-12);
}

TEST(StoppingModelTest, StoppingDistanceMonotone) {
  const StoppingModel m;
  for (double v = 0.0; v < 10.0; v += 0.5)
    EXPECT_LT(m.stoppingDistance(v), m.stoppingDistance(v + 0.5));
}

TEST(StoppingModelTest, TimeBudgetEq1) {
  const StoppingModel m;
  // budget = (d - dstop(v)) / v
  const double v = 2.0;
  const double d = 20.0;
  EXPECT_NEAR(m.timeBudget(v, d), (d - m.stoppingDistance(v)) / v, 1e-12);
}

TEST(StoppingModelTest, TimeBudgetEdgeCases) {
  const StoppingModel m;
  EXPECT_DOUBLE_EQ(m.timeBudget(0.0, 10.0, 99.0), 99.0);  // hovering: capped
  EXPECT_DOUBLE_EQ(m.timeBudget(5.0, 0.5), 0.0);          // can't stop in 0.5 m
  EXPECT_LE(m.timeBudget(0.001, 10.0, 7.0), 7.0);         // cap respected
}

TEST(StoppingModelTest, MaxSafeVelocityInvertsEq1) {
  const StoppingModel m;
  for (const double latency : {0.2, 1.0, 4.0}) {
    for (const double d : {5.0, 15.0, 30.0}) {
      const double v = m.maxSafeVelocity(latency, d);
      ASSERT_GT(v, 0.0);
      // At the returned velocity the budget exactly covers the latency.
      EXPECT_NEAR(m.timeBudget(v, d), latency, 1e-6);
      // Slightly faster would violate it.
      EXPECT_LT(m.timeBudget(v * 1.01, d), latency);
    }
  }
}

TEST(StoppingModelTest, MaxSafeVelocityZeroWhenBlind) {
  const StoppingModel m;
  EXPECT_DOUBLE_EQ(m.maxSafeVelocity(1.0, 0.1), 0.0);  // visibility < margin
}

TEST(StoppingModelTest, SafeCommandVelocityIsMoreConservative) {
  const StoppingModel m;
  for (const double d : {5.0, 20.0})
    EXPECT_LT(m.safeCommandVelocity(1.0, d), m.maxSafeVelocity(1.0, d));
}

TEST(StoppingModelTest, MaxDecelerationFromQuadTerm) {
  const StoppingModel m;
  EXPECT_NEAR(m.maxDeceleration(), 1.0 / (2.0 * 0.055), 1e-9);
}

TEST(DroneTest, ReachesCommandedVelocity) {
  Drone drone;
  drone.reset({0, 0, 3});
  drone.commandVelocity({2, 0, 0});
  for (int i = 0; i < 40; ++i) drone.update(0.05);  // 2 s >> reaction + ramp
  EXPECT_NEAR(drone.state().velocity.x, 2.0, 1e-6);
  EXPECT_GT(drone.state().position.x, 2.0);
}

TEST(DroneTest, ReactionDelayHoldsOldCommand) {
  Drone drone;  // reaction_time 0.36 s
  drone.reset({0, 0, 3});
  drone.commandVelocity({2, 0, 0});
  drone.update(0.1);
  drone.update(0.1);
  // 0.2 s < 0.36 s: command not yet active.
  EXPECT_NEAR(drone.state().speed(), 0.0, 1e-9);
  drone.update(0.2);
  EXPECT_GT(drone.state().speed(), 0.0);
}

TEST(DroneTest, RecommandDoesNotExtendDelay) {
  Drone drone;
  drone.reset({0, 0, 3});
  // Re-command the same setpoint every tick; it must still take effect
  // after ~reaction_time (this was a real bug: the delay timer was reset).
  for (int i = 0; i < 12; ++i) {
    drone.commandVelocity({1, 0, 0});
    drone.update(0.05);
  }
  EXPECT_GT(drone.state().speed(), 0.5);
}

TEST(DroneTest, AccelerationLimited) {
  DroneConfig config;
  config.max_accel = 2.0;
  config.reaction_time = 0.0;
  Drone drone(config);
  drone.reset({0, 0, 3});
  drone.commandVelocity({10, 0, 0});
  drone.update(0.5);
  EXPECT_LE(drone.state().speed(), 2.0 * 0.5 + 1e-9);
}

TEST(DroneTest, SimulatedStoppingDistanceMatchesEq2Shape) {
  // The drone's physical braking constants are exactly those behind Eq. 2,
  // so the closed-form simulated stopping distance fits the quadratic.
  Drone drone;
  std::vector<double> vs;
  std::vector<double> ds;
  for (double v = 0.5; v <= 5.0; v += 0.5) {
    drone.reset({0, 0, 3});
    drone.commandVelocity({v, 0, 0});
    for (int i = 0; i < 100; ++i) drone.update(0.05);
    vs.push_back(v);
    ds.push_back(drone.simulatedStoppingDistance());
  }
  const auto c = geom::polyfit(vs, ds, 2);
  const StoppingModel m;
  EXPECT_NEAR(c[2], m.quad, 0.01);    // quadratic term ~ 1/(2 a_max)
  EXPECT_NEAR(c[1], m.linear, 0.02);  // linear term ~ reaction time
}

TEST(DroneTest, IntegratedBrakeFitsEq2) {
  // The paper's Eq. 2 protocol, flown step by step: cruise at v, command
  // zero, integrate to standstill, then fit the measured distances.
  const StoppingModel m;
  std::vector<double> vs;
  std::vector<double> ds;
  for (double v = 0.25; v <= 5.0; v += 0.25) {
    Drone drone;
    drone.reset({0, 0, 3});
    drone.commandVelocity({v, 0, 0});
    for (int i = 0; i < 200; ++i) drone.update(0.01);
    const double x0 = drone.state().position.x;
    drone.commandVelocity({0, 0, 0});
    int guard = 0;
    while (drone.state().speed() > 1e-4 && ++guard < 100000) drone.update(0.01);
    ASSERT_LT(guard, 100000) << "drone never stopped from " << v << " m/s";
    vs.push_back(v);
    // The model's constant term is a safety margin, not vehicle dynamics.
    ds.push_back(drone.state().position.x - x0 + m.constant);
  }
  const auto c = geom::polyfit(vs, ds, 2);
  EXPECT_NEAR(c[2], m.quad, 0.01);
  EXPECT_NEAR(c[1], m.linear, 0.02);
  std::vector<double> fitted;
  for (const double v : vs) fitted.push_back(geom::polyval(c, v));
  EXPECT_LT(geom::relativeMeanSquaredError(fitted, ds), 0.02);  // the paper's 2% fit
}

env::World pillarWorld() {
  env::World w(env::Aabb{{-20, -20, 0}, {20, 20, 20}}, 1.0);
  w.setColumn(w.toIx(10.5), w.toIy(0.5), 20.0);
  return w;
}

TEST(SensorTest, RayCountMatchesConfig) {
  SensorConfig config;
  config.rays_horizontal = 10;
  config.rays_vertical = 6;
  DepthCameraArray sensor(config);
  EXPECT_EQ(sensor.raysPerFrame(), 6u * 10u * 6u);
  const auto w = pillarWorld();
  const auto frame = sensor.capture(w, {0, 0, 3});
  EXPECT_EQ(frame.rayCount(), sensor.raysPerFrame());
}

TEST(SensorTest, DetectsPillarAhead) {
  DepthCameraArray sensor;
  const auto w = pillarWorld();
  const auto frame = sensor.capture(w, {0.5, 0.5, 3});
  bool found = false;
  for (const auto& p : frame.points)
    if (std::abs(p.x - 10.0) < 0.6 && std::abs(p.y - 0.5) < 1.5) found = true;
  EXPECT_TRUE(found);
  EXPECT_LT(frame.closestHit(), 11.0);
}

TEST(SensorTest, GroundReturnsExcludedFromPoints) {
  DepthCameraArray sensor;
  const env::World w(env::Aabb{{-20, -20, 0}, {20, 20, 20}}, 1.0);  // empty
  const auto frame = sensor.capture(w, {0, 0, 3});
  for (const auto& p : frame.points) EXPECT_GT(p.z, sensor.config().ground_z);
}

TEST(SensorTest, WeatherVisibilityCapsRange) {
  SensorConfig config;
  config.range = 30.0;
  config.weather_visibility = 8.0;
  DepthCameraArray sensor(config);
  const auto w = pillarWorld();  // pillar at 10 m: beyond the fog
  const auto frame = sensor.capture(w, {0.5, 0.5, 3});
  EXPECT_DOUBLE_EQ(frame.max_range, 8.0);
  for (const auto& r : frame.rays) EXPECT_LE(r.range, 8.0 + 1e-9);
}

TEST(SensorTest, VisibilityAlongSeesObstacleDistance) {
  DepthCameraArray sensor;
  const auto w = pillarWorld();
  const auto frame = sensor.capture(w, {0.5, 0.5, 3});
  // A narrow cone straight at the pillar: the median range is the pillar.
  const double vis_toward = frame.visibilityAlong({1, 0, 0}, 0.06, 0.5);
  EXPECT_LT(vis_toward, 15.0);
  // Away from the pillar: full range (ground returns don't count).
  const double vis_away = frame.visibilityAlong({-1, 0, 0}, 0.3, 0.25);
  EXPECT_NEAR(vis_away, 30.0, 1e-9);
}

TEST(SensorTest, ClosestHitDirectionPointsAtPillar) {
  DepthCameraArray sensor;
  const auto w = pillarWorld();
  const auto frame = sensor.capture(w, {0.5, 0.5, 3});
  const auto dir = frame.closestHitDirection();
  EXPECT_GT(dir.x, 0.7);  // pillar is in +x
}

TEST(LatencyModelTest, PaperCalibratedFixedCosts) {
  const LatencyModel m;
  // 210 ms point cloud (Sec. V-C), 50 ms RoboRun runtime overhead.
  EXPECT_NEAR(m.pointCloud(0), 0.210, 1e-9);
  EXPECT_NEAR(m.runtime(true), 0.050, 1e-9);
  EXPECT_LT(m.runtime(false), m.runtime(true));
}

TEST(LatencyModelTest, LinearInWork) {
  const LatencyModel m;
  EXPECT_NEAR(m.octomap(2000), 2.0 * m.octomap(1000), 1e-12);
  EXPECT_NEAR(m.bridge(500), 500.0 * m.config().bridge_per_node, 1e-12);
  EXPECT_GT(m.planner(100, 1000), m.planner(100, 0));
  EXPECT_NEAR(m.smoother(10), 10.0 * m.config().smoother_per_segment, 1e-12);
}

TEST(EnergyModelTest, PaperOperatingPoints) {
  const EnergyModel m;
  // Baseline: ~0.4 m/s for 2093 s -> ~1000 kJ.
  EXPECT_NEAR(m.flightPower(0.4) * 2093.0 / 1000.0, 1000.0, 30.0);
  // RoboRun: ~2.5 m/s for 465 s -> ~257 kJ.
  EXPECT_NEAR(m.flightPower(2.5) * 465.0 / 1000.0, 257.0, 15.0);
}

TEST(EnergyModelTest, IntegrationAccumulates) {
  EnergyModel m;
  m.integrate(2.0, 10.0, 1.0);
  EXPECT_NEAR(m.flightEnergy(), m.flightPower(2.0) * 10.0, 1e-9);
  EXPECT_NEAR(m.computeEnergy(), m.config().compute_power * 1.0, 1e-9);
  EXPECT_NEAR(m.totalEnergy(), m.flightEnergy() + m.computeEnergy(), 1e-12);
  m.reset();
  EXPECT_DOUBLE_EQ(m.totalEnergy(), 0.0);
}

TEST(EnergyModelTest, ComputeShareIsNegligible) {
  // The paper notes compute is a vanishing share of mission energy; verify
  // the model preserves that property over a representative mission.
  EnergyModel m;
  for (int i = 0; i < 1000; ++i) m.integrate(2.0, 0.5, 0.25);
  EXPECT_LT(m.computeEnergy() / m.totalEnergy(), 0.02);
}

// Property sweep: safe velocity grows with visibility and shrinks with
// latency.
class SafeVelocityMonotone : public ::testing::TestWithParam<double> {};

TEST_P(SafeVelocityMonotone, MonotoneInInputs) {
  const StoppingModel m;
  const double latency = GetParam();
  double prev = 0.0;
  for (double d = 2.0; d <= 40.0; d += 2.0) {
    const double v = m.maxSafeVelocity(latency, d);
    EXPECT_GE(v, prev);
    prev = v;
  }
  EXPECT_GE(m.maxSafeVelocity(latency, 20.0), m.maxSafeVelocity(latency * 2.0, 20.0));
}

INSTANTIATE_TEST_SUITE_P(LatencySweep, SafeVelocityMonotone,
                         ::testing::Values(0.1, 0.5, 1.0, 2.0, 5.0));

}  // namespace
}  // namespace roborun::sim
