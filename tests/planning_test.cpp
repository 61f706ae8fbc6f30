// Unit tests for the planning stack: trajectory, RRT*, smoother.
#include <gtest/gtest.h>

#include <cmath>

#include "geom/polyline.h"
#include "geom/rng.h"
#include "perception/planner_map.h"
#include "planning/astar.h"
#include "planning/rrt_star.h"
#include "planning/smoother.h"
#include "planning/trajectory.h"

namespace roborun::planning {
namespace {

using geom::Aabb;
using geom::Vec3;
using perception::PlannerMap;

Trajectory rampTrajectory() {
  // Straight +x trajectory, 10 m in 5 s.
  std::vector<TrajectoryPoint> pts;
  for (int i = 0; i <= 10; ++i)
    pts.push_back({{static_cast<double>(i), 0, 0}, 2.0, 0.5 * i});
  return Trajectory(std::move(pts));
}

TEST(TrajectoryTest, LengthDurationFlightTime) {
  const auto traj = rampTrajectory();
  EXPECT_NEAR(traj.length(), 10.0, 1e-9);
  EXPECT_NEAR(traj.duration(), 5.0, 1e-9);
  EXPECT_NEAR(traj.flightTime(4, 2), 1.0, 1e-9);
  EXPECT_NEAR(traj.flightTime(2, 4), 1.0, 1e-9);  // symmetric
  EXPECT_DOUBLE_EQ(traj.flightTime(2, 99), 0.0);  // out of range
}

TEST(TrajectoryTest, SampleAtTimeInterpolates) {
  const auto traj = rampTrajectory();
  EXPECT_NEAR(traj.sampleAtTime(0.25).x, 0.5, 1e-9);
  EXPECT_NEAR(traj.sampleAtTime(-1.0).x, 0.0, 1e-9);  // clamped
  EXPECT_NEAR(traj.sampleAtTime(99.0).x, 10.0, 1e-9);
}

TEST(TrajectoryTest, SampleAtArcLength) {
  const auto traj = rampTrajectory();
  EXPECT_NEAR(traj.sampleAtArcLength(3.3).x, 3.3, 1e-9);
  EXPECT_NEAR(traj.sampleAtArcLength(-1).x, 0.0, 1e-9);
  EXPECT_NEAR(traj.sampleAtArcLength(99).x, 10.0, 1e-9);
}

TEST(TrajectoryTest, ClosestArcLength) {
  const auto traj = rampTrajectory();
  EXPECT_NEAR(traj.closestArcLength({4.2, 1.0, 0}), 4.2, 1e-9);
  EXPECT_NEAR(traj.closestArcLength({-5, 0, 0}), 0.0, 1e-9);
  EXPECT_NEAR(traj.closestArcLength({50, 0, 0}), 10.0, 1e-9);
}

TEST(TrajectoryTest, EmptyTrajectoryIsSafe) {
  const Trajectory traj;
  EXPECT_TRUE(traj.empty());
  EXPECT_DOUBLE_EQ(traj.length(), 0.0);
  EXPECT_EQ(traj.sampleAtTime(1.0), Vec3{});
  EXPECT_DOUBLE_EQ(traj.closestArcLength({1, 1, 1}), 0.0);
}

RrtParams openParams() {
  RrtParams p;
  p.bounds = Aabb{{-5, -20, 0}, {45, 20, 10}};
  p.volume_budget = 1e9;
  p.max_iterations = 4000;
  return p;
}

TEST(RrtStarTest, StraightLineShortcutInOpenSpace) {
  PlannerMap map(0.3);
  geom::Rng rng(1);
  const auto result = planPath(map, {0, 0, 2}, {40, 0, 2}, openParams(), rng);
  ASSERT_TRUE(result.report.found);
  EXPECT_EQ(result.path.size(), 2u);  // direct connection
  EXPECT_EQ(result.report.iterations, 1u);
  EXPECT_NEAR(result.report.path_cost, 40.0, 1e-9);
}

PlannerMap wallWorld(double gap_y = 0.0) {
  // A wall at x=20 spanning the y range, with a gap at gap_y.
  PlannerMap map(0.3, 0.4);
  for (double y = -20; y <= 20; y += 0.3) {
    if (std::abs(y - gap_y) < 2.0) continue;
    for (double z = 0; z <= 10; z += 0.3) map.addVoxel({{20.0, y, z}, 0.3});
  }
  return map;
}

TEST(RrtStarTest, FindsGapInWall) {
  const auto map = wallWorld(5.0);
  geom::Rng rng(3);
  const auto result = planPath(map, {0, 0, 2}, {40, 0, 2}, openParams(), rng);
  ASSERT_TRUE(result.report.found);
  EXPECT_GT(result.path.size(), 2u);
  // Every returned edge is collision-free at fine precision.
  for (std::size_t i = 1; i < result.path.size(); ++i) {
    const auto check = map.checkSegment(result.path[i - 1], result.path[i], 0.15);
    EXPECT_FALSE(check.hit) << "edge " << i << " collides";
  }
  // The path threads the gap region.
  bool near_gap = false;
  for (const auto& p : result.path)
    if (std::abs(p.x - 20.0) < 6.0 && std::abs(p.y - 5.0) < 4.0) near_gap = true;
  EXPECT_TRUE(near_gap);
}

TEST(RrtStarTest, PathStartsAndEndsCorrectly) {
  const auto map = wallWorld(-8.0);
  geom::Rng rng(5);
  const auto result = planPath(map, {0, 0, 2}, {40, 0, 2}, openParams(), rng);
  ASSERT_TRUE(result.report.found);
  EXPECT_NEAR(result.path.front().dist({0, 0, 2}), 0.0, 1e-9);
  EXPECT_LE(result.path.back().dist({40, 0, 2}), openParams().goal_tolerance + 1e-9);
}

TEST(RrtStarTest, DegenerateColocatedStartGoal) {
  PlannerMap map(0.3);
  auto params = openParams();
  params.goal_tolerance = 0.5;
  geom::Rng rng(7);
  const auto result = planPath(map, {5, 5, 2}, {5, 5, 2}, params, rng);
  ASSERT_TRUE(result.report.found);
  EXPECT_FALSE(result.report.partial);
  EXPECT_NEAR(result.report.path_cost, 0.0, 1e-9);
}

TEST(RrtStarTest, VolumeBudgetStopsSearch) {
  // Fully walled off: unreachable goal, tiny volume budget.
  PlannerMap map(0.3, 0.4);
  for (double y = -20; y <= 20; y += 0.3)
    for (double z = 0; z <= 10; z += 0.3) map.addVoxel({{20.0, y, z}, 0.3});
  auto params = openParams();
  params.volume_budget = 500.0;  // m^3
  geom::Rng rng(4);
  const auto result = planPath(map, {0, 0, 2}, {40, 0, 2}, params, rng);
  // The goal is unreachable: at best a partial recovery path is returned.
  EXPECT_TRUE(!result.report.found || result.report.partial);
  EXPECT_TRUE(result.report.volume_exhausted);
  EXPECT_LE(result.report.explored_volume, 500.0 + 100.0);
  EXPECT_LT(result.report.iterations, params.max_iterations);
}

TEST(RrtStarTest, DeterministicGivenSeed) {
  const auto map = wallWorld(5.0);
  auto run = [&](std::uint64_t seed) {
    geom::Rng rng(seed);
    return planPath(map, {0, 0, 2}, {40, 0, 2}, openParams(), rng);
  };
  const auto a = run(11);
  const auto b = run(11);
  ASSERT_EQ(a.path.size(), b.path.size());
  for (std::size_t i = 0; i < a.path.size(); ++i)
    EXPECT_EQ(a.path[i], b.path[i]);
}

TEST(RrtStarTest, CheckPrecisionScalesWork) {
  const auto map = wallWorld(5.0);
  auto params = openParams();
  params.check_precision = 0.3;
  geom::Rng rng1(7);
  const auto fine = planPath(map, {0, 0, 2}, {40, 0, 2}, params, rng1);
  params.check_precision = 2.4;
  geom::Rng rng2(7);
  const auto coarse = planPath(map, {0, 0, 2}, {40, 0, 2}, params, rng2);
  // Same sampling stream, coarser raytracer -> fewer march steps per edge.
  EXPECT_LT(coarse.report.check_steps, fine.report.check_steps);
}

TEST(AStarTest, StraightPathInOpenSpace) {
  PlannerMap map(0.3, 0.0);
  AStarParams params;
  params.bounds = Aabb{{-5, -20, 0}, {45, 20, 10}};
  const auto result = planPathAStar(map, {0, 0, 2}, {40, 0, 2}, params);
  ASSERT_TRUE(result.report.found);
  // Lattice-optimal cost is near the straight-line distance.
  EXPECT_LT(result.report.path_cost, 40.0 * 1.2);
  EXPECT_NEAR(result.path.front().dist({0, 0, 2}), 0.0, 1e-9);
  EXPECT_NEAR(result.path.back().dist({40, 0, 2}), 0.0, 1e-9);
}

TEST(AStarTest, ThreadsWallGap) {
  const auto map = wallWorld(5.0);
  AStarParams params;
  params.bounds = Aabb{{-5, -20, 0}, {45, 20, 10}};
  params.cell = 1.0;
  const auto result = planPathAStar(map, {0, 0, 2}, {40, 0, 2}, params);
  ASSERT_TRUE(result.report.found);
  bool near_gap = false;
  for (const auto& p : result.path)
    if (std::abs(p.x - 20.0) < 5.0 && std::abs(p.y - 5.0) < 4.0) near_gap = true;
  EXPECT_TRUE(near_gap);
  // Every lattice waypoint is collision-free.
  for (const auto& p : result.path) EXPECT_FALSE(map.occupiedPoint(p));
}

TEST(AStarTest, UnreachableGoalFailsCleanly) {
  // Full wall with no gap.
  PlannerMap map(0.3, 0.4);
  for (double y = -20; y <= 20; y += 0.3)
    for (double z = 0; z <= 10; z += 0.3) map.addVoxel({{20.0, y, z}, 0.3});
  AStarParams params;
  params.bounds = Aabb{{-5, -20, 0.5}, {45, 20, 9.5}};
  params.max_expansions = 30000;
  const auto result = planPathAStar(map, {0, 0, 2}, {40, 0, 2}, params);
  EXPECT_FALSE(result.report.found);
  EXPECT_TRUE(result.path.empty());
}

TEST(AStarTest, DeterministicAndLatticeOptimalVsRrt) {
  const auto map = wallWorld(5.0);
  AStarParams params;
  params.bounds = Aabb{{-5, -20, 0}, {45, 20, 10}};
  params.cell = 1.0;
  const auto a1 = planPathAStar(map, {0, 0, 2}, {40, 0, 2}, params);
  const auto a2 = planPathAStar(map, {0, 0, 2}, {40, 0, 2}, params);
  ASSERT_TRUE(a1.report.found);
  EXPECT_DOUBLE_EQ(a1.report.path_cost, a2.report.path_cost);  // no seed, no variance

  geom::Rng rng(3);
  const auto rrt = planPath(map, {0, 0, 2}, {40, 0, 2}, openParams(), rng);
  ASSERT_TRUE(rrt.report.found);
  // The lattice-optimal path is no longer than ~the RRT* path plus lattice
  // slack (diagonal quantization).
  EXPECT_LT(a1.report.path_cost, rrt.report.path_cost * 1.25 + 2.0);
}

// AStarParams.cell <= 0 contract: the planner lattices on the map's own
// (already snapped) precision — it must not invent a pitch of its own.
TEST(AStarTest, CellZeroUsesSnappedMapPrecision) {
  PlannerMap map(0.6, 0.0);  // bridge-style map: precision is the snapped p1
  AStarParams by_default;
  by_default.bounds = Aabb{{-5, -20, 0}, {45, 20, 10}};
  by_default.cell = 0.0;
  AStarParams explicit_pitch = by_default;
  explicit_pitch.cell = map.precision();

  const auto a = planPathAStar(map, {0, 0, 2}, {40, 0, 2}, by_default);
  const auto b = planPathAStar(map, {0, 0, 2}, {40, 0, 2}, explicit_pitch);
  ASSERT_TRUE(a.report.found);
  // cell <= 0 must behave exactly like passing the map precision.
  EXPECT_EQ(a.report.expansions, b.report.expansions);
  EXPECT_DOUBLE_EQ(a.report.path_cost, b.report.path_cost);
  ASSERT_EQ(a.path.size(), b.path.size());
  // Interior waypoints sit on the map-precision lattice: centers at
  // (k + 0.5) * precision.
  for (std::size_t i = 1; i + 1 < a.path.size(); ++i) {
    const double k = a.path[i].x / map.precision() - 0.5;
    EXPECT_NEAR(k, std::round(k), 1e-9) << "waypoint " << i << " off-lattice";
  }
}

// Regression for the near-goal non-termination edge: a goal tolerance finer
// than the lattice pitch can exclude every cell center, so the acceptance
// radius clamps up to the pitch (documented on AStarParams.goal_tolerance).
// The search must terminate by finding a path — not by exhausting its
// expansion budget next to the goal.
TEST(AStarTest, GoalToleranceBelowPitchStillTerminates) {
  PlannerMap map(0.3, 0.0);
  AStarParams params;
  params.bounds = Aabb{{-5, -20, 0}, {45, 20, 10}};
  params.cell = 1.5;
  params.goal_tolerance = 0.05;  // far below the 1.5 m pitch
  params.max_expansions = 50000;
  // A goal deliberately off the lattice: no cell center within 0.05 m.
  const auto result = planPathAStar(map, {0, 0, 2}, {40.37, 0.21, 2.4}, params);
  ASSERT_TRUE(result.report.found);
  EXPECT_LT(result.report.expansions, params.max_expansions);
  // The accepted cell is within the clamped radius, and the path still ends
  // exactly at the caller's goal point.
  ASSERT_GE(result.path.size(), 2u);
  EXPECT_LE(result.path[result.path.size() - 2].dist({40.37, 0.21, 2.4}),
            std::max(params.goal_tolerance, params.cell) + 1e-9);
  EXPECT_EQ(result.path.back(), (Vec3{40.37, 0.21, 2.4}));
}

// One arena, many searches: results must not depend on what the arena held
// before (the O(1) generation-stamped clear must be a real clear).
TEST(AStarTest, ArenaReuseMatchesFreshArena) {
  const auto map = wallWorld(5.0);
  AStarParams params;
  params.bounds = Aabb{{-5, -20, 0}, {45, 20, 10}};
  params.cell = 1.0;
  PlannerArena reused;
  for (const double gap_y : {5.0, -8.0, 0.0}) {
    const auto world = wallWorld(gap_y);
    const auto warm = planPathAStar(world, {0, 0, 2}, {40, 0, 2}, params, reused);
    const auto fresh = planPathAStar(world, {0, 0, 2}, {40, 0, 2}, params);
    EXPECT_EQ(warm.report.expansions, fresh.report.expansions);
    EXPECT_DOUBLE_EQ(warm.report.path_cost, fresh.report.path_cost);
    ASSERT_EQ(warm.path.size(), fresh.path.size());
    for (std::size_t i = 0; i < warm.path.size(); ++i)
      EXPECT_EQ(warm.path[i], fresh.path[i]);
  }
}

TEST(SmootherTest, ProducesTimeParameterizedTrajectory) {
  PlannerMap map(0.3);
  const std::vector<Vec3> path{{0, 0, 2}, {10, 0, 2}, {20, 5, 2}, {30, 5, 2}};
  SmootherParams params;
  params.v_max = 3.0;
  const auto result = smoothPath(path, map, params);
  ASSERT_FALSE(result.trajectory.empty());
  EXPECT_TRUE(result.report.collision_free);
  EXPECT_EQ(result.report.segments, 3u);
  // Time strictly increases.
  const auto& pts = result.trajectory.points();
  for (std::size_t i = 1; i < pts.size(); ++i) EXPECT_GT(pts[i].time, pts[i - 1].time);
  // Starts at the path start and ends at the path end.
  EXPECT_NEAR(pts.front().position.dist(path.front()), 0.0, 1e-6);
  EXPECT_NEAR(pts.back().position.dist(path.back()), 0.0, 1e-6);
}

TEST(SmootherTest, RespectsVelocityLimit) {
  PlannerMap map(0.3);
  const std::vector<Vec3> path{{0, 0, 2}, {15, 0, 2}, {30, 0, 2}};
  SmootherParams params;
  params.v_max = 2.5;
  const auto result = smoothPath(path, map, params);
  for (const auto& p : result.trajectory.points())
    EXPECT_LE(p.velocity, params.v_max * 1.25);  // quintic overshoot margin
}

TEST(SmootherTest, DurationReflectsSpeed) {
  PlannerMap map(0.3);
  const std::vector<Vec3> path{{0, 0, 2}, {30, 0, 2}};
  SmootherParams slow;
  slow.v_max = 1.0;
  SmootherParams fast;
  fast.v_max = 3.0;
  const double t_slow = smoothPath(path, map, slow).trajectory.duration();
  const double t_fast = smoothPath(path, map, fast).trajectory.duration();
  EXPECT_GT(t_slow, 2.0 * t_fast);
}

TEST(SmootherTest, DegenerateInputs) {
  PlannerMap map(0.3);
  EXPECT_TRUE(smoothPath({}, map, {}).trajectory.empty());
  EXPECT_TRUE(smoothPath({{1, 1, 1}}, map, {}).trajectory.empty());
}

TEST(SmootherTest, CollisionTriggersReinsertionOrFallback) {
  // An L-shaped path hugging an obstacle at the corner: the naive smooth
  // curve cuts the corner into the block.
  PlannerMap map(0.3, 0.0);
  for (double x = 9; x <= 14; x += 0.3)
    for (double y = 0.3; y <= 6; y += 0.3)
      for (double z = 0; z <= 5; z += 0.3) map.addVoxel({{x, y, z}, 0.3});
  const std::vector<Vec3> path{{0, -1, 2}, {8.2, -1, 2}, {8.2, 8, 2}, {20, 8, 2}};
  SmootherParams params;
  params.check_precision = 0.15;
  const auto result = smoothPath(path, map, params);
  ASSERT_FALSE(result.trajectory.empty());
  // Whatever strategy was used, the delivered trajectory must be safe.
  const auto& pts = result.trajectory.points();
  for (std::size_t i = 1; i < pts.size(); ++i) {
    const auto check = map.checkSegment(pts[i - 1].position, pts[i].position, 0.15);
    EXPECT_FALSE(check.hit);
  }
}

// Property sweep: smoothed trajectories stay within the corridor of the
// piecewise path (no wild excursions), for several corner angles.
class SmootherCorners : public ::testing::TestWithParam<double> {};

TEST_P(SmootherCorners, StaysNearPiecewisePath) {
  PlannerMap map(0.3);
  const double y = GetParam();
  const std::vector<Vec3> path{{0, 0, 2}, {10, 0, 2}, {20, y, 2}, {30, y, 2}};
  const auto result = smoothPath(path, map, {});
  for (const auto& p : result.trajectory.points()) {
    const double d = geom::distToPolyline(p.position, path);
    EXPECT_LT(d, 4.0) << "excursion at " << p.position;
  }
}

INSTANTIATE_TEST_SUITE_P(Corners, SmootherCorners, ::testing::Values(2.0, 6.0, 12.0, -8.0));

}  // namespace
}  // namespace roborun::planning
