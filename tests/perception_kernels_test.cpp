// Unit tests for the perception kernels: point cloud + downsample operator,
// OctoMap insertion (precision/volume operators), planner map, map bridge.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <numbers>
#include <thread>
#include <vector>

#include "env/world.h"
#include "geom/rng.h"
#include "perception/fork_join.h"
#include "perception/map_bridge.h"
#include "perception/octomap_kernel.h"
#include "perception/planner_map.h"
#include "perception/point_cloud.h"
#include "reference_sweep.h"
#include "sim/sensor.h"

namespace roborun::perception {
namespace {

using geom::Aabb;
using geom::Vec3;

PointCloud syntheticCloud(std::size_t n, double spacing = 0.1) {
  PointCloud pc;
  pc.origin = {0, 0, 0};
  pc.max_range = 30.0;
  pc.source_rays = n;
  for (std::size_t i = 0; i < n; ++i)
    pc.points.push_back({10.0 + spacing * static_cast<double>(i), 5.0, 2.0});
  return pc;
}

TEST(PointCloudTest, FromSensorFrameSplitsHitsAndMisses) {
  env::World w(Aabb{{-20, -20, 0}, {20, 20, 20}}, 1.0);
  w.setColumn(w.toIx(10.5), w.toIy(0.5), 20.0);
  sim::DepthCameraArray sensor;
  const auto frame = sensor.capture(w, {0.5, 0.5, 3});
  const auto pc = fromSensorFrame(frame);
  EXPECT_EQ(pc.source_rays, frame.rayCount());
  EXPECT_FALSE(pc.points.empty());
  EXPECT_FALSE(pc.free_rays.empty());
  // Hits + ground returns + misses account for every ray.
  EXPECT_LE(pc.points.size() + pc.free_rays.size(), frame.rayCount());
}

TEST(DownsampleTest, CoarseGridMergesPoints) {
  const auto pc = syntheticCloud(100, 0.05);  // 5 m line of dense points
  const auto fine = downsample(pc, 0.3);
  const auto coarse = downsample(pc, 9.6);
  EXPECT_LT(fine.cloud.size(), pc.size());
  EXPECT_LE(coarse.cloud.size(), 2u);
  EXPECT_LT(coarse.cloud.size(), fine.cloud.size());
  EXPECT_EQ(fine.points_in, 100u);
}

TEST(DownsampleTest, CellAverageIsCentroid) {
  PointCloud pc;
  pc.source_rays = 2;
  pc.points = {{1.0, 1.0, 1.0}, {1.2, 1.2, 1.2}};  // same 9.6 m cell
  const auto ds = downsample(pc, 9.6);
  ASSERT_EQ(ds.cloud.size(), 1u);
  EXPECT_NEAR(ds.cloud.points[0].x, 1.1, 1e-9);
}

TEST(DownsampleTest, NonPositivePrecisionPassesThrough) {
  const auto pc = syntheticCloud(10);
  const auto ds = downsample(pc, 0.0);
  EXPECT_EQ(ds.cloud.size(), pc.size());
}

TEST(DownsampleTest, PreservesMetadataAndFreeRays) {
  auto pc = syntheticCloud(10);
  pc.free_rays.push_back({{0, 0, 1}, 30.0});
  const auto ds = downsample(pc, 1.2);
  EXPECT_EQ(ds.cloud.origin, pc.origin);
  EXPECT_EQ(ds.cloud.free_rays.size(), 1u);
  EXPECT_EQ(ds.cloud.source_rays, pc.source_rays);
}

TEST(ByteSizeTest, GrowsWithPayload) {
  const auto small = syntheticCloud(10);
  const auto large = syntheticCloud(100);
  EXPECT_LT(byteSizeOf(small), byteSizeOf(large));
}

OccupancyOctree makeTree() {
  return OccupancyOctree(Aabb{{-40, -40, -40}, {40, 40, 40}}, 0.3);
}

TEST(OctomapKernelTest, InsertMarksOccupiedAndFree) {
  auto tree = makeTree();
  PointCloud pc;
  pc.origin = {0, 0, 0};
  pc.max_range = 30;
  pc.source_rays = 1;
  pc.points = {{10, 0, 0}};
  OctomapInsertParams params;
  params.precision = 0.3;
  params.volume_budget = 1e9;
  const auto report = insertPointCloud(tree, pc, params, {});
  EXPECT_EQ(report.points_inserted, 1u);
  EXPECT_EQ(tree.query({10, 0, 0}), Occupancy::Occupied);
  EXPECT_EQ(tree.query({5, 0, 0}), Occupancy::Free);  // along the ray
  EXPECT_GT(report.ray_steps, 10u);
}

TEST(OctomapKernelTest, PrecisionControlsWork) {
  OctomapInsertParams fine;
  fine.precision = 0.3;
  fine.volume_budget = 1e9;
  OctomapInsertParams coarse = fine;
  coarse.precision = 9.6;

  auto cloud = syntheticCloud(50, 0.5);
  auto tree_fine = makeTree();
  auto tree_coarse = makeTree();
  const auto rf = insertPointCloud(tree_fine, cloud, fine, {});
  const auto rc = insertPointCloud(tree_coarse, cloud, coarse, {});
  // The paper's precision-latency tradeoff: finer precision -> more work.
  EXPECT_GT(rf.ray_steps, 4u * rc.ray_steps);
}

TEST(OctomapKernelTest, VolumeBudgetDropsFarRays) {
  auto tree = makeTree();
  PointCloud pc;
  pc.origin = {0, 0, 0};
  pc.max_range = 30;
  pc.source_rays = 2;
  pc.points = {{3, 0, 2}, {30, 30, 2}};  // near and far of the trajectory
  const std::vector<Vec3> traj{{0, 0, 2}, {5, 0, 2}};

  OctomapInsertParams params;
  params.precision = 0.3;
  // Enough volume for the near ray only.
  params.volume_budget = 4.0 * std::numbers::pi / (3.0 * 2.0) * 30.0 + 1.0;
  const auto report = insertPointCloud(tree, pc, params, traj);
  EXPECT_EQ(report.rays_integrated, 1u);
  EXPECT_EQ(report.rays_dropped, 1u);
  // The near (threatening) point survived; the far one was dropped.
  EXPECT_EQ(tree.query({3, 0, 2}), Occupancy::Occupied);
  EXPECT_EQ(tree.query({30, 30, 2}), Occupancy::Unknown);
}

TEST(OctomapKernelTest, VolumeAccountingSumsToSensingSphere) {
  // A full unobstructed sweep ingests ~the sensing sphere volume.
  auto tree = makeTree();
  PointCloud pc;
  pc.origin = {0, 0, 0};
  pc.max_range = 10;
  const std::size_t rays = 200;
  pc.source_rays = rays;
  for (std::size_t i = 0; i < rays; ++i) {
    const double theta = 2.0 * std::numbers::pi * static_cast<double>(i) / rays;
    pc.free_rays.push_back({{std::cos(theta), std::sin(theta), 0.0}, 10.0});
  }
  OctomapInsertParams params;
  params.precision = 1.2;
  params.volume_budget = 1e9;
  const auto report = insertPointCloud(tree, pc, params, {});
  const double sphere = 4.0 / 3.0 * std::numbers::pi * 1000.0;
  EXPECT_NEAR(report.volume_ingested, sphere, sphere * 0.01);
}

// A sweep that keeps 512 rays or more classifies its rays' live windows on
// the fork-join pool and walks only those; the tree and the report must be
// the serial kernel's, on fresh space and on an immediate re-sweep.
TEST(OctomapKernelTest, ForkedSweepMatchesSerialKernel) {
  auto forked = makeTree();
  auto serial = makeTree();
  geom::Rng rng(2024);
  PointCloud pc;
  pc.origin = {1.0, -2.0, 3.0};
  pc.max_range = 20;
  pc.source_rays = 900;
  for (std::size_t i = 0; i < pc.source_rays; ++i) {
    Vec3 dir = rng.uniformInBox({-1, -1, -1}, {1, 1, 1});
    dir = dir / std::max(dir.norm(), 1e-3);
    if (rng.chance(0.5)) {
      pc.points.push_back(pc.origin + dir * rng.uniform(3.0, 18.0));
    } else {
      pc.free_rays.push_back({dir, 20.0});
    }
  }
  const std::vector<Vec3> traj{{0, 0, 3}, {10, 2, 3}, {20, -1, 3}};
  OctomapInsertParams params;
  params.volume_budget = 1e9;
  for (int pass = 0; pass < 2; ++pass) {
    const auto got = insertPointCloud(forked, pc, params, traj);
    const auto want = reference::insertSweep(serial, pc, params, traj);
    EXPECT_EQ(got.rays_integrated, pc.source_rays);
    EXPECT_EQ(got.ray_steps, want.ray_steps);
    EXPECT_EQ(got.volume_ingested, want.volume_ingested);
    const auto& a = forked.stats();
    const auto& b = serial.stats();
    EXPECT_EQ(a.occupied_leaves, b.occupied_leaves);
    EXPECT_EQ(a.free_leaves, b.free_leaves);
    EXPECT_EQ(a.inner_nodes, b.inner_nodes);
    EXPECT_EQ(a.free_volume, b.free_volume);
    EXPECT_EQ(forked.liveNodeCount(), serial.liveNodeCount());
    EXPECT_EQ(forked.collectOccupied(0).size(), serial.collectOccupied(0).size());
  }
}

// Every index runs exactly once, and callers on several threads at once
// (sharing the pool's helpers) all return.
TEST(ForkJoinTest, RunsEveryIndexOnceForConcurrentCallers) {
  constexpr std::size_t kTasks = 300;
  std::vector<std::atomic<int>> runs(4 * kTasks);
  std::vector<std::thread> callers;
  for (std::size_t c = 0; c < 4; ++c)
    callers.emplace_back([&runs, c] {
      for (int round = 0; round < 20; ++round)
        forkJoin(kTasks, [&runs, c](std::size_t i) { ++runs[c * kTasks + i]; });
    });
  for (std::thread& t : callers) t.join();
  for (const auto& r : runs) EXPECT_EQ(r.load(), 20);
}

TEST(OctomapKernelTest, EmptyCloudIsNoop) {
  auto tree = makeTree();
  PointCloud pc;
  const auto report = insertPointCloud(tree, pc, {}, {});
  EXPECT_EQ(report.rays_integrated, 0u);
  EXPECT_EQ(report.ray_steps, 0u);
}

TEST(PlannerMapTest, AddAndQueryVoxels) {
  PlannerMap map(0.3, 0.0);  // no inflation for exactness
  map.addVoxel({{1.05, 1.05, 1.05}, 0.3});
  EXPECT_TRUE(map.occupiedPoint({1.05, 1.05, 1.05}));
  EXPECT_FALSE(map.occupiedPoint({2.0, 2.0, 2.0}));
  EXPECT_EQ(map.voxelCount(), 1u);
}

TEST(PlannerMapTest, InflationAddsMargin) {
  PlannerMap map(0.3, 0.6);
  map.addVoxel({{1.05, 1.05, 1.05}, 0.3});
  EXPECT_TRUE(map.occupiedPoint({1.6, 1.05, 1.05}));   // within margin
  EXPECT_FALSE(map.occupiedRaw({1.6, 1.05, 1.05}));    // raw is exact
  EXPECT_FALSE(map.occupiedPoint({2.5, 1.05, 1.05}));  // beyond margin
}

TEST(PlannerMapTest, CoarseBoxesHandled) {
  PlannerMap map(0.3, 0.0);
  map.addVoxel({{5, 5, 5}, 4.8});  // legacy coarse leaf
  EXPECT_EQ(map.coarseBoxCount(), 1u);
  EXPECT_TRUE(map.occupiedPoint({6, 6, 6}));
  EXPECT_FALSE(map.occupiedPoint({8.5, 8.5, 8.5}));
}

TEST(PlannerMapTest, SegmentCheckFindsHitAndCountsSteps) {
  PlannerMap map(0.3, 0.0);
  map.addVoxel({{5.0, 0.15, 0.15}, 0.3});
  const auto hit = map.checkSegment({0, 0.15, 0.15}, {10, 0.15, 0.15}, 0.3);
  EXPECT_TRUE(hit.hit);
  EXPECT_NEAR(hit.hit_t, 0.49, 0.03);
  const auto fine = map.checkSegment({0, 2, 2}, {10, 2, 2}, 0.3);
  const auto coarse = map.checkSegment({0, 2, 2}, {10, 2, 2}, 2.4);
  EXPECT_FALSE(fine.hit);
  // The planning-precision knob: coarser march -> fewer steps.
  EXPECT_GT(fine.steps, 3u * coarse.steps);
}

TEST(PlannerMapTest, SegmentCheckDegeneratePoint) {
  PlannerMap map(0.3, 0.0);
  map.addVoxel({{1.05, 1.05, 1.05}, 0.3});
  const auto on = map.checkSegment({1.05, 1.05, 1.05}, {1.05, 1.05, 1.05});
  EXPECT_TRUE(on.hit);
  const auto off = map.checkSegment({3, 3, 3}, {3, 3, 3});
  EXPECT_FALSE(off.hit);
}

TEST(PlannerMapTest, InvalidParamsThrow) {
  EXPECT_THROW(PlannerMap(0.0), std::invalid_argument);
  EXPECT_THROW(PlannerMap(0.3, -1.0), std::invalid_argument);
}

TEST(MapBridgeTest, PrunesToCoarsePrecision) {
  auto tree = makeTree();
  // 8 fine occupied voxels in one 2.4 m cell.
  for (int i = 0; i < 8; ++i)
    tree.updateCell({0.15 + 0.3 * (i & 1), 0.15 + 0.3 * ((i >> 1) & 1),
                     0.15 + 0.3 * ((i >> 2) & 1)},
                    0, Occupancy::Occupied);
  BridgeParams fine;
  fine.precision = 0.3;
  fine.volume_budget = 1e9;
  BridgeParams coarse;
  coarse.precision = 2.4;
  coarse.volume_budget = 1e9;
  const auto rf = buildPlannerMap(tree, {0, 0, 0}, fine);
  const auto rc = buildPlannerMap(tree, {0, 0, 0}, coarse);
  // The octree may have merged the 8 uniform children into one coarser
  // leaf, so count coverage rather than raw voxel records: every inserted
  // point must read occupied in the fine map.
  for (int i = 0; i < 8; ++i) {
    const Vec3 p{0.15 + 0.3 * (i & 1), 0.15 + 0.3 * ((i >> 1) & 1),
                 0.15 + 0.3 * ((i >> 2) & 1)};
    EXPECT_TRUE(rf.msg.map.occupiedRaw(p));
    EXPECT_TRUE(rc.msg.map.occupiedRaw(p));
  }
  EXPECT_EQ(rc.report.voxels_sent, 1u);
  EXPECT_LE(byteSizeOf(rc.msg), byteSizeOf(rf.msg));  // comm shrinks with precision
}

TEST(MapBridgeTest, VolumeBudgetLimitsRadius) {
  auto tree = makeTree();
  tree.updateCell({2, 0, 0}, 0, Occupancy::Occupied);
  tree.updateCell({30, 0, 0}, 0, Occupancy::Occupied);
  BridgeParams params;
  params.precision = 0.3;
  params.volume_budget = 4.0 / 3.0 * std::numbers::pi * 125.0;  // 5 m radius
  const auto result = buildPlannerMap(tree, {0, 0, 0}, params);
  EXPECT_EQ(result.report.voxels_sent, 1u);
  EXPECT_EQ(result.report.voxels_dropped, 1u);
  EXPECT_TRUE(result.msg.map.occupiedRaw({2, 0, 0.1}) ||
              result.msg.map.occupiedPoint({2, 0, 0}));
  EXPECT_FALSE(result.msg.map.occupiedPoint({30, 0, 0}));
}

TEST(MapBridgeTest, NodesCountIncludesDropped) {
  auto tree = makeTree();
  tree.updateCell({2, 0, 0}, 0, Occupancy::Occupied);
  tree.updateCell({30, 0, 0}, 0, Occupancy::Occupied);
  BridgeParams params;
  params.precision = 0.3;
  params.volume_budget = 4.0 / 3.0 * std::numbers::pi * 125.0;
  const auto result = buildPlannerMap(tree, {0, 0, 0}, params);
  EXPECT_EQ(result.report.nodes, 2u);  // the whole map, not just the sphere
}

/// Grow `tree` by one random sweep from `origin` through the OctoMap kernel
/// (hits at the fine level, free rays at the kernel's coarser free level).
void growBySweep(OccupancyOctree& tree, geom::Rng& rng, const Vec3& origin) {
  PointCloud cloud;
  cloud.origin = origin;
  cloud.max_range = 25.0;
  for (int i = 0; i < 400; ++i) {
    const Vec3 dir = (rng.uniformInBox({-1, -1, -0.3}, {1, 1, 0.3}) + Vec3{1e-3, 0, 0}).normalized();
    if (rng.chance(0.7)) {
      cloud.points.push_back(origin + dir * rng.uniform(2.0, 25.0));
    } else {
      cloud.free_rays.push_back({dir, rng.uniform(5.0, 25.0)});
    }
  }
  cloud.source_rays = 400;
  OctomapInsertParams params;
  params.volume_budget = 1e9;
  insertPointCloud(tree, cloud, params, {});
}

/// The bridge's contract, brute force: collect the whole map at the bridge
/// level, keep the voxels whose centers are within the cull radius, and
/// build the planner map from exactly those.
struct BruteBridge {
  std::vector<VoxelBox> all;
  std::vector<VoxelBox> sent;
  PlannerMap map;
};
BruteBridge bruteForceBridge(const OccupancyOctree& tree, const Vec3& position,
                             const BridgeParams& params) {
  const double precision = tree.snapPrecision(params.precision);
  const double radius = std::cbrt(3.0 * params.volume_budget / (4.0 * std::numbers::pi));
  BruteBridge b{tree.collectOccupied(tree.levelForPrecision(precision)), {},
                PlannerMap(precision, params.inflation)};
  for (const auto& v : b.all) {
    if (v.center.dist(position) > radius) continue;
    b.sent.push_back(v);
    b.map.addVoxel(v);
  }
  return b;
}

bool sameBox(const Aabb& a, const Aabb& b) {
  return a.lo.x == b.lo.x && a.lo.y == b.lo.y && a.lo.z == b.lo.z && a.hi.x == b.hi.x &&
         a.hi.y == b.hi.y && a.hi.z == b.hi.z;
}

void expectMatchesBruteForce(const BridgeResult& result, const BruteBridge& b) {
  ASSERT_GT(b.sent.size(), 0u);
  ASSERT_LT(b.sent.size(), b.all.size());  // the sphere really culls
  EXPECT_EQ(result.report.nodes, b.all.size());
  EXPECT_EQ(result.report.voxels_sent, b.sent.size());
  EXPECT_EQ(result.report.voxels_dropped, b.all.size() - b.sent.size());
  const PlannerMap& map = result.msg.map;
  EXPECT_EQ(map.voxelCount(), b.map.voxelCount());
  EXPECT_EQ(map.coarseBoxCount(), b.map.coarseBoxCount());
  EXPECT_TRUE(sameBox(map.occupiedBounds(), b.map.occupiedBounds()));
  for (const auto& v : b.all) {
    EXPECT_EQ(map.occupiedRaw(v.center), b.map.occupiedRaw(v.center));
    EXPECT_EQ(map.occupiedPoint(v.center), b.map.occupiedPoint(v.center));
  }
}

// The sphere-culled bridge against the brute-force collect-and-filter on a
// grown tree, across precisions and two epochs: same voxels (same map
// answers at every occupied cell) and same counts.
TEST(MapBridgeTest, CulledBridgeMatchesBruteForceCollectAndFilter) {
  for (const double precision : {0.3, 0.6, 1.2, 2.4}) {
    SCOPED_TRACE(precision);
    auto tree = makeTree();
    geom::Rng rng(static_cast<std::uint64_t>(precision * 10.0) + 3);
    growBySweep(tree, rng, {-10, 0, 0});
    growBySweep(tree, rng, {10, 5, 0});
    tree.updateCell({20, -20, 5}, 4, Occupancy::Occupied);  // a leaf coarser than every level

    BridgeParams params;
    params.precision = precision;
    params.volume_budget = 4.0 / 3.0 * std::numbers::pi * 18.0 * 18.0 * 18.0;  // 18 m radius
    const Vec3 p1{-5, 2, 0};
    const auto first = buildPlannerMap(tree, p1, params);
    const auto brute_first = bruteForceBridge(tree, p1, params);
    expectMatchesBruteForce(first, brute_first);

    growBySweep(tree, rng, {0, -8, 1});
    const Vec3 p2{4, -3, 1};
    const auto second = buildPlannerMap(tree, p2, params);
    const auto brute_second = bruteForceBridge(tree, p2, params);
    expectMatchesBruteForce(second, brute_second);
  }
}

}  // namespace
}  // namespace roborun::perception
