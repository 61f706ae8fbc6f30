// Unit and property tests for the occupancy octree (the OctoMap substitute).
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <vector>

#include "geom/rng.h"
#include "perception/octree.h"

namespace roborun::perception {
namespace {

using geom::Aabb;
using geom::Vec3;

OccupancyOctree makeTree(double size = 76.8, double voxmin = 0.3) {
  const double h = size / 2.0;
  return OccupancyOctree(Aabb{{-h, -h, -h}, {h, h, h}}, voxmin);
}

TEST(OctreeTest, RootCoversExtentWithPowerOfTwo) {
  OccupancyOctree tree(Aabb{{0, 0, 0}, {100, 50, 30}}, 0.3);
  EXPECT_GE(tree.rootSize(), 100.0);
  const double levels = std::log2(tree.rootSize() / tree.voxelMin());
  EXPECT_NEAR(levels, std::round(levels), 1e-9);
  EXPECT_EQ(tree.maxDepth(), static_cast<int>(std::round(levels)));
}

TEST(OctreeTest, InvalidVoxelMinThrows) {
  EXPECT_THROW(OccupancyOctree(Aabb{{0, 0, 0}, {1, 1, 1}}, 0.0), std::invalid_argument);
}

TEST(OctreeTest, LevelForPrecisionLadder) {
  auto tree = makeTree();
  EXPECT_EQ(tree.levelForPrecision(0.3), 0);
  EXPECT_EQ(tree.levelForPrecision(0.6), 1);
  EXPECT_EQ(tree.levelForPrecision(1.2), 2);
  EXPECT_EQ(tree.levelForPrecision(9.6), 5);
  EXPECT_EQ(tree.levelForPrecision(0.1), 0);   // clamps to finest
  EXPECT_DOUBLE_EQ(tree.cellSizeAtLevel(3), 2.4);
}

TEST(OctreeTest, SnapPrecisionRoundsDown) {
  auto tree = makeTree();
  EXPECT_DOUBLE_EQ(tree.snapPrecision(0.3), 0.3);
  EXPECT_DOUBLE_EQ(tree.snapPrecision(0.5), 0.3);
  EXPECT_DOUBLE_EQ(tree.snapPrecision(1.3), 1.2);
  EXPECT_DOUBLE_EQ(tree.snapPrecision(9.7), 9.6);
  EXPECT_DOUBLE_EQ(tree.snapPrecision(0.01), 0.3);
}

TEST(OctreeTest, UnknownUntilObserved) {
  auto tree = makeTree();
  EXPECT_EQ(tree.query({1, 1, 1}), Occupancy::Unknown);
  EXPECT_EQ(tree.query({1000, 0, 0}), Occupancy::Unknown);  // outside root
}

TEST(OctreeTest, UpdateAndQueryRoundTrip) {
  auto tree = makeTree();
  tree.updateCell({1.0, 2.0, 3.0}, 0, Occupancy::Occupied);
  tree.updateCell({-5.0, -5.0, 1.0}, 0, Occupancy::Free);
  EXPECT_EQ(tree.query({1.0, 2.0, 3.0}), Occupancy::Occupied);
  EXPECT_EQ(tree.query({-5.0, -5.0, 1.0}), Occupancy::Free);
  // Same finest voxel -> same state; adjacent voxel unknown.
  EXPECT_EQ(tree.query({1.05, 2.05, 3.05}), tree.query({1.0, 2.0, 3.0}));
  EXPECT_EQ(tree.query({1.0, 2.0, 4.0}), Occupancy::Unknown);
}

TEST(OctreeTest, CoarseUpdateCoversWholeCell) {
  auto tree = makeTree();
  tree.updateCell({0.1, 0.1, 0.1}, 3, Occupancy::Free);  // 2.4 m cell
  // Everything inside the 2.4 m cell containing the point reads free.
  EXPECT_EQ(tree.query({0.5, 0.5, 0.5}), Occupancy::Free);
  EXPECT_EQ(tree.query({2.0, 2.0, 2.0}), Occupancy::Free);
}

TEST(OctreeTest, OccupiedIsStickyAgainstFree) {
  auto tree = makeTree();
  tree.updateCell({1, 1, 1}, 0, Occupancy::Occupied);
  // A coarse free sweep over the same region must not erase the obstacle.
  tree.updateCell({1, 1, 1}, 3, Occupancy::Free);
  EXPECT_EQ(tree.query({1, 1, 1}), Occupancy::Occupied);
  // A fine free update on the same cell is also rejected.
  tree.updateCell({1, 1, 1}, 0, Occupancy::Free);
  EXPECT_EQ(tree.query({1, 1, 1}), Occupancy::Occupied);
}

TEST(OctreeTest, FreeThenOccupiedOverwrites) {
  auto tree = makeTree();
  tree.updateCell({1, 1, 1}, 0, Occupancy::Free);
  tree.updateCell({1, 1, 1}, 0, Occupancy::Occupied);
  EXPECT_EQ(tree.query({1, 1, 1}), Occupancy::Occupied);
}

TEST(OctreeTest, UniformChildrenMerge) {
  auto tree = makeTree(9.6, 0.3);  // depth 5
  // Fill one 0.6 m cell's 8 children free -> they must merge into one leaf.
  const Vec3 base{0.15, 0.15, 0.15};
  for (int i = 0; i < 8; ++i) {
    const Vec3 p{base.x + (i & 1 ? 0.3 : 0.0), base.y + (i & 2 ? 0.3 : 0.0),
                 base.z + (i & 4 ? 0.3 : 0.0)};
    tree.updateCell(p, 0, Occupancy::Free);
  }
  const auto& stats = tree.stats();
  // 8 sibling voxels collapsed into one coarser free leaf.
  EXPECT_EQ(stats.free_leaves, 1u);
  EXPECT_NEAR(stats.free_volume, 0.6 * 0.6 * 0.6, 1e-9);
}

TEST(OctreeTest, QueryAtLevelInflatesOccupancy) {
  auto tree = makeTree();
  tree.updateCell({0.15, 0.15, 0.15}, 0, Occupancy::Occupied);
  // Coarse views mark the whole containing cell occupied.
  EXPECT_EQ(tree.queryAtLevel({1.0, 1.0, 1.0}, 3), Occupancy::Occupied);  // 2.4 m cell
  // The finest view still distinguishes.
  EXPECT_EQ(tree.query({1.0, 1.0, 1.0}), Occupancy::Unknown);
}

TEST(OctreeTest, StatsVolumesAreConsistent) {
  auto tree = makeTree();
  tree.updateCell({1, 1, 1}, 0, Occupancy::Occupied);
  tree.updateCell({3, 3, 3}, 2, Occupancy::Free);  // 1.2 m cell
  const auto& stats = tree.stats();
  EXPECT_EQ(stats.occupied_leaves, 1u);
  EXPECT_EQ(stats.free_leaves, 1u);
  EXPECT_NEAR(stats.occupied_volume, 0.027, 1e-9);
  EXPECT_NEAR(stats.free_volume, 1.2 * 1.2 * 1.2, 1e-9);
  EXPECT_NEAR(stats.mappedVolume(), stats.occupied_volume + stats.free_volume, 1e-12);
}

TEST(OctreeTest, CollectOccupiedAtFineLevel) {
  auto tree = makeTree();
  tree.updateCell({1, 1, 1}, 0, Occupancy::Occupied);
  tree.updateCell({5, 5, 5}, 0, Occupancy::Occupied);
  const auto voxels = tree.collectOccupied(0);
  EXPECT_EQ(voxels.size(), 2u);
  for (const auto& v : voxels) EXPECT_NEAR(v.size, 0.3, 1e-9);
}

TEST(OctreeTest, CollectOccupiedCoarsensAndDeduplicates) {
  auto tree = makeTree();
  // Two fine occupied voxels inside the same 2.4 m cell.
  tree.updateCell({0.15, 0.15, 0.15}, 0, Occupancy::Occupied);
  tree.updateCell({1.0, 1.0, 1.0}, 0, Occupancy::Occupied);
  const auto voxels = tree.collectOccupied(3);
  ASSERT_EQ(voxels.size(), 1u);
  EXPECT_NEAR(voxels[0].size, 2.4, 1e-9);
}

TEST(OctreeTest, CollectOccupiedPassesThroughCoarseLeaves) {
  auto tree = makeTree();
  tree.updateCell({1, 1, 1}, 4, Occupancy::Occupied);  // 4.8 m leaf
  const auto voxels = tree.collectOccupied(1);         // ask for 0.6 m
  ASSERT_EQ(voxels.size(), 1u);
  EXPECT_NEAR(voxels[0].size, 4.8, 1e-9);  // big box passes through whole
}

TEST(OctreeTest, VoxelBoxGeometry) {
  const VoxelBox v{{1, 2, 3}, 2.0};
  EXPECT_DOUBLE_EQ(v.volume(), 8.0);
  EXPECT_TRUE(v.box().contains({1.9, 2.9, 3.9}));
  EXPECT_FALSE(v.box().contains({2.1, 2, 3}));
}

// Property: updates at any supported level leave every queried point inside
// the updated cell with the written state (or sticky-occupied).
class OctreeLevelSweep : public ::testing::TestWithParam<int> {};

TEST_P(OctreeLevelSweep, UpdateCoversItsCell) {
  const int level = GetParam();
  auto tree = makeTree();
  geom::Rng rng(static_cast<std::uint64_t>(level) + 100);
  for (int trial = 0; trial < 20; ++trial) {
    const Vec3 p = rng.uniformInBox({-30, -30, -30}, {30, 30, 30});
    tree.updateCell(p, level, Occupancy::Free);
    EXPECT_NE(tree.query(p), Occupancy::Unknown);
  }
  // Total free volume is a multiple of the level's cell volume (merging may
  // coarsen, which only multiplies by 8).
  const double cell_vol = std::pow(tree.cellSizeAtLevel(level), 3);
  const double ratio = tree.stats().free_volume / cell_vol;
  EXPECT_NEAR(ratio, std::round(ratio), 1e-6);
}

INSTANTIATE_TEST_SUITE_P(Levels, OctreeLevelSweep, ::testing::Values(0, 1, 2, 3, 4, 5));

// Golden-model property test: the octree must agree with a brute-force
// dense voxel map under arbitrary interleavings of fine occupied updates
// and free updates at any level (given occupied-sticky semantics).
class OctreeGoldenModel : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(OctreeGoldenModel, MatchesDenseVoxelMap) {
  const double voxmin = 0.3;
  const double half = 4.8;  // small world: 32^3 fine voxels
  OccupancyOctree tree(Aabb{{-half, -half, -half}, {half, half, half}}, voxmin);

  const int n = static_cast<int>(std::round(2.0 * half / voxmin));
  std::vector<Occupancy> golden(static_cast<std::size_t>(n) * n * n, Occupancy::Unknown);
  auto gidx = [&](int ix, int iy, int iz) {
    return (static_cast<std::size_t>(iz) * n + iy) * n + ix;
  };
  auto cellOf = [&](double c) {
    return std::clamp(static_cast<int>(std::floor((c + half) / voxmin)), 0, n - 1);
  };

  geom::Rng rng(GetParam());
  for (int step = 0; step < 400; ++step) {
    const Vec3 p = rng.uniformInBox({-half + 0.01, -half + 0.01, -half + 0.01},
                                    {half - 0.01, half - 0.01, half - 0.01});
    const int level = rng.uniformInt(0, 3);
    const bool occupied = rng.chance(0.3);
    tree.updateCell(p, level, occupied ? Occupancy::Occupied : Occupancy::Free);

    // Mirror in the golden model: the level cell covers a 2^level-aligned
    // block of fine voxels.
    const int block = 1 << level;
    const int bx = (cellOf(p.x) / block) * block;
    const int by = (cellOf(p.y) / block) * block;
    const int bz = (cellOf(p.z) / block) * block;
    if (occupied) {
      for (int iz = bz; iz < bz + block; ++iz)
        for (int iy = by; iy < by + block; ++iy)
          for (int ix = bx; ix < bx + block; ++ix)
            golden[gidx(ix, iy, iz)] = Occupancy::Occupied;
    } else {
      // Free is rejected if any fine voxel in the block is occupied.
      bool any_occ = false;
      for (int iz = bz; iz < bz + block && !any_occ; ++iz)
        for (int iy = by; iy < by + block && !any_occ; ++iy)
          for (int ix = bx; ix < bx + block && !any_occ; ++ix)
            any_occ = golden[gidx(ix, iy, iz)] == Occupancy::Occupied;
      if (!any_occ) {
        for (int iz = bz; iz < bz + block; ++iz)
          for (int iy = by; iy < by + block; ++iy)
            for (int ix = bx; ix < bx + block; ++ix)
              golden[gidx(ix, iy, iz)] = Occupancy::Free;
      }
    }
  }

  // Full-grid comparison at fine-voxel centers.
  std::size_t mismatches = 0;
  for (int iz = 0; iz < n; ++iz) {
    for (int iy = 0; iy < n; ++iy) {
      for (int ix = 0; ix < n; ++ix) {
        const Vec3 c{-half + (ix + 0.5) * voxmin, -half + (iy + 0.5) * voxmin,
                     -half + (iz + 0.5) * voxmin};
        if (tree.query(c) != golden[gidx(ix, iy, iz)]) ++mismatches;
      }
    }
  }
  EXPECT_EQ(mismatches, 0u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, OctreeGoldenModel, ::testing::Values(1u, 7u, 42u, 1234u));

TEST(OctreeMortonKey, RoundTripsThroughCellCenter) {
  auto tree = makeTree();
  geom::Rng rng(2024);
  for (int trial = 0; trial < 200; ++trial) {
    const Vec3 p = rng.uniformInBox(tree.rootBox().lo, tree.rootBox().hi);
    const std::uint64_t key = tree.cellKey(p);
    // Decoding the key to its finest-cell center and re-encoding must be the
    // identity: the key ladder and the point binning agree exactly.
    const Vec3 center = tree.cellCenter(key, 0);
    EXPECT_EQ(tree.cellKey(center), key);
    // Keys at every level round-trip and stay near the original point.
    for (int level = 0; level <= tree.maxDepth(); ++level) {
      const std::uint64_t lk = tree.cellKey(p, level);
      const Vec3 c = tree.cellCenter(lk, level);
      EXPECT_EQ(tree.cellKey(c, level), lk);
      EXPECT_NEAR(c.dist(p), 0.0, tree.cellSizeAtLevel(level) * 0.87);  // sqrt(3)/2
    }
  }
}

TEST(OctreeMortonKey, SameFineVoxelSameKey) {
  auto tree = makeTree();
  // Fine voxels are 0.3 m cells on the [-38.4, 38.4] grid: [0.9, 1.2) x
  // [1.8, 2.1) x [3.0, 3.3) here.
  EXPECT_EQ(tree.cellKey({1.01, 2.01, 3.01}), tree.cellKey({1.15, 2.05, 3.25}));
  EXPECT_NE(tree.cellKey({1.01, 2.01, 3.01}), tree.cellKey({1.01, 2.01, 3.31}));
}

TEST(OctreeMortonKey, KeyedUpdateMatchesPointUpdate) {
  auto by_point = makeTree();
  auto by_key = makeTree();
  geom::Rng rng(77);
  std::vector<std::uint64_t> keys;
  for (int trial = 0; trial < 100; ++trial) {
    const Vec3 p = rng.uniformInBox({-30, -30, -30}, {30, 30, 30});
    const int level = rng.uniformInt(0, 4);
    const auto state = rng.chance(0.4) ? Occupancy::Occupied : Occupancy::Free;
    by_point.updateCell(p, level, state);
    keys.assign(1, by_key.cellKey(p, level));
    by_key.updateCells(keys, level, state);
  }
  geom::Rng probe(78);
  for (int trial = 0; trial < 500; ++trial) {
    const Vec3 p = probe.uniformInBox({-35, -35, -35}, {35, 35, 35});
    EXPECT_EQ(by_point.query(p), by_key.query(p));
  }
  EXPECT_EQ(by_point.stats().occupied_leaves, by_key.stats().occupied_leaves);
  EXPECT_EQ(by_point.stats().free_leaves, by_key.stats().free_leaves);
  EXPECT_EQ(by_point.stats().inner_nodes, by_key.stats().inner_nodes);
}

TEST(OctreePool, RecyclesMergedBlocks) {
  auto tree = makeTree(9.6, 0.3);
  // Fill a coarse cell's children free so they merge; the pool must reuse
  // the recycled block instead of growing.
  const Vec3 base{0.15, 0.15, 0.15};
  for (int i = 0; i < 8; ++i) {
    const Vec3 p{base.x + (i & 1 ? 0.3 : 0.0), base.y + (i & 2 ? 0.3 : 0.0),
                 base.z + (i & 4 ? 0.3 : 0.0)};
    tree.updateCell(p, 0, Occupancy::Free);
  }
  const std::size_t live_after_merge = tree.liveNodeCount();
  const std::size_t pool_after_merge = tree.poolSize();
  EXPECT_EQ(pool_after_merge - live_after_merge, 8u);  // free-list holds the merged block
  // A single split elsewhere (an unknown 4.8 m cell refined to write one
  // 2.4 m child) must be served from the free-list, not grow the pool.
  tree.updateCell({-2.0, -2.0, -2.0}, 3, Occupancy::Occupied);
  EXPECT_EQ(tree.poolSize(), pool_after_merge);
  EXPECT_EQ(tree.liveNodeCount(), pool_after_merge);
}

// Property: random interleaved updates never lose an obstacle.
TEST(OctreeProperty, ObstaclesSurviveRandomFreeSweeps) {
  auto tree = makeTree();
  geom::Rng rng(7);
  std::vector<Vec3> obstacles;
  for (int i = 0; i < 50; ++i) {
    const Vec3 p = rng.uniformInBox({-30, -30, -30}, {30, 30, 30});
    obstacles.push_back(p);
    tree.updateCell(p, 0, Occupancy::Occupied);
  }
  for (int i = 0; i < 500; ++i) {
    const Vec3 p = rng.uniformInBox({-30, -30, -30}, {30, 30, 30});
    tree.updateCell(p, rng.uniformInt(0, 4), Occupancy::Free);
  }
  for (const auto& p : obstacles) EXPECT_EQ(tree.query(p), Occupancy::Occupied);
}

}  // namespace
}  // namespace roborun::perception
