// Old-vs-new octree equivalence: replay identical insert/query sequences
// against the frozen seed implementation (tests/reference_octree.h) and the
// pooled Morton-keyed tree, and demand identical observable behavior —
// occupancy answers, stats, coarsening/collection output (including order),
// cached per-level occupied counts, the sphere-culled collection, and
// nearest-occupied distances — and the fused ray walk against the keyed
// batch it replaces in the kernel. This is the contract that let the pool
// refactor land without perturbing a single MissionResult bit.
//
// Registered under tier2; run it with -DROBORUN_SANITIZE=address;undefined
// to also exercise the pool's block recycling under ASan/UBSan.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <numbers>
#include <vector>

#include "geom/rng.h"
#include "perception/octomap_kernel.h"
#include "perception/octree.h"
#include "perception/point_cloud.h"
#include "reference_octree.h"
#include "reference_sweep.h"

namespace roborun::perception {
namespace {

using geom::Aabb;
using geom::Rng;
using geom::Vec3;

constexpr double kVoxMin = 0.3;
constexpr double kHalf = 4.8;  // 32^3 fine voxels: dense comparison stays fast

Aabb worldBox(double half = kHalf) { return {{-half, -half, -half}, {half, half, half}}; }

Vec3 randomDirection(Rng& rng) {
  for (;;) {
    const Vec3 v = rng.uniformInBox({-1.0, -1.0, -1.0}, {1.0, 1.0, 1.0});
    const double n = v.norm();
    if (n > 0.1) return v / n;
  }
}

void expectSameVoxel(const VoxelBox& a, const VoxelBox& b) {
  EXPECT_EQ(a.center.x, b.center.x);
  EXPECT_EQ(a.center.y, b.center.y);
  EXPECT_EQ(a.center.z, b.center.z);
  EXPECT_EQ(a.size, b.size);
}

bool sameVoxel(const VoxelBox& a, const VoxelBox& b) {
  return a.center.x == b.center.x && a.center.y == b.center.y && a.center.z == b.center.z &&
         a.size == b.size;
}

/// The voxels of `walk` whose centers lie within `radius` of `position`
/// (the bridge's exact filter), in walk order.
std::vector<VoxelBox> inRadius(const std::vector<VoxelBox>& walk, const Vec3& position,
                               double radius) {
  std::vector<VoxelBox> out;
  for (const auto& v : walk)
    if (!(v.center.dist(position) > radius)) out.push_back(v);
  return out;
}

/// The sphere-culled walk against the full walk at every level: it must be
/// a subsequence of the full walk and keep exactly the full walk's in-radius
/// voxels, element for element and bit for bit. Positions cover the root's
/// inside and outside; radii cover 0, random, and one that covers the root.
void expectCulledWalkExact(const OccupancyOctree& tree, Rng& rng, int max_level) {
  const Aabb root = tree.rootBox();
  const double covering = root.size().norm() * 2.0;
  for (int level = 0; level <= max_level; ++level) {
    const auto full = tree.collectOccupied(level);
    for (int trial = 0; trial < 12; ++trial) {
      const bool outside = trial % 3 == 2;
      const Vec3 position = outside ? root.hi + rng.uniformInBox({0.1, 0.1, 0.1}, {3.0, 3.0, 3.0})
                                    : rng.uniformInBox(root.lo, root.hi);
      const double radius = trial % 4 == 0 ? 0.0 : rng.uniform(0.0, kHalf * 1.5);
      for (const double r : {radius, covering}) {
        const auto culled = tree.collectOccupied(level, position, r);
        std::size_t next = 0;  // culled must be a subsequence of full
        for (const auto& v : culled) {
          while (next < full.size() && !sameVoxel(full[next], v)) ++next;
          ASSERT_LT(next, full.size()) << "culled voxel not in walk order at level " << level;
          ++next;
        }
        const auto want = inRadius(full, position, r);
        const auto got = inRadius(culled, position, r);
        ASSERT_EQ(got.size(), want.size()) << "level " << level << " radius " << r;
        for (std::size_t i = 0; i < got.size(); ++i) expectSameVoxel(got[i], want[i]);
        if (r == covering && !outside) {
          EXPECT_EQ(culled.size(), full.size());
        }
      }
      if (outside) {
        EXPECT_TRUE(tree.collectOccupied(level, position, 0.0).empty());
      }
    }
  }
}

/// Cached per-level counts against both walks' sizes.
void expectCellCounts(const OccupancyOctree& pooled, const reference::ReferenceOctree& ref) {
  for (int level = 0; level <= pooled.maxDepth(); ++level) {
    const std::size_t count = pooled.occupiedCellCount(level);
    EXPECT_EQ(count, pooled.collectOccupied(level).size()) << "level " << level;
    EXPECT_EQ(count, ref.collectOccupied(level).size()) << "level " << level;
  }
}

/// Compare every externally observable view of the two trees.
void expectEquivalent(const OccupancyOctree& pooled, const reference::ReferenceOctree& ref,
                      Rng& rng, int max_level) {
  // Structural counters must match exactly. Volumes are compared to a
  // tight relative tolerance rather than bit-for-bit: the pooled tree's
  // stats() is an incremental per-subtree reduction (hierarchical float
  // accumulation), while the frozen seed reference accumulates leaves into
  // one running sum in global DFS order — same leaves, same per-leaf
  // volumes, different association, so the last bits legitimately differ
  // (the deliberate equivalence break tracked in ROADMAP).
  const auto& ps = pooled.stats();
  const auto& rs = ref.stats();
  EXPECT_EQ(ps.occupied_leaves, rs.occupied_leaves);
  EXPECT_EQ(ps.free_leaves, rs.free_leaves);
  EXPECT_EQ(ps.inner_nodes, rs.inner_nodes);
  const double occ_tol = 1e-12 * std::max(1.0, rs.occupied_volume);
  const double free_tol = 1e-12 * std::max(1.0, rs.free_volume);
  EXPECT_NEAR(ps.occupied_volume, rs.occupied_volume, occ_tol);
  EXPECT_NEAR(ps.free_volume, rs.free_volume, free_tol);

  // Dense fine-voxel sweep.
  const int n = static_cast<int>(std::round(2.0 * kHalf / kVoxMin));
  std::size_t query_mismatches = 0;
  for (int iz = 0; iz < n; ++iz)
    for (int iy = 0; iy < n; ++iy)
      for (int ix = 0; ix < n; ++ix) {
        const Vec3 c{-kHalf + (ix + 0.5) * kVoxMin, -kHalf + (iy + 0.5) * kVoxMin,
                     -kHalf + (iz + 0.5) * kVoxMin};
        if (pooled.query(c) != ref.query(c)) ++query_mismatches;
      }
  EXPECT_EQ(query_mismatches, 0u);

  // Random coarse views and nearest-occupied probes.
  for (int trial = 0; trial < 200; ++trial) {
    const Vec3 p = rng.uniformInBox({-kHalf - 1.0, -kHalf - 1.0, -kHalf - 1.0},
                                    {kHalf + 1.0, kHalf + 1.0, kHalf + 1.0});
    const int level = rng.uniformInt(0, max_level);
    EXPECT_EQ(pooled.queryAtLevel(p, level), ref.queryAtLevel(p, level))
        << "queryAtLevel mismatch at level " << level;
    EXPECT_EQ(pooled.nearestOccupiedDistance(p, 99.0), ref.nearestOccupiedDistance(p, 99.0));
  }

  // Coarsened occupied collection: same voxels, same order, same bits.
  for (int level = 0; level <= max_level; ++level) {
    const auto pv = pooled.collectOccupied(level);
    const auto rv = ref.collectOccupied(level);
    ASSERT_EQ(pv.size(), rv.size()) << "collectOccupied size at level " << level;
    for (std::size_t i = 0; i < pv.size(); ++i) expectSameVoxel(pv[i], rv[i]);
  }
  expectCellCounts(pooled, ref);
  expectCulledWalkExact(pooled, rng, max_level);
}

/// Bitwise identity of two pooled trees: stats (volumes included), live
/// node count, and the occupied collection and cached count at every level.
void expectSameTree(const OccupancyOctree& a, const OccupancyOctree& b) {
  const auto& sa = a.stats();
  const auto& sb = b.stats();
  EXPECT_EQ(sa.occupied_leaves, sb.occupied_leaves);
  EXPECT_EQ(sa.free_leaves, sb.free_leaves);
  EXPECT_EQ(sa.inner_nodes, sb.inner_nodes);
  EXPECT_EQ(sa.occupied_volume, sb.occupied_volume);
  EXPECT_EQ(sa.free_volume, sb.free_volume);
  EXPECT_EQ(a.liveNodeCount(), b.liveNodeCount());
  for (int level = 0; level <= a.maxDepth(); ++level) {
    const auto va = a.collectOccupied(level);
    const auto vb = b.collectOccupied(level);
    ASSERT_EQ(va.size(), vb.size()) << "collectOccupied size at level " << level;
    for (std::size_t i = 0; i < va.size(); ++i) expectSameVoxel(va[i], vb[i]);
    EXPECT_EQ(a.occupiedCellCount(level), b.occupiedCellCount(level)) << "level " << level;
  }
}

/// One tree per path a ray march can take: the fused walk (updateRay), the
/// keyed batch it is defined as (cellKey + updateCells), and the seed's
/// per-cell root descents.
struct RayTrees {
  OccupancyOctree ray;
  OccupancyOctree keyed;
  reference::ReferenceOctree ref;
  RayTrees(const Aabb& extent, double voxel_min)
      : ray(extent, voxel_min), keyed(extent, voxel_min), ref(extent, voxel_min) {}

  void march(const Vec3& origin, const Vec3& dir, double step, double length, int level,
             Occupancy state) {
    ray.updateRay(origin, dir, step, length, level, state);
    std::vector<std::uint64_t> keys;
    for (double t = step * 0.5; t < length; t += step) {
      const Vec3 p = origin + dir * t;
      ref.updateCell(p, level, state);
      if (keyed.rootBox().contains(p)) keys.push_back(keyed.cellKey(p, level));
    }
    keyed.updateCells(keys, level, state);
  }
  void point(const Vec3& p, int level, Occupancy state) {
    ray.updateCell(p, level, state);
    keyed.updateCell(p, level, state);
    ref.updateCell(p, level, state);
  }
};

/// The kernel's per-frame pattern (per ray: a same-level march, then a
/// finer occupied endpoint for hits) plus whole rays marched Occupied.
/// Origins are drawn from [-spread, spread]^3 around `center`; ray lengths
/// reach well past the root box.
void sweepRandomFrames(RayTrees& t, Rng& rng, const Vec3& center, double spread, int frames) {
  struct Ray {
    Vec3 dir;
    double len;
    bool hit;
    Occupancy state;
  };
  const Vec3 s{spread, spread, spread};
  for (int frame = 0; frame < frames; ++frame) {
    const Vec3 origin = rng.uniformInBox(center - s, center + s);
    const int occ_level = rng.uniformInt(0, 1);
    const int free_level = rng.uniformInt(occ_level, 3);
    const double cell = t.ray.cellSizeAtLevel(free_level);
    std::vector<Ray> rays;
    for (int rayi = 0; rayi < 40; ++rayi)
      rays.push_back({randomDirection(rng), rng.uniform(0.5, 9.0), rng.chance(0.5),
                      rng.chance(0.15) ? Occupancy::Occupied : Occupancy::Free});
    // Every third frame is swept twice: the second pass is mostly no-ops.
    for (int pass = 0; pass < (frame % 3 == 1 ? 2 : 1); ++pass) {
      for (const Ray& r : rays) {
        const double free_len = r.hit ? std::max(0.0, r.len - cell) : r.len;
        t.march(origin, r.dir, cell, free_len, free_level, r.state);
        if (r.hit) t.point(origin + r.dir * r.len, occ_level, Occupancy::Occupied);
      }
    }
    expectSameTree(t.ray, t.keyed);
    const auto& ps = t.ray.stats();
    const auto& rs = t.ref.stats();
    EXPECT_EQ(ps.occupied_leaves, rs.occupied_leaves);
    EXPECT_EQ(ps.free_leaves, rs.free_leaves);
    EXPECT_EQ(ps.inner_nodes, rs.inner_nodes);
  }
}

class OctreeEquivalence : public ::testing::TestWithParam<std::uint64_t> {};

// Arbitrary interleavings of point updates at arbitrary levels and states.
TEST_P(OctreeEquivalence, RandomPointUpdateReplay) {
  OccupancyOctree pooled(worldBox(), kVoxMin);
  reference::ReferenceOctree ref(worldBox(), kVoxMin);
  ASSERT_EQ(pooled.maxDepth(), ref.maxDepth());

  Rng rng(GetParam());
  for (int step = 0; step < 1500; ++step) {
    const Vec3 p = rng.uniformInBox({-kHalf - 0.5, -kHalf - 0.5, -kHalf - 0.5},
                                    {kHalf + 0.5, kHalf + 0.5, kHalf + 0.5});
    const int level = rng.uniformInt(0, pooled.maxDepth());
    const Occupancy state = rng.chance(0.3) ? Occupancy::Occupied : Occupancy::Free;
    pooled.updateCell(p, level, state);
    ref.updateCell(p, level, state);
    // Read the cached counts between updates: the lazy reduction must be
    // invalidated along exactly the paths each update touched.
    if (step % 150 == 149) expectCellCounts(pooled, ref);
  }
  Rng probe(GetParam() ^ 0x9E3779B97F4A7C15ULL);
  expectEquivalent(pooled, ref, probe, pooled.maxDepth());
}

// The batched path against the seed's sequential per-cell descents, on the
// exact update pattern the OctoMap kernel produces: per ray, a same-level
// free-cell batch followed by a finer occupied endpoint.
TEST_P(OctreeEquivalence, BatchedRayInsertionMatchesSeedPerCell) {
  OccupancyOctree pooled(worldBox(), kVoxMin);
  reference::ReferenceOctree ref(worldBox(), kVoxMin);

  Rng rng(GetParam() * 2654435761ULL + 17);
  std::vector<std::uint64_t> keys;
  for (int frame = 0; frame < 12; ++frame) {
    const Vec3 origin = rng.uniformInBox({-3.0, -3.0, -1.0}, {3.0, 3.0, 1.0});
    const int occ_level = rng.uniformInt(0, 1);
    const int free_level = rng.uniformInt(occ_level, 3);
    const double cell = pooled.cellSizeAtLevel(free_level);
    for (int rayi = 0; rayi < 40; ++rayi) {
      const Vec3 dir = randomDirection(rng);
      const double len = rng.uniform(0.5, 6.0);
      const bool hit = rng.chance(0.5);
      const Vec3 end = origin + dir * len;

      // Seed path: one root-to-leaf descent per marched cell, in ray order.
      const double free_len = hit ? std::max(0.0, len - cell) : len;
      for (double t = cell * 0.5; t < free_len; t += cell)
        ref.updateCell(origin + dir * t, free_level, Occupancy::Free);
      if (hit) ref.updateCell(end, occ_level, Occupancy::Occupied);

      // Pooled path: the kernel's per-ray Morton batch.
      keys.clear();
      for (double t = cell * 0.5; t < free_len; t += cell) {
        const Vec3 p = origin + dir * t;
        if (pooled.rootBox().contains(p)) keys.push_back(pooled.cellKey(p, free_level));
      }
      pooled.updateCells(keys, free_level, Occupancy::Free);
      if (hit) pooled.updateCell(end, occ_level, Occupancy::Occupied);
    }
    expectCellCounts(pooled, ref);
  }
  Rng probe(GetParam() + 3);
  expectEquivalent(pooled, ref, probe, pooled.maxDepth());
}

// The fused ray walk against the keyed batch it is defined as and against
// the seed's per-cell descents: random frames (rays leaving and starting
// outside the root box, frames swept twice, Free and Occupied marches at
// levels 0-3), samples exactly on ladder center planes, degenerate lengths,
// and a root far from the origin, where cellKey()'s center sums round.
TEST_P(OctreeEquivalence, RayWalkMatchesKeyedBatch) {
  // Ladder ties. With dir.x = 0.5 and origin.x = -0.5 * t_k the k-th sample
  // lands exactly on the root center plane x = 0 (the p == c tie, which
  // cellKey() sends to the upper child) right after samples below it, and
  // is the ray's last sample. The other coordinates sit on a center plane,
  // at -0.0 (kept -0.0 by a -0.0 direction component), or off-plane.
  {
    RayTrees ties(worldBox(), kVoxMin);
    Rng rng(GetParam() + 31);
    for (int level = 0; level <= 3; ++level) {
      const double step = ties.ray.cellSizeAtLevel(level);
      for (int k = 1; k < 6; ++k) {
        double tk = step * 0.5;
        for (int i = 0; i < k; ++i) tk += step;
        for (int axis = 0; axis < 3; ++axis) {
          for (int variant = 0; variant < 3; ++variant) {
            const double other = variant == 0 ? 0.0 : variant == 1 ? -0.0 : rng.uniform(-4.0, 4.0);
            const double other_dir = variant == 1 ? -0.0 : 0.0;
            double origin[3] = {other, other, other};
            double dir[3] = {other_dir, other_dir, other_dir};
            origin[axis] = -0.5 * tk;
            dir[axis] = 0.5;
            const Occupancy state = (k + axis) % 4 == 0 ? Occupancy::Occupied : Occupancy::Free;
            ties.march({origin[0], origin[1], origin[2]}, {dir[0], dir[1], dir[2]}, step,
                       tk + step * 0.5, level, state);
          }
        }
      }
    }
    expectSameTree(ties.ray, ties.keyed);
    expectCellCounts(ties.ray, ties.ref);
    Rng probe(GetParam() + 37);
    expectEquivalent(ties.ray, ties.ref, probe, ties.ray.maxDepth());
  }

  // Random frames, then rays too short to sample (length <= step/2).
  RayTrees trees(worldBox(), kVoxMin);
  Rng rng(GetParam() * 2654435761ULL + 29);
  sweepRandomFrames(trees, rng, {0.0, 0.0, 0.0}, kHalf + 3.0, 12);
  const auto before = trees.ray.stats();
  for (int level = 0; level <= 3; ++level) {
    const double step = trees.ray.cellSizeAtLevel(level);
    for (const double len : {step * 0.5, 0.0, -step})
      trees.march({0.1, 0.2, 0.3}, randomDirection(rng), step, len, level, Occupancy::Occupied);
    // A step that never advances marks nothing (and must not hang).
    for (const double bad_step : {0.0, -step, std::nan("")})
      trees.ray.updateRay({0.1, 0.2, 0.3}, randomDirection(rng), bad_step, 5.0, level,
                          Occupancy::Occupied);
  }
  EXPECT_EQ(trees.ray.stats().occupied_leaves, before.occupied_leaves);
  EXPECT_EQ(trees.ray.stats().inner_nodes, before.inner_nodes);
  expectSameTree(trees.ray, trees.keyed);
  Rng probe_a(GetParam() + 41);
  expectEquivalent(trees.ray, trees.ref, probe_a, trees.ray.maxDepth());
  Rng probe_b(GetParam() + 41);
  expectEquivalent(trees.keyed, trees.ref, probe_b, trees.keyed.maxDepth());

  // A root 7.3e14 m from the origin: the ladder's center sums round by up
  // to half a 0.125 m ulp per rung, so cellKey()'s cells are not the
  // geometric ones. The walk must reproduce the ladder, not the geometry.
  // (Only the reference's counters are compared here: its collection
  // deduplicates by grid snap, and at this offset distinct tree cells can
  // snap onto one grid cell.)
  const Vec3 far{7.3e14, -7.3e14, 7.3e14};
  const Vec3 h{kHalf, kHalf, kHalf};
  RayTrees offset({far - h, far + h}, kVoxMin);
  Rng far_rng(GetParam() + 43);
  sweepRandomFrames(offset, far_rng, far, kHalf, 8);
}

// Order-independence of a same-level/same-state batch: Morton-sorted batch
// application must equal per-cell application in the original order.
TEST_P(OctreeEquivalence, BatchIsOrderIndependent) {
  OccupancyOctree batched(worldBox(), kVoxMin);
  OccupancyOctree sequential(worldBox(), kVoxMin);
  reference::ReferenceOctree ref(worldBox(), kVoxMin);

  Rng rng(GetParam() + 101);
  std::vector<std::uint64_t> keys;
  for (int round = 0; round < 30; ++round) {
    const int level = rng.uniformInt(0, 3);
    const Occupancy state = rng.chance(0.25) ? Occupancy::Occupied : Occupancy::Free;
    std::vector<Vec3> points;
    for (int i = 0, count = rng.uniformInt(1, 60); i < count; ++i)
      points.push_back(rng.uniformInBox({-kHalf + 0.01, -kHalf + 0.01, -kHalf + 0.01},
                                        {kHalf - 0.01, kHalf - 0.01, kHalf - 0.01}));
    keys.clear();
    for (const Vec3& p : points) {
      sequential.updateCell(p, level, state);
      ref.updateCell(p, level, state);
      keys.push_back(batched.cellKey(p, level));
    }
    batched.updateCells(keys, level, state);
  }
  Rng probe_a(GetParam() + 7);
  expectEquivalent(batched, ref, probe_a, batched.maxDepth());
  Rng probe_b(GetParam() + 7);
  expectEquivalent(sequential, ref, probe_b, sequential.maxDepth());
}

// Full-kernel check: insertPointCloud (which batches internally) against a
// hand-rolled seed-style insertion into the reference tree.
TEST_P(OctreeEquivalence, InsertPointCloudMatchesReference) {
  OccupancyOctree pooled(worldBox(), kVoxMin);
  reference::ReferenceOctree ref(worldBox(), kVoxMin);

  Rng rng(GetParam() + 555);
  PointCloud cloud;
  cloud.origin = {0.0, 0.0, 0.0};
  cloud.max_range = 6.0;
  for (int i = 0; i < 60; ++i) {
    const Vec3 dir = randomDirection(rng);
    if (rng.chance(0.6)) {
      cloud.points.push_back(cloud.origin + dir * rng.uniform(0.5, 5.5));
    } else {
      cloud.free_rays.push_back({dir, rng.uniform(0.5, 6.0)});
    }
  }
  cloud.source_rays = 60;

  OctomapInsertParams params;
  params.precision = 0.3;
  params.volume_budget = 1e9;  // integrate everything: no drop ordering effects
  params.free_resolution_floor = 0.6;
  params.free_resolution_ceiling = 1.2;
  const auto report = insertPointCloud(pooled, cloud, params, {});
  EXPECT_GT(report.rays_integrated, 0u);

  // Seed-style reference insertion replicating the kernel's precision
  // snapping and ray order (sorted by distance from the origin, since no
  // trajectory is passed).
  const double precision = ref.snapPrecision(params.precision);
  const int level = ref.levelForPrecision(precision);
  const int free_level = ref.levelForPrecision(
      std::clamp(precision, params.free_resolution_floor, params.free_resolution_ceiling));
  struct RefRay {
    Vec3 end;
    double len;
    bool hit;
  };
  std::vector<RefRay> rays;
  for (const auto& p : cloud.points) rays.push_back({p, p.dist(cloud.origin), true});
  for (const auto& fr : cloud.free_rays)
    rays.push_back({cloud.origin + fr.direction * fr.range, fr.range, false});
  std::sort(rays.begin(), rays.end(),
            [](const RefRay& a, const RefRay& b) { return a.len < b.len; });
  const double cell = ref.cellSizeAtLevel(free_level);
  for (const auto& r : rays) {
    const Vec3 d = r.end - cloud.origin;
    const double len = d.norm();
    if (len > 1e-9) {
      const Vec3 dir = d / len;
      const double free_len = r.hit ? std::max(0.0, len - cell) : len;
      for (double t = cell * 0.5; t < free_len; t += cell)
        ref.updateCell(cloud.origin + dir * t, free_level, Occupancy::Free);
    }
    if (r.hit) ref.updateCell(r.end, level, Occupancy::Occupied);
  }

  Rng probe(GetParam() + 9);
  expectEquivalent(pooled, ref, probe, pooled.maxDepth());
}

// --- Settled-span sweep integration -----------------------------------------
//
// insertPointCloud classifies each kept ray's live window (liveSpan) on the
// fork-join pool once a sweep keeps kForkGrain = 512 rays, then walks only
// those windows. These cases hold it to the serial kernel
// (reference_sweep.h): every sample of every kept ray, in threat order.

constexpr double kSweepHalf = 19.2;  // 128^3 fine voxels: room for 15 m rays

/// A sensor sweep from `origin`: 60% hits 2-14 m out, the rest free rays of
/// 15 m, all counted as source rays.
PointCloud randomSweep(Rng& rng, const Vec3& origin, int rays) {
  PointCloud cloud;
  cloud.origin = origin;
  cloud.max_range = 15.0;
  for (int i = 0; i < rays; ++i) {
    const Vec3 dir = randomDirection(rng);
    if (rng.chance(0.6)) {
      cloud.points.push_back(origin + dir * rng.uniform(2.0, 14.0));
    } else {
      cloud.free_rays.push_back({dir, 15.0});
    }
  }
  cloud.source_rays = static_cast<std::size_t>(rays);
  return cloud;
}

/// The volume the kernel charges for integrating every ray of `cloud`.
double sweepVolume(const PointCloud& cloud) {
  const double share = 4.0 * std::numbers::pi / (3.0 * static_cast<double>(cloud.source_rays));
  double volume = 0.0;
  for (const auto& p : cloud.points) volume += share * std::pow(p.dist(cloud.origin), 3);
  for (const auto& fr : cloud.free_rays) volume += share * std::pow(fr.range, 3);
  return volume;
}

void expectSameReport(const OctomapInsertReport& a, const OctomapInsertReport& b) {
  EXPECT_EQ(a.ray_steps, b.ray_steps);
  EXPECT_EQ(a.rays_integrated, b.rays_integrated);
  EXPECT_EQ(a.rays_dropped, b.rays_dropped);
  EXPECT_EQ(a.points_inserted, b.points_inserted);
  EXPECT_EQ(a.volume_ingested, b.volume_ingested);
}

/// expectSameTree plus query() and queryAtLevel() at every level over a grid
/// offset from the cell boundaries.
void expectSameAnswers(const OccupancyOctree& a, const OccupancyOctree& b) {
  expectSameTree(a, b);
  const Aabb box = a.rootBox();
  std::size_t mismatches = 0;
  for (double x = box.lo.x + 0.37; x < box.hi.x; x += 1.7)
    for (double y = box.lo.y + 0.41; y < box.hi.y; y += 1.7)
      for (double z = box.lo.z + 0.43; z < box.hi.z; z += 1.7) {
        const Vec3 p{x, y, z};
        if (a.query(p) != b.query(p)) ++mismatches;
        for (int level = 0; level <= a.maxDepth(); ++level)
          if (a.queryAtLevel(p, level) != b.queryAtLevel(p, level)) ++mismatches;
      }
  EXPECT_EQ(mismatches, 0u);
}

/// A flight path through the sweep region: the threat keys' trajectory.
const std::vector<Vec3> kFlightPath = {
    {-12.0, -2.0, 0.0}, {-4.0, 1.0, 1.0}, {4.0, -1.0, 0.0}, {12.0, 2.0, 1.0}};

// Sweeps of 640 rays into a tree grown by earlier sweeps, against the serial
// kernel: at precision 0.3 (occupied level 0, free level 2), at 4.8
// (occupied level 4, coarser than free level 3), and switching precision
// every sweep as the governor does (so a sweep meets free cells another
// level wrote). After three pre-populating sweeps under an unlimited
// budget, the budget keeps about 90% of each sweep's volume, and every
// third sweep is immediately re-inserted.
TEST_P(OctreeEquivalence, SettledSpanInsertMatchesSerialWalk) {
  const std::vector<std::vector<double>> schedules = {{0.3}, {4.8}, {0.3, 4.8, 0.6, 2.4}};
  for (const auto& precisions : schedules) {
    SCOPED_TRACE(precisions.front());
    OccupancyOctree kernel(worldBox(kSweepHalf), kVoxMin);
    OccupancyOctree serial(worldBox(kSweepHalf), kVoxMin);
    Rng rng(GetParam() * 31 + 5);
    OctomapInsertParams params;
    for (int sweep = 0; sweep < 8; ++sweep) {
      const PointCloud cloud =
          randomSweep(rng, rng.uniformInBox({-10.0, -3.0, -1.0}, {10.0, 3.0, 2.0}), 640);
      params.precision = precisions[static_cast<std::size_t>(sweep) % precisions.size()];
      params.volume_budget = sweep < 3 ? 1e12 : 0.9 * sweepVolume(cloud);
      for (int pass = 0; pass < (sweep % 3 == 2 ? 2 : 1); ++pass) {
        const auto got = insertPointCloud(kernel, cloud, params, kFlightPath);
        const auto want = reference::insertSweep(serial, cloud, params, kFlightPath);
        ASSERT_GE(got.rays_integrated, 512u) << "sweep " << sweep << " stays below the grain";
        expectSameReport(got, want);
        expectSameAnswers(kernel, serial);
      }
    }
  }
}

// Once a sweep is integrated, every cell its marches target is settled: no
// ray of it has a live window, and inserting it again changes nothing.
TEST_P(OctreeEquivalence, SettledSpanReinsertIsInert) {
  OccupancyOctree tree(worldBox(kSweepHalf), kVoxMin);
  Rng rng(GetParam() * 17 + 3);
  OctomapInsertParams params;
  params.volume_budget = 1e12;
  for (int sweep = 0; sweep < 2; ++sweep) {
    const Vec3 origin = rng.uniformInBox({-8.0, -3.0, -1.0}, {8.0, 3.0, 2.0});
    insertPointCloud(tree, randomSweep(rng, origin, 600), params, kFlightPath);
  }
  const PointCloud cloud = randomSweep(rng, {1.0, 0.5, 0.5}, 600);
  insertPointCloud(tree, cloud, params, kFlightPath);

  const double precision = tree.snapPrecision(params.precision);
  const int free_level = tree.levelForPrecision(std::clamp(
      precision, params.free_resolution_floor, params.free_resolution_ceiling));
  const double cell = tree.cellSizeAtLevel(free_level);
  std::size_t live = 0;
  for (const auto& r : reference::threatOrder(cloud, kFlightPath)) {
    const Vec3 d = r.end - cloud.origin;
    const double len = d.norm();
    const double free_len = r.hit ? std::max(0.0, len - cell) : len;
    if (!tree.liveSpan(cloud.origin, d / len, cell, free_len, free_level).empty()) ++live;
  }
  EXPECT_EQ(live, 0u);

  const OccupancyOctree before = tree;
  insertPointCloud(tree, cloud, params, kFlightPath);
  expectSameAnswers(tree, before);
}

// Ray by ray: the march restricted to its liveSpan() window, and the march
// over an explicit [0, inf) window, both equal the plain updateRay. Rays
// reach past the root box, and hit endpoints interleave occupied writes.
TEST_P(OctreeEquivalence, WindowedRayMatchesFullMarch) {
  OccupancyOctree full(worldBox(), kVoxMin);
  OccupancyOctree explicit_full(worldBox(), kVoxMin);
  OccupancyOctree windowed(worldBox(), kVoxMin);
  Rng rng(GetParam() * 13 + 11);
  const SampleWindow everything{0, std::numeric_limits<std::size_t>::max()};
  for (int frame = 0; frame < 12; ++frame) {
    const Vec3 origin = rng.uniformInBox({-3.0, -3.0, -3.0}, {3.0, 3.0, 3.0});
    const int occ_level = rng.uniformInt(0, 2);
    const int free_level = rng.uniformInt(0, 3);
    const double cell = full.cellSizeAtLevel(free_level);
    for (int ray = 0; ray < 60; ++ray) {
      const Vec3 dir = randomDirection(rng);
      const double len = rng.uniform(0.5, 9.0);
      full.updateRay(origin, dir, cell, len, free_level, Occupancy::Free);
      explicit_full.updateRay(origin, dir, cell, len, free_level, Occupancy::Free, everything);
      windowed.updateRay(origin, dir, cell, len, free_level, Occupancy::Free,
                         windowed.liveSpan(origin, dir, cell, len, free_level));
      if (rng.chance(0.5)) {
        const Vec3 end = origin + dir * len;
        for (OccupancyOctree* tree : {&full, &explicit_full, &windowed})
          tree->updateCell(end, occ_level, Occupancy::Occupied);
      }
    }
    expectSameAnswers(explicit_full, full);
    expectSameAnswers(windowed, full);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, OctreeEquivalence,
                         ::testing::Values(1u, 2u, 7u, 42u, 1234u, 99991u));

}  // namespace
}  // namespace roborun::perception
