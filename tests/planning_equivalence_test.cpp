// Old-vs-new planner equivalence: replay randomized environments, start/
// goal pairs and lattice pitches through the frozen seed A*
// (tests/reference_astar.h) and the pooled PlannerArena implementation, and
// demand identical observable behavior — the returned path bit-for-bit, the
// path cost, and the expansion/generation work counters. This is the
// contract that lets the arena refactor (and the occupancy memoization and
// heap pooling inside it) land without perturbing a single planner answer.
//
// Registered under tier2; the sanitizer CI lane runs it with
// -DROBORUN_SANITIZE=address;undefined to exercise the arena's stamped
// tables and pool recycling under ASan/UBSan.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <vector>

#include "geom/rng.h"
#include "perception/planner_map.h"
#include "planning/astar.h"
#include "reference_astar.h"

namespace roborun::planning {
namespace {

using geom::Aabb;
using geom::Rng;
using geom::Vec3;
using perception::PlannerMap;
using perception::VoxelBox;

bool bitEqual(double a, double b) { return std::memcmp(&a, &b, sizeof(double)) == 0; }

::testing::AssertionResult resultsIdentical(const AStarResult& a, const AStarResult& b,
                                            bool compare_work) {
  auto fail = [&](const char* what) {
    return ::testing::AssertionFailure() << "AStarResult differs in " << what;
  };
  if (a.report.found != b.report.found) return fail("found");
  if (!bitEqual(a.report.path_cost, b.report.path_cost)) return fail("path_cost");
  if (compare_work) {
    if (a.report.expansions != b.report.expansions) return fail("expansions");
    if (a.report.generated != b.report.generated) return fail("generated");
  }
  if (a.path.size() != b.path.size()) return fail("path.size");
  for (std::size_t i = 0; i < a.path.size(); ++i) {
    if (!bitEqual(a.path[i].x, b.path[i].x) || !bitEqual(a.path[i].y, b.path[i].y) ||
        !bitEqual(a.path[i].z, b.path[i].z))
      return fail("path waypoint");
  }
  return ::testing::AssertionSuccess();
}

/// A cluster of fine voxels around `center`.
void addCluster(std::vector<VoxelBox>& voxels, const Vec3& center, int radius_cells,
                double voxel, Rng& rng) {
  for (int dz = -radius_cells; dz <= radius_cells; ++dz)
    for (int dy = -radius_cells; dy <= radius_cells; ++dy)
      for (int dx = -radius_cells; dx <= radius_cells; ++dx) {
        if (!rng.chance(0.7)) continue;
        const VoxelBox v{{center.x + dx * voxel, center.y + dy * voxel, center.z + dz * voxel},
                         voxel};
        voxels.push_back(v);
      }
}

PlannerMap buildMap(const std::vector<VoxelBox>& voxels, double precision, double inflation) {
  PlannerMap map(precision, inflation);
  map.reserve(voxels.size());
  for (const auto& v : voxels) map.addVoxel(v);
  return map;
}

class PlanningEquivalence : public ::testing::TestWithParam<std::uint64_t> {};

// Randomized env x start/goal x cell-pitch replay: the pooled planner must
// be indistinguishable from the frozen seed, including its work counters.
TEST_P(PlanningEquivalence, RandomizedReplayMatchesReference) {
  Rng rng(GetParam() * 2654435761ULL + 5);
  // One arena survives the whole replay: stale state from any case leaking
  // into the next would show up as a mismatch here.
  PlannerArena arena;

  for (int world = 0; world < 3; ++world) {
    const double precision = rng.chance(0.5) ? 0.3 : 0.6;
    const double inflation = rng.chance(0.3) ? 0.0 : rng.uniform(0.3, 0.8);
    std::vector<VoxelBox> voxels;
    // Scattered clusters plus a partial wall: blocked, cluttered and open
    // regions in one map.
    for (int i = 0, n = rng.uniformInt(3, 8); i < n; ++i)
      addCluster(voxels, rng.uniformInBox({2, -14, 0}, {38, 14, 7}), rng.uniformInt(1, 3),
                 precision, rng);
    const double gap = rng.uniform(-10.0, 10.0);
    for (double y = -15; y <= 15; y += precision) {
      if (std::abs(y - gap) < 2.5) continue;
      for (double z = 0; z <= 8; z += precision)
        voxels.push_back({{20.0, y, z}, precision});
    }
    const PlannerMap map = buildMap(voxels, precision, inflation);

    for (int query = 0; query < 6; ++query) {
      AStarParams params;
      params.bounds = Aabb{{-4, -16, 0}, {44, 16, 9}};
      const double cells[] = {0.0, 0.75, 1.0, 1.5};  // 0 = snapped map precision
      params.cell = cells[rng.uniformInt(0, 3)];
      const double tols[] = {0.05, 1.0, 3.0};  // includes tolerance < pitch
      params.goal_tolerance = tols[rng.uniformInt(0, 2)];
      params.max_expansions = rng.chance(0.2) ? 1500 : 150000;
      const Vec3 start = rng.uniformInBox({-2, -12, 1}, {8, 12, 6});
      const Vec3 goal = rng.uniformInBox({30, -12, 1}, {42, 12, 6});

      const AStarResult ref = reference::planPathAStar(map, start, goal, params);
      const AStarResult pooled = planPathAStar(map, start, goal, params, arena);
      EXPECT_TRUE(resultsIdentical(ref, pooled, /*compare_work=*/true))
          << "world " << world << " query " << query;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, PlanningEquivalence,
                         ::testing::Values(1u, 2u, 7u, 42u, 1234u, 99991u));

}  // namespace
}  // namespace roborun::planning
