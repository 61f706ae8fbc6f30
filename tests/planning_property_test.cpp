// Path-validity property sweep for the pooled lattice planner, across the
// same environment grid `fleet_runner --grid small` drives
// (env::evaluationSuite with env::smallSuiteKnobs()). For every environment a planner-map window
// is sampled from the ground-truth world, and every path the planner
// returns must satisfy the invariants the rest of the stack assumes:
//
//   * endpoints: path.front() is exactly the requested start, path.back()
//     exactly the requested goal, and the final lattice cell lies within
//     max(goal_tolerance, cell) of the goal;
//   * collision-freedom: every interior waypoint is free under the map's
//     inflated occupancy query (the same query the search itself uses);
//   * lattice continuity: consecutive lattice waypoints are exactly one
//     26-neighborhood step apart;
//   * reported cost: path_cost equals the summed segment lengths.
//
// Registered under tier2 (the sweep samples ~10^5 world cells per env).
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <vector>

#include "env/env_gen.h"
#include "env/suite.h"
#include "geom/rng.h"
#include "perception/planner_map.h"
#include "planning/astar.h"

namespace roborun::planning {
namespace {

using geom::Aabb;
using geom::Rng;
using geom::Vec3;
using perception::PlannerMap;

constexpr double kPitch = 0.6;
constexpr double kInflation = 0.45;

/// Sample the ground-truth world into a planner-map window (the same shape
/// the perception bridge would deliver, built directly for determinism).
PlannerMap sampleWindow(const env::World& world, const Aabb& window) {
  PlannerMap map(kPitch, kInflation);
  for (double z = window.lo.z + kPitch * 0.5; z < window.hi.z; z += kPitch)
    for (double y = window.lo.y + kPitch * 0.5; y < window.hi.y; y += kPitch)
      for (double x = window.lo.x + kPitch * 0.5; x < window.hi.x; x += kPitch) {
        const Vec3 c{x, y, z};
        if (world.occupied(c)) map.addVoxel({c, kPitch});
      }
  return map;
}

Vec3 freePoint(const PlannerMap& map, const Aabb& box, Rng& rng) {
  for (int attempt = 0; attempt < 200; ++attempt) {
    const Vec3 p = rng.uniformInBox(box.lo, box.hi);
    if (!map.occupiedPoint(p)) return p;
  }
  return box.center();
}

bool bitEqual(double a, double b) { return std::memcmp(&a, &b, sizeof(double)) == 0; }

struct LatticeKey {
  int x, y, z;
};
LatticeKey keyOf(const Vec3& p, double cell) {
  return {static_cast<int>(std::floor(p.x / cell)), static_cast<int>(std::floor(p.y / cell)),
          static_cast<int>(std::floor(p.z / cell))};
}

TEST(PlanningPropertyTest, PathInvariantsAcrossSuiteEnvGrid) {
  const std::vector<env::EnvSpec> specs = env::evaluationSuite(42, env::smallSuiteKnobs());
  ASSERT_FALSE(specs.empty());

  std::size_t found_paths = 0;
  // Every third spec keeps the sweep inside the tier2 budget while still
  // covering all densities/spreads/goal distances.
  for (std::size_t si = 0; si < specs.size(); si += 3) {
    const env::Environment environment = env::generateEnvironment(specs[si]);
    const Aabb window{{0.0, -28.0, 0.0}, {78.0, 28.0, 8.4}};
    const PlannerMap map = sampleWindow(*environment.world, window);

    AStarParams params;
    params.bounds = Aabb{{window.lo.x + 1.0, window.lo.y + 1.0, 0.3},
                         {window.hi.x - 1.0, window.hi.y - 1.0, window.hi.z - 0.3}};
    params.cell = 0.0;  // snapped map precision (kPitch)
    params.goal_tolerance = 2.0;
    params.max_expansions = 60000;
    const double cell = map.precision();

    Rng rng(specs[si].seed * 1099511628211ULL + 17);
    PlannerArena arena;
    for (int pair = 0; pair < 3; ++pair) {
      const Vec3 start = freePoint(map, {{2, -20, 1}, {10, 20, 6}}, rng);
      const Vec3 goal = freePoint(map, {{60, -20, 1}, {74, 20, 6}}, rng);
      const AStarResult result = planPathAStar(map, start, goal, params, arena);
      if (!result.report.found) continue;
      ++found_paths;
      const auto& path = result.path;
      ASSERT_GE(path.size(), 2u);

      // Endpoints are the caller's exact start and goal.
      EXPECT_TRUE(bitEqual(path.front().x, start.x) && bitEqual(path.front().y, start.y) &&
                  bitEqual(path.front().z, start.z));
      EXPECT_TRUE(bitEqual(path.back().x, goal.x) && bitEqual(path.back().y, goal.y) &&
                  bitEqual(path.back().z, goal.z));
      // The accepted lattice cell is within the (pitch-clamped) tolerance.
      EXPECT_LE(path[path.size() - 2].dist(goal),
                std::max(params.goal_tolerance, cell) + 1e-9);

      double recomputed = 0.0;
      for (std::size_t i = 1; i < path.size(); ++i) {
        recomputed += path[i].dist(path[i - 1]);
        // Interior waypoints are collision-free under the inflated query
        // and inside the search bounds.
        if (i + 1 < path.size()) {
          EXPECT_FALSE(map.occupiedPoint(path[i]))
              << "env " << si << " waypoint " << i << " occupied";
          EXPECT_TRUE(params.bounds.contains(path[i]));
        }
      }
      EXPECT_DOUBLE_EQ(result.report.path_cost, recomputed);

      // Lattice continuity: each hop is one 26-neighborhood step. path[0]
      // was overwritten with the start, so anchor at the start's cell.
      LatticeKey prev = keyOf(start, cell);
      for (std::size_t i = 1; i + 1 < path.size(); ++i) {
        const LatticeKey k = keyOf(path[i], cell);
        const int dx = std::abs(k.x - prev.x);
        const int dy = std::abs(k.y - prev.y);
        const int dz = std::abs(k.z - prev.z);
        EXPECT_LE(std::max({dx, dy, dz}), 1) << "env " << si << " hop " << i;
        EXPECT_GT(dx + dy + dz, 0) << "env " << si << " duplicate waypoint " << i;
        prev = k;
      }
    }
  }
  // The sweep must actually produce paths, or the invariants checked
  // nothing.
  EXPECT_GT(found_paths, 5u);
}

}  // namespace
}  // namespace roborun::planning
