// Lattice A* planner — the deterministic alternative to RRT*.
//
// The paper picks OMPL's RRT* "due to its asymptotic optimality"; this
// planner is the one behind PlannerMode::AStar (the pipelined_astar
// workload flies it). Grid A* is complete and optimal *on its lattice* and
// fully deterministic, but its work scales with the volume of the searched
// lattice rather than with the sampled tree, and its paths hug the
// lattice.
//
// The search core runs over a PlannerArena (planner_arena.h): node
// bookkeeping lives in a generation-stamped contiguous pool keyed by packed
// lattice index instead of a per-call unordered_map, the open list is a
// reusable binary heap, and each cell's inflated-occupancy answer is
// memoized for the duration of the search. Results are bit-identical to the
// frozen seed implementation (tests/reference_astar.h, enforced by
// planning_equivalence_test) — the arena only changes where the search
// state lives, not what the search does.
#pragma once

#include <cstddef>
#include <vector>

#include "geom/aabb.h"
#include "geom/vec3.h"
#include "perception/planner_map.h"
#include "planning/planner_arena.h"

namespace roborun::planning {

struct AStarParams {
  geom::Aabb bounds;             ///< search region
  /// Lattice pitch in meters. <= 0 selects the planner map's own precision
  /// (map.precision()) — the pitch the bridge already snapped onto the
  /// power-of-two grid — so the planner never re-derives a lattice the map
  /// has one for. Callers that set an explicit pitch own its snapping.
  double cell = 1.5;
  /// Goal acceptance radius in meters. Values below the lattice pitch are
  /// effectively clamped UP to the pitch: the search accepts any cell whose
  /// center is within max(goal_tolerance, cell) of the goal, because a
  /// tolerance finer than the lattice can exclude every cell center and the
  /// search would otherwise exhaust its expansion budget next to the goal
  /// (see AStarTest.GoalToleranceBelowPitchStillTerminates).
  double goal_tolerance = 3.0;
  std::size_t max_expansions = 200000;
};

struct AStarReport {
  std::size_t expansions = 0;    ///< nodes popped from the open list
  std::size_t generated = 0;     ///< neighbor evaluations
  bool found = false;
  double path_cost = 0.0;        ///< m
};

struct AStarResult {
  std::vector<geom::Vec3> path;
  AStarReport report;
};

/// Plan on the lattice through the (inflated) planner map, using `arena`
/// for all search storage. Reusing one arena across calls makes steady-
/// state replanning allocation-free; the arena is reset (O(1)) on entry.
AStarResult planPathAStar(const perception::PlannerMap& map, const geom::Vec3& start,
                          const geom::Vec3& goal, const AStarParams& params,
                          PlannerArena& arena);

/// Convenience overload with a private single-use arena (the seed-shaped
/// entry point; identical results, pays one-time buffer growth per call).
AStarResult planPathAStar(const perception::PlannerMap& map, const geom::Vec3& start,
                          const geom::Vec3& goal, const AStarParams& params);

}  // namespace roborun::planning
