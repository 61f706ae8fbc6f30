// RRT* piecewise planner (the paper uses OMPL's RRT* for its asymptotic
// optimality; this is our from-scratch equivalent).
//
// Two RoboRun knobs act here:
//  - planning precision: the collision raytracer's march step (coarser step
//    -> fewer checks -> lower latency, at the cost of optimism);
//  - planner volume: the search is stopped once the explored space volume
//    exceeds the budget ("our volume monitor stops the search upon
//    exceeding the threshold").
// Work units (iterations, collision-check steps) feed the latency model.
#pragma once

#include <cstddef>
#include <vector>

#include "geom/aabb.h"
#include "geom/rng.h"
#include "geom/vec3.h"
#include "perception/planner_map.h"
#include "planning/planner_arena.h"

namespace roborun::planning {

using geom::Aabb;
using geom::Vec3;

struct RrtParams {
  Aabb bounds;                       ///< sampling region
  double step = 4.0;                 ///< m; max edge extension
  double goal_bias = 0.12;           ///< fraction of samples drawn at the goal
  double line_bias = 0.45;           ///< fraction sampled near the start-goal line
                                     ///< (narrow corridors are hopeless otherwise)
  double line_sigma = 9.0;           ///< m; lateral spread of line-biased samples
  double rewire_radius = 10.0;       ///< m; RRT* neighborhood
  std::size_t max_iterations = 3000;
  double volume_budget = 150000.0;   ///< m^3; explored-space cap (knob v2)
  double check_precision = 0.3;      ///< m; collision ray march step (knob p2)
  double goal_tolerance = 3.0;       ///< m; success radius around the goal
  std::size_t refine_iterations = 200;  ///< extra rewiring after first success
  /// Minimum progress (m closer to the goal than the start) for a partial
  /// path to count as usable when the goal itself is not reached. <= 0
  /// disables partial results.
  double partial_progress = 2.0;
};

struct RrtReport {
  std::size_t iterations = 0;
  std::size_t check_steps = 0;       ///< total raytracer march steps
  double explored_volume = 0.0;      ///< m^3 of space covered by the search
  bool found = false;                ///< a usable path was returned
  bool partial = false;              ///< the path makes progress but does not
                                     ///< reach the goal (best-effort recovery)
  bool volume_exhausted = false;     ///< stopped by the volume operator
  double path_cost = 0.0;            ///< m; tree cost of the returned path
};

struct RrtResult {
  std::vector<Vec3> path;  ///< start ... goal waypoints (empty on failure)
  RrtReport report;
};

/// Plan a collision-free piecewise path from start to goal through the map.
RrtResult planPath(const perception::PlannerMap& map, const Vec3& start, const Vec3& goal,
                   const RrtParams& params, geom::Rng& rng);

/// As above, but with the tree, grid index and explored-volume set stored
/// in `arena` (planner_arena.h): reusing one arena across replans makes the
/// steady state allocation-free. Results are identical either way.
RrtResult planPath(const perception::PlannerMap& map, const Vec3& start, const Vec3& goal,
                   const RrtParams& params, geom::Rng& rng, PlannerArena& arena);

}  // namespace roborun::planning
