// Perception-to-planning bridge — the paper's second precision and volume
// operator pair.
//
// Precision: the occupancy tree is pruned/sub-sampled to the bridge
// precision p1 by collecting occupied subtrees coarsened to that level.
// Volume: only voxels whose centers lie within a sphere around the MAV are
// communicated, limiting the planner's knowledge of the world to the volume
// budget v1 (the sphere's radius is the one holding that volume). Keeping
// everything inside a radius is the nearest-first prefix without a sort.
// The whole map's coarsened node count drives the bridge compute latency;
// the sent voxels drive the comm payload of the serialized map message.
#pragma once

#include <span>

#include "geom/vec3.h"
#include "perception/octree.h"
#include "perception/planner_map.h"

namespace roborun::perception {

struct BridgeParams {
  double precision = 0.3;         ///< m; p1 (power-of-two multiple of voxmin)
  double volume_budget = 150000;  ///< m^3; v1, space communicated to planner
  double inflation = 0.7;         ///< m; robot-radius margin of the built map
};

struct BridgeReport {
  /// Occupied voxels of the whole map coarsened to the bridge precision
  /// (OccupancyOctree::occupiedCellCount): the modeled bridge work units.
  std::size_t nodes = 0;
  std::size_t voxels_sent = 0;     ///< occupied voxels communicated
  std::size_t voxels_dropped = 0;  ///< nodes - voxels_sent: beyond the volume budget
  double region_volume = 0.0;      ///< m^3 of known space communicated
  double cull_radius = 0.0;        ///< m; volume-budget sphere radius used
};

struct BridgeResult {
  PlannerMapMsg msg;
  BridgeReport report;
};

/// Build the planner's map view around `position`: a pure function of the
/// octree, the position and the knobs.
BridgeResult buildPlannerMap(const OccupancyOctree& tree, const geom::Vec3& position,
                             const BridgeParams& params);

}  // namespace roborun::perception
