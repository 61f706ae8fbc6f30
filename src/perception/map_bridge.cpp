#include "perception/map_bridge.h"

#include <algorithm>
#include <cmath>
#include <numbers>

namespace roborun::perception {

BridgeResult buildPlannerMap(const OccupancyOctree& tree, const geom::Vec3& position,
                             const BridgeParams& params, const BridgeDelta* delta) {
  BridgeResult result;
  const double precision = tree.snapPrecision(params.precision);
  const int level = tree.levelForPrecision(precision);
  result.msg.map = PlannerMap(precision, params.inflation);

  // The volume budget bounds the known region communicated: a sphere around
  // the MAV whose volume equals the budget. Everything beyond its radius is
  // pruned — the "select higher level trees in sorted order" operator.
  // Because the budget keeps every voxel inside the sphere and drops every
  // voxel beyond it, a one-pass radius filter communicates exactly the
  // nearest-sorted prefix without paying for a distance sort.
  const double radius =
      std::cbrt(3.0 * params.volume_budget / (4.0 * std::numbers::pi));

  const double mapped = tree.stats().mappedVolume();
  result.report.region_volume = std::min(mapped, params.volume_budget);
  result.msg.region_volume = result.report.region_volume;

  // Level-bounded occupied walk culled to the sphere: subtrees wholly
  // outside it are never entered, so the walk costs what the map keeps.
  // The exact center-distance filter then trims the walk's conservative
  // (box-distance) cut to the same voxels, in the same order, as filtering
  // the whole-map collection.
  const auto voxels = tree.collectOccupied(level, position, radius);
  result.msg.map.reserve(voxels.size());
  for (const auto& v : voxels) {
    if (v.center.dist(position) > radius) continue;
    result.msg.map.addVoxel(v);
    ++result.report.voxels_sent;
  }
  // Work: every coarsened node of the whole map is visited once during
  // pruning/serialization in the modeled bridge; dropped nodes still cost
  // their visit. The count comes from the tree's cached reduction.
  result.report.nodes = tree.occupiedCellCount(level);
  result.report.voxels_dropped = result.report.nodes - result.report.voxels_sent;
  result.report.cull_radius = radius;

  // Dirty region vs the previous epoch's map. The map is a pure function of
  // (octree, position, radius, precision, inflation): with matching knobs it
  // can differ from last epoch's map only where the octree changed since
  // (delta->octree_touched, already cell-covering) and — if the cull sphere
  // moved or resized — near the sphere boundaries, covered conservatively by
  // both spheres' boxes. Without a usable delta the conservative
  // "everything" default set by the PlannerMap constructor stands.
  if (delta != nullptr && delta->prev_radius >= 0.0 &&
      delta->prev_precision == precision && delta->prev_inflation == params.inflation) {
    geom::Aabb dirty = delta->octree_touched;
    if (!dirty.isEmpty()) {
      // octree_touched covers the *written* octree cells; the planner map
      // re-bins occupancy at the (possibly coarser) bridge precision, so a
      // flipped map cell can extend up to one map cell beyond the touched
      // region. Widen to the map-cell granularity to keep the dirty
      // contract (full extents of every changed planner-map cell).
      dirty.lo = dirty.lo - geom::Vec3{precision, precision, precision};
      dirty.hi = dirty.hi + geom::Vec3{precision, precision, precision};
    }
    if (!(position == delta->prev_position) || radius != delta->prev_radius) {
      const double pad = precision;
      for (const auto& [center, r] :
           {std::pair{position, radius}, std::pair{delta->prev_position, delta->prev_radius}}) {
        dirty.merge(center - geom::Vec3{r + pad, r + pad, r + pad});
        dirty.merge(center + geom::Vec3{r + pad, r + pad, r + pad});
      }
    }
    result.msg.map.setDirtyBounds(dirty);
  }
  return result;
}

}  // namespace roborun::perception
