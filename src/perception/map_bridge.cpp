#include "perception/map_bridge.h"

#include <algorithm>
#include <cmath>
#include <numbers>

namespace roborun::perception {

BridgeResult buildPlannerMap(const OccupancyOctree& tree, const geom::Vec3& position,
                             const BridgeParams& params) {
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

  return result;
}

}  // namespace roborun::perception
