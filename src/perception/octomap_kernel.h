// OctoMap insertion kernel with RoboRun's perception-stage operators.
//
// Precision operator (paper Sec. III-B): the raytracer step size — free and
// occupied cells are written at the tree level matching the precision knob.
// Volume operator: rays are sorted by their distance to the MAV's planned
// trajectory (closer space is more threatening) and integrated one by one
// until the ingested volume exceeds the budget; the rest of the sweep is
// dropped. Work units (ray-march steps, deduplicated by the voxel count the
// swept region can contain) feed the latency model.
//
// A sweep of at least 512 rays computes its threat keys, and each kept
// ray's live window (OccupancyOctree::liveSpan), on the fork-join pool
// (fork_join.h); the tree writes stay one serial walk in threat order, so
// the tree and the report are those of the serial kernel, bit for bit.
#pragma once

#include <span>

#include "geom/aabb.h"
#include "geom/vec3.h"
#include "perception/octree.h"
#include "perception/point_cloud.h"

namespace roborun::perception {

struct OctomapInsertParams {
  double precision = 0.3;        ///< m; raytracer step / voxel size knob
  double volume_budget = 46000;  ///< m^3; max volume added per sweep
  /// Free-space cells are written no finer than the floor (memory: tree
  /// size stays proportional to obstacle surface, not corridor volume) and
  /// no coarser than the ceiling (safety: a single ray through a huge cell
  /// must not certify hundreds of cubic meters of unseen space as free —
  /// the known-free horizon feeds the velocity governor). Knob semantics
  /// are unchanged: modeled latency is still charged at `precision`.
  double free_resolution_floor = 1.2;
  double free_resolution_ceiling = 2.4;
};

struct OctomapInsertReport {
  std::size_t ray_steps = 0;        ///< modeled voxel-update work units
  std::size_t rays_integrated = 0;  ///< rays that fit the volume budget
  std::size_t rays_dropped = 0;     ///< rays discarded by the volume operator
  std::size_t points_inserted = 0;  ///< occupied endpoints written
  double volume_ingested = 0.0;     ///< m^3 actually added this sweep
  /// Conservative cover of every tree cell this sweep may have changed
  /// (integrated-ray extents widened by the written cell size; empty() when
  /// nothing was integrated). Its one consumer is the decision engine's
  /// keyed profile cache (NavigationPipeline::publishPerception forwards it),
  /// which reuses visibility samples the change cannot have reached.
  geom::Aabb touched = geom::Aabb::empty();
};

/// Insert one (already precision-downsampled) point cloud into the map.
/// `trajectory` is the MAV's current planned path (may be empty: sorting
/// falls back to distance from the sensor origin).
OctomapInsertReport insertPointCloud(OccupancyOctree& tree, const PointCloud& cloud,
                                     const OctomapInsertParams& params,
                                     std::span<const geom::Vec3> trajectory);

}  // namespace roborun::perception
