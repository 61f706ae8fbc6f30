// Reference sweep insertion — the serial octomap kernel as it stood before
// the settled-span split: threat keys from geom::distToPolyline, the volume
// operator's sort and budget, then per integrated ray one full updateRay
// march and the occupied endpoint, in threat order. Kept as the golden
// model for the settled-span equivalence test (octree_equivalence_test.cpp)
// and as the serial comparator of bench_perception_throughput's
// steady-state pass.
//
// Do NOT optimize this file: its value is that it walks every sample of
// every kept ray on one thread. Any divergence between it and
// perception::insertPointCloud (tree or report) is a bug in the kernel.
#pragma once

#include <algorithm>
#include <cmath>
#include <numbers>
#include <span>
#include <vector>

#include "geom/polyline.h"
#include "perception/octomap_kernel.h"
#include "perception/octree.h"
#include "perception/point_cloud.h"

namespace roborun::perception::reference {

/// One ray in the order insertSweep integrates it.
struct SweepRay {
  geom::Vec3 end;
  double length;
  bool hit;
  double sort_key;
};

/// The rays of `cloud` sorted by threat key: distance to `trajectory` (a
/// hit's endpoint, a free ray's midpoint), or the ray length without one.
inline std::vector<SweepRay> threatOrder(const PointCloud& cloud,
                                         std::span<const geom::Vec3> trajectory) {
  std::vector<SweepRay> rays;
  for (const auto& p : cloud.points) {
    const double len = p.dist(cloud.origin);
    rays.push_back({p, len, true, trajectory.empty() ? len : geom::distToPolyline(p, trajectory)});
  }
  for (const auto& fr : cloud.free_rays) {
    const geom::Vec3 mid = cloud.origin + fr.direction * (fr.range * 0.5);
    rays.push_back({cloud.origin + fr.direction * fr.range, fr.range, false,
                    trajectory.empty() ? fr.range : geom::distToPolyline(mid, trajectory)});
  }
  std::sort(rays.begin(), rays.end(),
            [](const SweepRay& a, const SweepRay& b) { return a.sort_key < b.sort_key; });
  return rays;
}

/// The serial kernel: same report, same tree writes, no windows.
inline OctomapInsertReport insertSweep(OccupancyOctree& tree, const PointCloud& cloud,
                                       const OctomapInsertParams& params,
                                       std::span<const geom::Vec3> trajectory) {
  OctomapInsertReport report;
  const double precision = tree.snapPrecision(params.precision);
  const int level = tree.levelForPrecision(precision);
  const int free_level = tree.levelForPrecision(std::clamp(
      precision, params.free_resolution_floor, params.free_resolution_ceiling));
  const double cell = tree.cellSizeAtLevel(free_level);
  const std::size_t total_rays = cloud.points.size() + cloud.free_rays.size();
  if (total_rays == 0) return report;
  const double source_rays = static_cast<double>(std::max(cloud.source_rays, total_rays));
  const double omega_share = 4.0 * std::numbers::pi / (3.0 * source_rays);

  for (const SweepRay& r : threatOrder(cloud, trajectory)) {
    const double ray_volume = omega_share * r.length * r.length * r.length;
    if (report.volume_ingested + ray_volume > params.volume_budget &&
        report.rays_integrated > 0) {
      ++report.rays_dropped;
      continue;
    }
    report.volume_ingested += ray_volume;
    ++report.rays_integrated;
    if (r.hit) ++report.points_inserted;
    report.touched.merge(cloud.origin);
    report.touched.merge(r.end);
    const geom::Vec3 d = r.end - cloud.origin;
    const double len = d.norm();
    if (len > 1e-9) {
      const double free_len = r.hit ? std::max(0.0, len - cell) : len;
      tree.updateRay(cloud.origin, d / len, cell, free_len, free_level, Occupancy::Free);
    }
    if (r.hit) tree.updateCell(r.end, level, Occupancy::Occupied);
    report.ray_steps += static_cast<std::size_t>(std::ceil(r.length / precision));
  }
  if (report.rays_integrated > 0) {
    const double pad = std::max(cell, tree.cellSizeAtLevel(level));
    report.touched.lo = report.touched.lo - geom::Vec3{pad, pad, pad};
    report.touched.hi = report.touched.hi + geom::Vec3{pad, pad, pad};
  }
  const double voxel_cap =
      std::max(1.0, report.volume_ingested / (precision * precision * precision));
  const double raw = static_cast<double>(std::max<std::size_t>(report.ray_steps, 1));
  report.ray_steps = static_cast<std::size_t>(1.0 / (1.0 / raw + 1.0 / voxel_cap) + 1.0);
  return report;
}

}  // namespace roborun::perception::reference
