#include "perception/octomap_kernel.h"

#include <algorithm>
#include <cmath>
#include <numbers>
#include <vector>

#include "geom/polyline.h"

namespace roborun::perception {

namespace {

struct RayRef {
  Vec3 end;        ///< endpoint (hit point, or origin + dir*range for free rays)
  double length;   ///< ray length
  bool hit;        ///< obstacle endpoint?
  double sort_key; ///< distance to trajectory (threat ordering)
};

/// Mark cells along [origin, end) free at `free_level`, stepping one cell
/// size at a time; mark the endpoint occupied at `occ_level` if `hit`.
///
/// The free cells go through OccupancyOctree::updateRay, one fused walk per
/// ray: the march's cellKey() keys are never staged, and the walk restarts
/// each sample at the deepest tree ancestor whose cell still holds it. The
/// result is the Morton batch updateCells would apply, so the tree ends
/// bit-identical to the seed's per-cell root descents. The occupied
/// endpoint is applied after the frees, as before, keeping the
/// sticky-occupancy interleaving across rays untouched.
void traceRay(OccupancyOctree& tree, const Vec3& origin, const Vec3& end, bool hit,
              int occ_level, int free_level) {
  const double cell = tree.cellSizeAtLevel(free_level);
  const Vec3 d = end - origin;
  const double len = d.norm();
  if (len > 1e-9) {
    // Stop one cell short of a hit endpoint so the obstacle cell stays
    // occupied (free marking is sticky-checked anyway; this saves work).
    const double free_len = hit ? std::max(0.0, len - cell) : len;
    tree.updateRay(origin, d / len, cell, free_len, free_level, Occupancy::Free);
  }
  if (hit) tree.updateCell(end, occ_level, Occupancy::Occupied);
}

}  // namespace

OctomapInsertReport insertPointCloud(OccupancyOctree& tree, const PointCloud& cloud,
                                     const OctomapInsertParams& params,
                                     std::span<const geom::Vec3> trajectory) {
  OctomapInsertReport report;
  const double precision = tree.snapPrecision(params.precision);
  const int level = tree.levelForPrecision(precision);
  const int free_level = tree.levelForPrecision(std::clamp(
      precision, params.free_resolution_floor, params.free_resolution_ceiling));

  const std::size_t total_rays = cloud.points.size() + cloud.free_rays.size();
  if (total_rays == 0) return report;

  // Per-ray solid-angle share: a sweep of R rays covering the full sphere
  // ingests (4pi/3R) * len^3 of space per ray, so a full unobstructed sweep
  // sums to the sensing sphere's volume.
  const double source_rays =
      static_cast<double>(std::max(cloud.source_rays, total_rays));
  const double omega_share = 4.0 * std::numbers::pi / (3.0 * source_rays);

  // Threat key: distance to the planned trajectory, pruned per trajectory
  // chunk (bitwise equal to geom::distToPolyline).
  geom::PolylineDistance threat(trajectory);
  std::vector<RayRef> rays;
  rays.reserve(total_rays);
  for (const auto& p : cloud.points) {
    const double len = p.dist(cloud.origin);
    const double key = trajectory.empty() ? len : threat(p);
    rays.push_back({p, len, true, key});
  }
  for (const auto& fr : cloud.free_rays) {
    const Vec3 end = cloud.origin + fr.direction * fr.range;
    // A free ray's threat proxy is its closest approach to the trajectory;
    // the midpoint is a cheap stand-in consistent across sweeps.
    const Vec3 mid = cloud.origin + fr.direction * (fr.range * 0.5);
    const double key = trajectory.empty() ? fr.range : threat(mid);
    rays.push_back({end, fr.range, false, key});
  }

  // Volume operator: nearest-to-trajectory space first.
  std::sort(rays.begin(), rays.end(),
            [](const RayRef& a, const RayRef& b) { return a.sort_key < b.sort_key; });

  for (const auto& r : rays) {
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
    traceRay(tree, cloud.origin, r.end, r.hit, level, free_level);
    report.ray_steps += static_cast<std::size_t>(std::ceil(r.length / precision));
  }
  if (report.rays_integrated > 0) {
    // Every cell written lies on an integrated segment; widening by the
    // coarsest written cell size makes the box cover those cells' full
    // extents (the dirty-region contract downstream).
    const double pad =
        std::max(tree.cellSizeAtLevel(free_level), tree.cellSizeAtLevel(level));
    report.touched.lo = report.touched.lo - Vec3{pad, pad, pad};
    report.touched.hi = report.touched.hi + Vec3{pad, pad, pad};
  }

  // Work dedup: as the swept region becomes denser in rays than in voxels,
  // per-voxel update cost saturates toward the region's voxel count. The
  // harmonic blend models gradual deduplication (rays start sharing voxels
  // well before full saturation) and keeps the latency surface smooth for
  // the Eq. 4 fit.
  const double voxel_cap =
      std::max(1.0, report.volume_ingested / (precision * precision * precision));
  const double raw = static_cast<double>(std::max<std::size_t>(report.ray_steps, 1));
  report.ray_steps = static_cast<std::size_t>(1.0 / (1.0 / raw + 1.0 / voxel_cap) + 1.0);
  return report;
}

}  // namespace roborun::perception
