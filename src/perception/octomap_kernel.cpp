#include "perception/octomap_kernel.h"

#include <algorithm>
#include <cmath>
#include <numbers>
#include <vector>

#include "geom/polyline.h"
#include "perception/fork_join.h"

namespace roborun::perception {

namespace {

/// Sweeps whose volume budget keeps at least this many rays classify each
/// ray's live window on the fork-join pool before walking; smaller sweeps
/// walk every sample. Paper-fidelity sweeps (6x20x14 = 1680 rays) cross
/// it; smoke-fidelity ones (6x8x6 = 288 rays) never do.
constexpr std::size_t kForkGrain = 512;
/// Rays per fork-join task.
constexpr std::size_t kTaskRays = 64;

struct RayRef {
  Vec3 end;        ///< endpoint (hit point, or origin + dir*range for free rays)
  double length;   ///< ray length
  bool hit;        ///< obstacle endpoint?
  double sort_key; ///< distance to trajectory (threat ordering)
};

/// One integrated ray: mark cells along [origin, end) free at the free
/// level, stepping one cell size at a time (stopping one cell short of a
/// hit endpoint, so the obstacle cell stays occupied: free marking is
/// sticky-checked anyway, this saves work), then mark the endpoint
/// occupied at the occupied level if the ray hit.
struct Trace {
  Vec3 end;
  Vec3 dir;
  double free_length;
  bool hit;
  /// Samples of the free march to walk: every one, or on a sweep past
  /// kForkGrain the ray's liveSpan().
  SampleWindow window;
};

/// Run body(first, last) over consecutive ranges of kTaskRays covering
/// [0, n): on the fork-join pool when n reaches kForkGrain, else as one
/// range on the calling thread.
template <typename Body>
void forRays(std::size_t n, const Body& body) {
  if (n < kForkGrain) {
    body(std::size_t{0}, n);
    return;
  }
  forkJoin((n + kTaskRays - 1) / kTaskRays, [&](std::size_t task) {
    const std::size_t first = task * kTaskRays;
    body(first, std::min(n, first + kTaskRays));
  });
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
  const double cell = tree.cellSizeAtLevel(free_level);

  const std::size_t total_rays = cloud.points.size() + cloud.free_rays.size();
  if (total_rays == 0) return report;

  // Per-ray solid-angle share: a sweep of R rays covering the full sphere
  // ingests (4pi/3R) * len^3 of space per ray, so a full unobstructed sweep
  // sums to the sensing sphere's volume.
  const double source_rays =
      static_cast<double>(std::max(cloud.source_rays, total_rays));
  const double omega_share = 4.0 * std::numbers::pi / (3.0 * source_rays);

  std::vector<RayRef> rays;
  rays.reserve(total_rays);
  for (const auto& p : cloud.points) rays.push_back({p, p.dist(cloud.origin), true, 0.0});
  for (const auto& fr : cloud.free_rays)
    rays.push_back({cloud.origin + fr.direction * fr.range, fr.range, false, 0.0});

  // Threat key: distance to the planned trajectory, pruned per trajectory
  // chunk (bitwise equal to geom::distToPolyline, whichever ray a
  // PolylineDistance copy starts from). Without a trajectory, the ray
  // length.
  const geom::PolylineDistance threat(trajectory);
  forRays(total_rays, [&](std::size_t first, std::size_t last) {
    geom::PolylineDistance distance = threat;
    for (std::size_t i = first; i < last; ++i) {
      RayRef& r = rays[i];
      if (trajectory.empty()) {
        r.sort_key = r.length;
      } else if (r.hit) {
        r.sort_key = distance(r.end);
      } else {
        // A free ray's threat proxy is its closest approach to the
        // trajectory; the midpoint is a cheap stand-in consistent across
        // sweeps.
        const FreeRay& fr = cloud.free_rays[i - cloud.points.size()];
        r.sort_key = distance(cloud.origin + fr.direction * (fr.range * 0.5));
      }
    }
  });

  // Volume operator: nearest-to-trajectory space first.
  std::sort(rays.begin(), rays.end(),
            [](const RayRef& a, const RayRef& b) { return a.sort_key < b.sort_key; });

  std::vector<Trace> traces;
  traces.reserve(total_rays);
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
    report.ray_steps += static_cast<std::size_t>(std::ceil(r.length / precision));

    // A ray too short to have a direction marches nothing (length 0).
    const Vec3 d = r.end - cloud.origin;
    const double len = d.norm();
    Trace trace{r.end, {}, 0.0, r.hit, {}};
    if (len > 1e-9) {
      trace.dir = d / len;
      trace.free_length = r.hit ? std::max(0.0, len - cell) : len;
    }
    traces.push_back(trace);
  }

  // Settled-span pass: read-only, against the tree as the sweep found it.
  // A sample outside its ray's live window hits a settled cell, and settled
  // cells stay settled through the sweep, so skipping it changes nothing
  // (OccupancyOctree::liveSpan).
  if (traces.size() >= kForkGrain) {
    forRays(traces.size(), [&](std::size_t first, std::size_t last) {
      for (std::size_t i = first; i < last; ++i) {
        Trace& tr = traces[i];
        tr.window = tree.liveSpan(cloud.origin, tr.dir, cell, tr.free_length, free_level);
      }
    });
  }

  // The serial walk, in threat order. The free cells of each ray go through
  // one fused OccupancyOctree::updateRay walk (the march's cellKey() keys
  // are never staged; each sample restarts at the deepest tree ancestor
  // whose cell still holds it), so the tree ends bit-identical to the
  // seed's per-cell root descents. The occupied endpoint is applied after
  // the ray's frees, keeping the sticky-occupancy interleaving across rays.
  for (const Trace& tr : traces) {
    tree.updateRay(cloud.origin, tr.dir, cell, tr.free_length, free_level, Occupancy::Free,
                   tr.window);
    if (tr.hit) tree.updateCell(tr.end, level, Occupancy::Occupied);
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
