#include "perception/point_cloud.h"

#include <cmath>
#include <cstdint>
#include <unordered_map>
#include <utility>

namespace roborun::perception {

PointCloud fromSensorFrame(const sim::SensorFrame& frame) {
  PointCloud pc;
  pc.origin = frame.origin;
  pc.max_range = frame.max_range;
  pc.points = frame.points;
  pc.source_rays = frame.rayCount();
  pc.free_rays.reserve(frame.rays.size() / 2);
  for (const auto& r : frame.rays) {
    // Misses prove free space to full range; ground returns prove free
    // space up to the floor strike (the floor itself is not an obstacle).
    if (!r.hit)
      pc.free_rays.push_back({r.direction, r.range});
    else if (r.ground)
      pc.free_rays.push_back({r.direction, std::max(0.0, r.range - 0.5)});
  }
  return pc;
}

namespace {

/// Pack signed 21-bit cell coordinates into one key (world spans here are
/// well under 2^20 cells at any supported precision).
std::uint64_t cellKey(const Vec3& p, double inv_cell) {
  const auto cx = static_cast<std::int64_t>(std::floor(p.x * inv_cell)) & 0x1FFFFF;
  const auto cy = static_cast<std::int64_t>(std::floor(p.y * inv_cell)) & 0x1FFFFF;
  const auto cz = static_cast<std::int64_t>(std::floor(p.z * inv_cell)) & 0x1FFFFF;
  return (static_cast<std::uint64_t>(cx) << 42) | (static_cast<std::uint64_t>(cy) << 21) |
         static_cast<std::uint64_t>(cz);
}

}  // namespace

DownsampleResult downsample(PointCloud cloud, double precision) {
  DownsampleResult result;
  result.points_in = cloud.points.size();
  result.cloud.origin = cloud.origin;
  result.cloud.max_range = cloud.max_range;
  result.cloud.source_rays = cloud.source_rays;
  result.cloud.free_rays = std::move(cloud.free_rays);

  if (precision <= 0.0) {
    result.cells_used = cloud.points.size();
    result.cloud.points = std::move(cloud.points);
    return result;
  }

  struct CellAccum {
    Vec3 sum;
    std::size_t n = 0;
  };
  std::unordered_map<std::uint64_t, CellAccum> cells;
  cells.reserve(cloud.points.size());
  const double inv_cell = 1.0 / precision;
  for (const auto& p : cloud.points) {
    auto& c = cells[cellKey(p, inv_cell)];
    c.sum += p;
    c.n += 1;
  }
  result.cloud.points.reserve(cells.size());
  for (const auto& [_, c] : cells)
    result.cloud.points.push_back(c.sum / static_cast<double>(c.n));
  result.cells_used = cells.size();
  return result;
}

}  // namespace roborun::perception
