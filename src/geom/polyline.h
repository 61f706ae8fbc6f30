// Point-to-polyline distance helpers, used by the volume operators (sorting
// space by distance to the MAV's trajectory) and the environment generator.
#pragma once

#include <algorithm>
#include <cstddef>
#include <limits>
#include <span>
#include <vector>

#include "geom/aabb.h"
#include "geom/vec3.h"

namespace roborun::geom {

/// Distance from p to segment [a, b].
inline double distPointSegment(const Vec3& p, const Vec3& a, const Vec3& b) {
  const Vec3 ab = b - a;
  const double len2 = ab.norm2();
  if (len2 < 1e-12) return p.dist(a);
  const double t = std::clamp((p - a).dot(ab) / len2, 0.0, 1.0);
  return p.dist(a + ab * t);
}

/// Distance from p to a polyline (waypoint sequence). An empty polyline has
/// infinite distance; a single point degenerates to point distance.
inline double distToPolyline(const Vec3& p, std::span<const Vec3> polyline) {
  if (polyline.empty()) return std::numeric_limits<double>::infinity();
  if (polyline.size() == 1) return p.dist(polyline[0]);
  double best = std::numeric_limits<double>::infinity();
  for (std::size_t i = 0; i + 1 < polyline.size(); ++i)
    best = std::min(best, distPointSegment(p, polyline[i], polyline[i + 1]));
  return best;
}

/// distToPolyline for many query points against one polyline. Segments are
/// grouped into chunks of kChunkSegments, each with its bounding box; a
/// chunk is skipped only when its box lies farther than the best segment
/// distance found so far plus 1e-6 m, a margin far above the rounding of
/// either distance. Every skipped segment is therefore strictly farther
/// than the answer, and the min over the rest is bitwise distToPolyline's
/// (min does not depend on evaluation order). Each query starts at the
/// previous query's winning chunk, which for nearby query points (one
/// sweep's rays) usually prunes the rest at once. The polyline must outlive
/// this object.
class PolylineDistance {
 public:
  static constexpr std::size_t kChunkSegments = 8;

  explicit PolylineDistance(std::span<const Vec3> polyline) : polyline_(polyline) {
    for (std::size_t first = 0; first + 1 < polyline.size(); first += kChunkSegments) {
      const std::size_t last = std::min(first + kChunkSegments, polyline.size() - 1);
      Aabb box = Aabb::empty();
      for (std::size_t i = first; i <= last; ++i) box.merge(polyline[i]);
      chunks_.push_back({box, first, last});
    }
  }

  double operator()(const Vec3& p) {
    if (chunks_.empty()) return distToPolyline(p, polyline_);
    double best = chunkMin(chunks_[start_], p, std::numeric_limits<double>::infinity());
    std::size_t winner = start_;
    for (std::size_t c = 0; c < chunks_.size(); ++c) {
      if (c == start_) continue;
      const double reach = best + 1e-6;
      if ((p - chunks_[c].box.clamp(p)).norm2() > reach * reach) continue;
      const double d = chunkMin(chunks_[c], p, best);
      if (d < best) {
        best = d;
        winner = c;
      }
    }
    start_ = winner;
    return best;
  }

 private:
  struct Chunk {
    Aabb box;           ///< bounds of points [first, last]
    std::size_t first;  ///< segments [first, last)
    std::size_t last;
  };

  /// min(best, distance to each segment of `chunk`), as distToPolyline folds it.
  double chunkMin(const Chunk& chunk, const Vec3& p, double best) const {
    for (std::size_t i = chunk.first; i < chunk.last; ++i)
      best = std::min(best, distPointSegment(p, polyline_[i], polyline_[i + 1]));
    return best;
  }

  std::span<const Vec3> polyline_;
  std::vector<Chunk> chunks_;
  std::size_t start_ = 0;  ///< chunk that won the previous query
};

}  // namespace roborun::geom
