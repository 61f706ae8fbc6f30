// The map view handed to the planner — output of the perception-to-planning
// operators.
//
// A uniform occupied-voxel hash grid at the bridge precision p1 (plus a
// short list of coarser legacy boxes from earlier coarse-precision sweeps).
// The planner's raytracer marches segments through this grid at its own
// precision knob, counting work steps for the latency model.
#pragma once

#include <cstddef>
#include <cstdint>
#include <unordered_set>
#include <vector>

#include "geom/aabb.h"
#include "geom/vec3.h"
#include "perception/octree.h"

namespace roborun::perception {

class PlannerMap {
 public:
  /// `inflation` is the robot-radius margin added at query time: a point
  /// within that distance of an occupied voxel reads occupied (the drone is
  /// planned as a point, so the map must wear its radius).
  /// Default inflation: drone radius (0.4) + fine-voxel half-size (0.15)
  /// + tracking margin. Must stay ABOVE the mission runner's retreat
  /// threshold or trajectories may legally pass closer to obstacles than
  /// the recovery behavior tolerates (follow/retreat flip-flop).
  explicit PlannerMap(double precision = 0.3, double inflation = 0.7);

  double precision() const { return precision_; }
  double inflation() const { return inflation_; }

  /// Pre-size the cell hash for a known voxel batch (the bridge knows the
  /// collected count up front; one rehash instead of log2(n)).
  void reserve(std::size_t n) { cells_.reserve(n); }

  /// Insert a voxel; boxes coarser than the grid cell are kept separately.
  void addVoxel(const VoxelBox& v);

  /// Inflated occupancy query (includes the robot-radius margin).
  bool occupiedPoint(const Vec3& p) const;
  /// Raw voxel occupancy, no inflation.
  bool occupiedRaw(const Vec3& p) const;

  struct SegmentCheck {
    bool hit = false;
    double hit_t = 1.0;         ///< parametric position of the first hit
    std::size_t steps = 0;      ///< raytracer march steps performed
  };
  /// March [a, b] at `step` meters (the planning precision knob); step <= 0
  /// uses the map precision.
  SegmentCheck checkSegment(const Vec3& a, const Vec3& b, double step = 0.0) const;

  std::size_t voxelCount() const { return cells_.size() + coarse_boxes_.size(); }
  std::size_t coarseBoxCount() const { return coarse_boxes_.size(); }
  bool empty() const { return voxelCount() == 0; }

  /// Bounding box of all occupied voxels (empty() box if none).
  const geom::Aabb& occupiedBounds() const { return bounds_; }

 private:
  std::uint64_t key(const Vec3& p) const;

  double precision_;
  double inv_precision_;
  double inflation_;
  std::unordered_set<std::uint64_t> cells_;
  std::vector<VoxelBox> coarse_boxes_;
  geom::Aabb bounds_ = geom::Aabb::empty();
};

/// Comm payload for the serialized map message.
struct PlannerMapMsg {
  PlannerMap map;
  double region_volume = 0.0;  ///< m^3 of known space communicated
};

inline std::size_t byteSizeOf(const PlannerMapMsg& m) {
  return 64 + m.map.voxelCount() * 16;
}

}  // namespace roborun::perception
