// Point cloud kernel and its precision operator.
//
// Perception's first stage converts depth-sensor output into 3D obstacle
// points. Its precision operator (paper Sec. III-B) "controls the sampling
// distance between points": the space is gridded into cells of the knob's
// size, points are binned by coordinate, and each cell collapses to a single
// average point. Coarser precision -> fewer points -> less downstream work.
#pragma once

#include <cstddef>
#include <vector>

#include "geom/vec3.h"
#include "sim/sensor.h"

namespace roborun::perception {

using geom::Vec3;

/// A sensor ray that struck nothing within range: proves free space along
/// its length (OctoMap clears along such rays).
struct FreeRay {
  Vec3 direction;  ///< unit vector
  double range;    ///< proven-free distance
};

struct PointCloud {
  Vec3 origin;                 ///< sensor origin at capture
  double max_range = 0.0;      ///< effective sensing range of the frame
  std::vector<Vec3> points;    ///< obstacle points, world frame
  std::vector<FreeRay> free_rays;  ///< rays with no return
  std::size_t source_rays = 0; ///< rays in the producing sensor sweep

  std::size_t size() const { return points.size(); }
  bool empty() const { return points.empty(); }
};

/// Comm payload: ROS-style point cloud with per-point metadata plus the
/// depth-image free-ray channel.
inline std::size_t byteSizeOf(const PointCloud& pc) {
  return 64 + pc.points.size() * 32 + pc.free_rays.size() * 16;
}

/// Build the raw cloud from a sensor frame.
PointCloud fromSensorFrame(const sim::SensorFrame& frame);

struct DownsampleResult {
  PointCloud cloud;
  std::size_t cells_used = 0;   ///< grid cells that received points
  std::size_t points_in = 0;
};

/// Precision operator #1: grid-average downsampling at `precision` meters.
/// precision <= 0 passes the cloud through untouched. Taken by value: the
/// free rays (and, when passing through, the points) move into the result,
/// so a caller that hands over a temporary copies nothing.
DownsampleResult downsample(PointCloud cloud, double precision);

}  // namespace roborun::perception
