// Depth-camera array — the paper's 6-camera rig.
//
// Each camera covers one face of the drone (front/back/left/right/up/down,
// 90 degree FOV each, together covering the full sphere) and produces a grid
// of depth rays cast against the ground-truth world, truncated by both the
// camera range and the ambient weather visibility. The resulting frame is
// the only channel through which the cyber system observes the world,
// preserving the paper's sensing-limited information flow.
#pragma once

#include <cstddef>
#include <vector>

#include "env/dynamic.h"
#include "env/world.h"
#include "geom/vec3.h"

namespace roborun::sim {

using env::World;
using geom::Vec3;

struct SensorConfig {
  double range = 30.0;            ///< m; camera max depth
  double weather_visibility = 1e9;///< m; ambient visibility cap (fog etc.)
  int rays_horizontal = 20;       ///< rays per camera row
  int rays_vertical = 14;         ///< rays per camera column
  double ground_z = 0.35;         ///< m; hits below this are ground returns
};

struct SensorRay {
  Vec3 direction;   ///< unit vector, world frame
  double range;     ///< distance traveled (hit distance or free range)
  bool hit;         ///< true if something was struck
  bool ground;      ///< the strike was the ground plane, not an obstacle
};

/// One sensor sweep: everything the perception stage gets to see.
struct SensorFrame {
  Vec3 origin;                 ///< drone position at capture
  double max_range = 0.0;      ///< effective range = min(camera, weather)
  std::vector<Vec3> points;    ///< obstacle surface points (world frame)
  std::vector<SensorRay> rays; ///< all rays, for free-space and visibility

  /// Visibility along a direction of travel: the `percentile` of ray ranges
  /// within `cone_half_angle` of `dir`. A low percentile is deliberately
  /// conservative — a single lucky ray slipping between obstacles must not
  /// convince the MAV it can see 30 m down a congested aisle.
  double visibilityAlong(const Vec3& dir, double cone_half_angle = 0.3,
                         double percentile = 0.12) const;

  /// Shortest hit distance in the frame (distance to closest obstacle seen).
  double closestHit() const;

  /// Direction of the closest hit ray ({0,0,0} if nothing was hit) — used
  /// by the recovery behavior to retreat away from a wedged position.
  Vec3 closestHitDirection() const;

  std::size_t rayCount() const { return rays.size(); }
};

class DepthCameraArray {
 public:
  explicit DepthCameraArray(const SensorConfig& config = {}) : config_(config) {}

  const SensorConfig& config() const { return config_; }
  void setWeatherVisibility(double v) { config_.weather_visibility = v; }

  /// Cast all 6 cameras from `origin` against `world`, optionally merged
  /// with a dynamic obstacle field at its current time (per ray, the nearer
  /// of the static and dynamic hits wins).
  SensorFrame capture(const World& world, const Vec3& origin,
                      const env::DynamicObstacleField* dynamic = nullptr) const;

  /// Rays per sweep (all cameras).
  std::size_t raysPerFrame() const {
    return 6u * static_cast<std::size_t>(config_.rays_horizontal) *
           static_cast<std::size_t>(config_.rays_vertical);
  }

 private:
  SensorConfig config_;
};

}  // namespace roborun::sim
