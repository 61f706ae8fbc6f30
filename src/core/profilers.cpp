#include "core/profilers.h"

#include <algorithm>
#include <cmath>
#include <numbers>

namespace roborun::core {

GapStats profileGaps(const sim::SensorFrame& frame, const ProfilerConfig& config) {
  GapStats stats;
  // Collect the horizontal band of rays, sorted by azimuth.
  struct BandRay {
    double azimuth;
    double range;
    bool hit;
  };
  std::vector<BandRay> band;
  band.reserve(frame.rays.size() / 4);
  for (const auto& r : frame.rays) {
    if (std::abs(r.direction.z) > config.horizontal_band) continue;
    // Ground returns are clear space for gap purposes.
    const bool obstacle_hit = r.hit && !r.ground;
    band.push_back({std::atan2(r.direction.y, r.direction.x),
                    obstacle_hit ? r.range : frame.max_range, obstacle_hit});
  }
  if (band.size() < 4) {
    stats.average = stats.minimum = config.gap_cap;
    return stats;
  }
  std::sort(band.begin(), band.end(),
            [](const BandRay& a, const BandRay& b) { return a.azimuth < b.azimuth; });

  // Walk the ring: a maximal run of free rays bounded by hits on both sides
  // is a gap; its width is the chord spanned at the bounding hit distance.
  std::vector<double> gaps;
  const std::size_t n = band.size();
  std::size_t first_hit = SIZE_MAX;
  for (std::size_t i = 0; i < n; ++i)
    if (band[i].hit) {
      first_hit = i;
      break;
    }
  if (first_hit == SIZE_MAX) {
    stats.average = stats.minimum = config.gap_cap;  // nothing in sight
    return stats;
  }
  std::size_t prev_hit = first_hit;
  for (std::size_t k = 1; k <= n; ++k) {
    const std::size_t i = (first_hit + k) % n;
    if (!band[i].hit) continue;
    const double a0 = band[prev_hit].azimuth;
    double a1 = band[i].azimuth;
    if (k + first_hit >= n + first_hit && i <= first_hit) a1 += 2.0 * std::numbers::pi;
    double dtheta = a1 - a0;
    if (dtheta < 0) dtheta += 2.0 * std::numbers::pi;
    // Count the free rays strictly between the two hits.
    std::size_t free_between = (i + n - prev_hit) % n;
    if (free_between > 1) {
      const double d = std::min(band[prev_hit].range, band[i].range);
      const double gap = 2.0 * d * std::sin(std::min(dtheta, std::numbers::pi) * 0.5);
      if (gap > 1e-6) gaps.push_back(std::min(gap, config.gap_cap));
    }
    prev_hit = i;
  }
  if (gaps.empty()) {
    stats.average = stats.minimum = config.gap_cap;
    return stats;
  }
  stats.count = gaps.size();
  stats.minimum = *std::min_element(gaps.begin(), gaps.end());
  double sum = 0.0;
  for (const double g : gaps) sum += g;
  stats.average = sum / static_cast<double>(gaps.size());
  return stats;
}

SpaceProfile profileSpace(const sim::SensorFrame& frame,
                          const perception::OccupancyOctree& map,
                          const planning::Trajectory& trajectory, const Vec3& position,
                          const Vec3& velocity, const Vec3& travel_dir,
                          const ProfilerConfig& config) {
  SpaceProfile profile;
  profile.position = position;
  profile.velocity = velocity.norm();

  const GapStats gaps = profileGaps(frame, config);
  profile.gap_avg = gaps.average;
  profile.gap_min = gaps.minimum;
  profile.d_obstacle = frame.closestHit();

  // v_sensor: the sensing sphere is all the sensors can ever ingest per
  // sweep; v_map: what the map currently holds.
  profile.sensor_volume =
      4.0 / 3.0 * std::numbers::pi * frame.max_range * frame.max_range * frame.max_range;
  profile.map_volume = map.stats().mappedVolume();

  const Vec3 dir = travel_dir.norm() > 1e-6 ? travel_dir.normalized() : Vec3{1, 0, 0};
  profile.visibility = std::max(frame.visibilityAlong(dir), 1.0);

  // Known-free horizon along the trajectory: the first map cell that is not
  // known free (unknown or occupied) ends the distance the MAV may commit to.
  profile.d_unknown = frame.max_range;
  if (!trajectory.empty()) {
    const double total = trajectory.length();
    const double start_s = trajectory.closestArcLength(position);
    for (double s = start_s; s <= total; s += config.unknown_probe_step) {
      const Vec3 p = trajectory.sampleAtArcLength(s);
      if (map.query(p) != perception::Occupancy::Free) {
        profile.d_unknown = std::max(s - start_s, 0.5);
        break;
      }
    }
  }

  // Waypoint horizon for Algorithm 1. Visibility at a waypoint is the
  // known-free distance *along the trajectory from that waypoint* — Eq. 1's
  // d is how far ahead the MAV can see/knows at that point of the flight,
  // not its lateral wall clearance. One forward pass over arc-length
  // samples gives every waypoint's free run.
  if (trajectory.size() >= 2) {
    const double total = trajectory.length();
    const double start_s = trajectory.closestArcLength(position);
    const double probe = std::max(config.unknown_probe_step, 0.25);
    std::vector<double> sample_s;
    std::vector<bool> sample_free;
    for (double s = start_s; s <= total; s += probe) {
      sample_s.push_back(s);
      sample_free.push_back(map.query(trajectory.sampleAtArcLength(s)) ==
                            perception::Occupancy::Free);
    }
    // free_until[j]: arc length of the first non-free sample at or after j.
    std::vector<double> free_until(sample_s.size(), total);
    double frontier = sample_s.empty() ? start_s : sample_s.back() + probe;
    for (std::size_t j = sample_s.size(); j-- > 0;) {
      if (!sample_free[j]) frontier = sample_s[j];
      free_until[j] = frontier;
    }
    auto visibilityAt = [&](double s) {
      if (sample_s.empty()) return 1.0;
      const auto idx = static_cast<std::size_t>(
          std::clamp((s - start_s) / probe, 0.0, static_cast<double>(sample_s.size() - 1)));
      // Not std::clamp: max_range can fall below 0.5, which breaks its
      // lo <= hi precondition. This is libstdc++'s clamp body, so the result
      // is unchanged (max_range wins when it is below the floor).
      return std::min(std::max(free_until[idx] - s, 0.5), frame.max_range);
    };

    // Algorithm 1's W0 is the *current state*; upcoming trajectory points
    // follow as W1..Wn.
    profile.waypoints.push_back(
        {position, std::max(profile.velocity, 0.05), profile.visibility, 0.0});

    const double start_t =
        trajectory.duration() * (total > 1e-9 ? start_s / total : 0.0);
    double prev_t = start_t;
    const auto& pts = trajectory.points();
    double acc_s = 0.0;
    for (std::size_t i = 0; i < pts.size() && profile.waypoints.size() < config.waypoint_horizon;
         ++i) {
      if (i > 0) acc_s += pts[i].position.dist(pts[i - 1].position);
      if (pts[i].time < start_t) continue;
      WaypointState ws;
      ws.position = pts[i].position;
      ws.velocity = std::max(pts[i].velocity, 0.1);
      ws.visibility = visibilityAt(std::max(acc_s, start_s));
      ws.flight_time_from_prev = std::max(pts[i].time - prev_t, 0.0);
      prev_t = pts[i].time;
      profile.waypoints.push_back(ws);
    }
  }
  if (profile.waypoints.empty()) {
    // Hover/startup: a single pseudo-waypoint at the current state.
    profile.waypoints.push_back(
        {position, std::max(profile.velocity, 0.1), profile.visibility, 0.0});
  }
  return profile;
}

}  // namespace roborun::core
