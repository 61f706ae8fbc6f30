#include "env/env_gen.h"

#include <cmath>
#include <stdexcept>

namespace roborun::env {

namespace {

/// Occupancy probability at horizontal distance r from a cluster center:
/// the paper's Gaussian congestion falloff with peak `density`.
double clusterProbability(double r, double density, double sigma) {
  return density * std::exp(-(r * r) / (2.0 * sigma * sigma));
}

/// Does point (x, y) lie within `half_width` of the polyline `path` (xy)?
bool nearPolylineXY(const std::vector<Vec3>& path, double x, double y, double half_width) {
  for (std::size_t i = 0; i + 1 < path.size(); ++i) {
    const double ax = path[i].x;
    const double ay = path[i].y;
    const double bx = path[i + 1].x;
    const double by = path[i + 1].y;
    const double dx = bx - ax;
    const double dy = by - ay;
    const double len2 = dx * dx + dy * dy;
    double t = len2 > 1e-12 ? ((x - ax) * dx + (y - ay) * dy) / len2 : 0.0;
    t = std::clamp(t, 0.0, 1.0);
    const double px = ax + t * dx;
    const double py = ay + t * dy;
    if (std::hypot(x - px, y - py) <= half_width) return true;
  }
  return false;
}

}  // namespace

std::vector<Vec3> aislePath(const EnvSpec& spec) {
  // A gently meandering corridor from start to goal, deterministic in the
  // seed. Waypoints every ~30 m; lateral drift bounded so the corridor stays
  // well inside the world.
  geom::Rng rng(spec.seed * 7919 + 13);
  std::vector<Vec3> path;
  const double z = spec.flight_altitude;
  path.push_back({-spec.margin * 0.5, 0.0, z});
  double y = 0.0;
  const double y_limit = spec.world_half_width * 0.5;
  for (double x = 0.0; x < spec.goal_distance; x += 30.0) {
    path.push_back({x, y, z});
    y += rng.uniform(-8.0, 8.0);
    y = std::clamp(y, -y_limit, y_limit);
  }
  // End the corridor at the goal itself.
  path.push_back({spec.goal_distance, 0.0, z});
  path.push_back({spec.goal_distance + spec.margin * 0.5, 0.0, z});
  return path;
}

Environment generateEnvironment(const EnvSpec& spec) {
  if (spec.obstacle_density < 0.0 || spec.obstacle_density > 1.0)
    throw std::invalid_argument("generateEnvironment: density outside [0,1]");
  if (spec.obstacle_spread <= 0.0)
    throw std::invalid_argument("generateEnvironment: non-positive spread");
  if (spec.goal_distance <= 4.0 * spec.obstacle_spread * 0.9)
    throw std::invalid_argument("generateEnvironment: goal too close; clusters overlap");

  const Aabb extent{{-spec.margin, -spec.world_half_width, 0.0},
                    {spec.goal_distance + spec.margin, spec.world_half_width, spec.ceiling}};
  auto world = std::make_shared<World>(extent, spec.cell);

  geom::Rng rng(spec.seed);
  const auto aisle = aislePath(spec);

  const Vec3 start = spec.start();
  const Vec3 goal = spec.goal();
  const double ax_c = spec.clusterAx();
  const double cx_c = spec.clusterCx();

  // Obstacles are pillar blocks (racks / poles) on a coarse lattice: this
  // keeps even the densest cluster physically navigable at fine precision
  // (the paper's missions complete at density 0.6), while coarse-precision
  // maps inflate the pillars into an impassable wall — the exact
  // precision-demand mechanism Sec. II describes. `obstacle_density` is the
  // pillar occupancy probability at a cluster center.
  const double pitch = 4.0;  // m; lattice spacing
  for (double sy = extent.lo.y + pitch * 0.5; sy < extent.hi.y; sy += pitch) {
    for (double sx = extent.lo.x + pitch * 0.5; sx < extent.hi.x; sx += pitch) {
      // Jitter breaks the lattice's straight sight-lines (long free
      // corridors down grid axes would let the MAV sprint through what
      // should read as congestion) without fully closing the passages.
      const double x = sx + rng.uniform(-1.0, 1.0);
      const double y = sy + rng.uniform(-1.0, 1.0);

      const double ra = std::hypot(x - ax_c, y);
      const double rc = std::hypot(x - cx_c, y);
      // Two clusters plus a sparse obstacle floor in zone B (occasional
      // trees / poles on the open leg), keeping B nearly homogeneous.
      double p = std::max(clusterProbability(ra, spec.obstacle_density, spec.obstacle_spread),
                          clusterProbability(rc, spec.obstacle_density, spec.obstacle_spread));
      p = std::max(p, 0.004);

      // Draw before applying the keep-out masks so the obstacle field is
      // identical across specs that differ only in pocket/aisle layout.
      const bool want = rng.chance(p);
      const double h = spec.ceiling * rng.uniform(0.8, 1.0);
      if (!want) continue;

      // Pole-sized (1 m) pillars everywhere: rack-sized blocks in cluster
      // cores were tried and produce dead-end pockets that even the
      // breadcrumb-backtracking recovery cannot always replan out of (the
      // map closes in behind the vehicle). The consequence, a weaker zone
      // contrast, shows in bench/paper_report.cpp's Fig. 8d and Fig. 10b.
      const int footprint = 1;
      const double margin = 1.0;
      if (start.distXY({x, y, 0}) < spec.clear_pocket + margin) continue;
      if (goal.distXY({x, y, 0}) < spec.clear_pocket + margin) continue;
      if (nearPolylineXY(aisle, x, y, spec.aisle_width * 0.5 + margin)) continue;

      // Warehouse-rack-like columns: most reach near the ceiling so the
      // mission cannot trivially overfly the congested zones.
      const int ix0 = world->toIx(x);
      const int iy0 = world->toIy(y);
      for (int dy = 0; dy < footprint; ++dy)
        for (int dx = 0; dx < footprint; ++dx) world->setColumn(ix0 + dx, iy0 + dy, h);
    }
  }

  return Environment{spec, std::move(world)};
}

}  // namespace roborun::env
