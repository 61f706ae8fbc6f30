#include "planning/rrt_star.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "planning/planner_arena.h"

namespace roborun::planning {

namespace {

/// Uniform-grid spatial index over tree nodes for nearest/neighborhood
/// queries (linear scans would dominate at a few thousand iterations). The
/// bucket storage (and the point mirror) borrows the arena's pooled
/// BucketGrid, so steady-state replans never touch the allocator; buckets
/// preserve insertion order, which keeps nearest/neighbors answers — and
/// therefore whole missions — bit-identical to the unordered_map-of-vectors
/// index this replaced.
class NodeIndex {
 public:
  NodeIndex(PlannerArena& arena, double cell)
      : grid_(arena.rrtGrid()), points_(arena.rrtPoints()), cell_(cell),
        inv_cell_(1.0 / cell) {
    grid_.clear();
    points_.clear();
  }

  void add(const Vec3& p, std::size_t id) {
    grid_.add(key(p), static_cast<std::uint32_t>(id));
    points_.push_back(p);
  }

  std::size_t nearest(const Vec3& q) const {
    // Expanding ring search over grid shells.
    const auto [cx, cy, cz] = cellOf(q);
    std::size_t best = SIZE_MAX;
    double best_d2 = std::numeric_limits<double>::infinity();
    for (int ring = 0;; ++ring) {
      for (int dz = -ring; dz <= ring; ++dz) {
        for (int dy = -ring; dy <= ring; ++dy) {
          for (int dx = -ring; dx <= ring; ++dx) {
            if (std::max({std::abs(dx), std::abs(dy), std::abs(dz)}) != ring) continue;
            grid_.forEach(packLatticeKey(cx + dx, cy + dy, cz + dz), [&](std::uint32_t id) {
              const double d2 = points_[id].dist(q) * points_[id].dist(q);
              if (d2 < best_d2) {
                best_d2 = d2;
                best = id;
              }
            });
          }
        }
      }
      // After the first hit, scanning one more ring covers the corner
      // cases where a euclidean-nearer node sits in the next shell.
      if (best != SIZE_MAX && ring >= 1) break;
      if (ring > 512) break;  // degenerate safety stop
    }
    return best;
  }

  void neighbors(const Vec3& q, double radius, std::vector<std::size_t>& out) const {
    out.clear();
    const int r = static_cast<int>(std::ceil(radius * inv_cell_));
    const auto [cx, cy, cz] = cellOf(q);
    const double r2 = radius * radius;
    for (int dz = -r; dz <= r; ++dz) {
      for (int dy = -r; dy <= r; ++dy) {
        for (int dx = -r; dx <= r; ++dx) {
          grid_.forEach(packLatticeKey(cx + dx, cy + dy, cz + dz), [&](std::uint32_t id) {
            const Vec3 d = points_[id] - q;
            if (d.norm2() <= r2) out.push_back(id);
          });
        }
      }
    }
  }

 private:
  std::tuple<int, int, int> cellOf(const Vec3& p) const {
    return {static_cast<int>(std::floor(p.x * inv_cell_)),
            static_cast<int>(std::floor(p.y * inv_cell_)),
            static_cast<int>(std::floor(p.z * inv_cell_))};
  }
  std::uint64_t key(const Vec3& p) const {
    const auto [x, y, z] = cellOf(p);
    return packLatticeKey(x, y, z);
  }

  BucketGrid& grid_;
  std::vector<Vec3>& points_;
  double cell_;
  double inv_cell_;
};

using TreeNode = RrtTreeNode;

/// Tracks the volume covered by the search: each step-sized cell first
/// touched by a sample claims step^3 of explored space. Cell membership
/// lives in the arena's O(1)-clearing stamped set.
class ExploredVolume {
 public:
  ExploredVolume(PlannerArena& arena, double cell)
      : cells_(arena.rrtExplored()), cell_(cell), inv_cell_(1.0 / cell) {
    cells_.clear();
  }

  void visit(const Vec3& p) {
    const int cx = static_cast<int>(std::floor(p.x * inv_cell_));
    const int cy = static_cast<int>(std::floor(p.y * inv_cell_));
    const int cz = static_cast<int>(std::floor(p.z * inv_cell_));
    cells_.insert(packLatticeKey(cx, cy, cz));
  }

  double volume() const { return static_cast<double>(cells_.size()) * cell_ * cell_ * cell_; }

 private:
  StampedSet& cells_;
  double cell_;
  double inv_cell_;
};

std::vector<Vec3> extractPath(const std::vector<TreeNode>& nodes, std::size_t leaf) {
  std::vector<Vec3> path;
  for (std::size_t id = leaf; id != SIZE_MAX; id = nodes[id].parent)
    path.push_back(nodes[id].position);
  std::reverse(path.begin(), path.end());
  return path;
}

}  // namespace

RrtResult planPath(const perception::PlannerMap& map, const Vec3& start, const Vec3& goal,
                   const RrtParams& params, geom::Rng& rng) {
  PlannerArena arena;
  return planPath(map, start, goal, params, rng, arena);
}

RrtResult planPath(const perception::PlannerMap& map, const Vec3& start, const Vec3& goal,
                   const RrtParams& params, geom::Rng& rng, PlannerArena& arena) {
  RrtResult result;
  auto& report = result.report;

  auto segmentFree = [&](const Vec3& a, const Vec3& b) {
    const auto check = map.checkSegment(a, b, params.check_precision);
    report.check_steps += check.steps;
    return !check.hit;
  };

  // Fast path: in open space the straight connection usually succeeds, which
  // is why the paper sees near-zero planning latency in zone B.
  ++report.iterations;
  if (segmentFree(start, goal)) {
    result.path = {start, goal};
    report.found = true;
    report.path_cost = start.dist(goal);
    report.explored_volume = std::min(params.volume_budget, params.step * params.step *
                                                                params.step);
    return result;
  }

  std::vector<TreeNode>& nodes = arena.rrtNodes();
  nodes.clear();
  nodes.push_back({start, SIZE_MAX, 0.0});
  NodeIndex index(arena, std::max(params.rewire_radius, 1.0));
  index.add(start, 0);
  ExploredVolume explored(arena, std::max(params.step, 1.0));
  explored.visit(start);

  std::size_t goal_node = SIZE_MAX;
  double goal_cost = std::numeric_limits<double>::infinity();
  std::vector<std::size_t>& nearby = arena.rrtNearby();
  nearby.clear();
  std::size_t iters_since_found = 0;

  while (report.iterations < params.max_iterations) {
    ++report.iterations;
    if (goal_node != SIZE_MAX && ++iters_since_found > params.refine_iterations) break;

    // Volume operator: stop the search when the explored space exceeds v2.
    report.explored_volume = explored.volume();
    if (report.explored_volume > params.volume_budget) {
      report.volume_exhausted = true;
      break;
    }

    Vec3 target;
    const double draw = rng.uniform();
    if (draw < params.goal_bias) {
      target = goal;
    } else if (draw < params.goal_bias + params.line_bias) {
      // Corridor-informed sample: a point along the start-goal line with
      // Gaussian lateral spread.
      const Vec3 base = geom::lerp(start, goal, rng.uniform());
      target = params.bounds.clamp(base + Vec3{rng.normal(0.0, params.line_sigma),
                                               rng.normal(0.0, params.line_sigma),
                                               rng.normal(0.0, params.line_sigma * 0.25)});
    } else {
      target = rng.uniformInBox(params.bounds.lo, params.bounds.hi);
    }
    const std::size_t nearest = index.nearest(target);
    if (nearest == SIZE_MAX) break;

    // Steer: extend at most `step` toward the sample; in clutter, where a
    // full-step edge almost always collides, retry at half and quarter step
    // so the tree can still grow through narrow passages.
    const Vec3 from = nodes[nearest].position;
    const double dist = from.dist(target);
    Vec3 to;
    bool extended = false;
    for (const double frac : {1.0, 0.5, 0.25}) {
      const double ext = std::min(dist, params.step * frac);
      if (ext < 1e-6) break;
      to = from + (target - from) * (ext / dist);
      if (!map.occupiedPoint(to) && segmentFree(from, to)) {
        extended = true;
        break;
      }
    }
    if (!extended) continue;

    // Choose-parent over the neighborhood (RRT* optimality step).
    index.neighbors(to, params.rewire_radius, nearby);
    std::size_t parent = nearest;
    double cost = nodes[nearest].cost + from.dist(to);
    for (const std::size_t nb : nearby) {
      const double c = nodes[nb].cost + nodes[nb].position.dist(to);
      if (c < cost && segmentFree(nodes[nb].position, to)) {
        parent = nb;
        cost = c;
      }
    }

    const std::size_t id = nodes.size();
    nodes.push_back({to, parent, cost});
    index.add(to, id);
    explored.visit(to);

    // Rewire neighbors through the new node where that shortens them.
    for (const std::size_t nb : nearby) {
      const double c = cost + to.dist(nodes[nb].position);
      if (c + 1e-9 < nodes[nb].cost && segmentFree(to, nodes[nb].position)) {
        nodes[nb].parent = id;
        nodes[nb].cost = c;
      }
    }

    // Goal connection.
    if (to.dist(goal) <= params.goal_tolerance) {
      if (cost < goal_cost) {
        goal_cost = cost;
        goal_node = id;
      }
    } else if (to.dist(goal) <= params.step && segmentFree(to, goal)) {
      const double c = cost + to.dist(goal);
      if (c < goal_cost) {
        const std::size_t gid = nodes.size();
        nodes.push_back({goal, id, c});
        index.add(goal, gid);
        goal_cost = c;
        goal_node = gid;
      }
    }
  }

  report.explored_volume = explored.volume();
  if (goal_node != SIZE_MAX) {
    result.path = extractPath(nodes, goal_node);
    report.found = true;
    report.path_cost = nodes[goal_node].cost;
    return result;
  }
  // Goal unreached: return the best partial path if it makes real progress
  // (recovery behavior — the vehicle inches toward the goal through maze-like
  // congestion and replans as the map fills in).
  if (params.partial_progress > 0.0) {
    const double start_dist = start.dist(goal);
    std::size_t best = SIZE_MAX;
    double best_dist = start_dist - params.partial_progress;
    for (std::size_t id = 1; id < nodes.size(); ++id) {
      const double d = nodes[id].position.dist(goal);
      if (d < best_dist) {
        best_dist = d;
        best = id;
      }
    }
    if (best != SIZE_MAX) {
      result.path = extractPath(nodes, best);
      report.found = true;
      report.partial = true;
      report.path_cost = nodes[best].cost;
    }
  }
  return result;
}

}  // namespace roborun::planning
