#include "planning/astar.h"

#include <algorithm>
#include <array>
#include <cmath>

namespace roborun::planning {

namespace {

using geom::Vec3;

constexpr std::uint32_t kNone = PlannerArena::kNone;

inline Vec3 latticeCenter(int x, int y, int z, double cell) {
  return Vec3{(x + 0.5) * cell, (y + 0.5) * cell, (z + 0.5) * cell};
}

}  // namespace

AStarResult planPathAStar(const perception::PlannerMap& map, const Vec3& start,
                          const Vec3& goal, const AStarParams& params,
                          PlannerArena& arena) {
  AStarResult result;
  auto& report = result.report;
  // Lattice pitch: the caller's knob, or the map's own snapped cell size
  // when unset — the map already derived the power-of-two precision once,
  // so reuse it instead of re-deriving a grid per planner call.
  const double cell = params.cell > 0.0 ? params.cell : map.precision();

  arena.beginAStar();

  const int sx = static_cast<int>(std::floor(start.x / cell));
  const int sy = static_cast<int>(std::floor(start.y / cell));
  const int sz = static_cast<int>(std::floor(start.z / cell));
  const std::uint64_t start_key = packLatticeKey(sx, sy, sz);

  {
    const std::uint32_t slot = arena.cellSlot(start_key);
    arena.cellAt(slot).node = arena.newNode(start_key, 0.0, kNone);
    arena.heapPush(latticeCenter(sx, sy, sz, cell).dist(goal), 0);
  }

  // 26-neighborhood with step costs hoisted out of the expansion loop: the
  // sqrt-scaled lattice distances are fixed per cell size, so deriving them
  // per generated neighbor (the hot inner loop) was pure waste.
  struct NeighborStep {
    int dx, dy, dz;
    double step;
  };
  std::array<NeighborStep, 26> neighbors;
  {
    std::size_t n = 0;
    for (int dz = -1; dz <= 1; ++dz)
      for (int dy = -1; dy <= 1; ++dy)
        for (int dx = -1; dx <= 1; ++dx) {
          if (dx == 0 && dy == 0 && dz == 0) continue;
          neighbors[n++] = {dx, dy, dz,
                            cell * std::sqrt(static_cast<double>(dx * dx + dy * dy + dz * dz))};
        }
  }

  std::uint32_t reached = kNone;
  while (!arena.heapEmpty() && report.expansions < params.max_expansions) {
    const auto [f, current] = arena.heapPop();
    // Copy the node fields before the neighbor loop: newNode() may grow the
    // pool and invalidate references into it.
    const std::uint64_t cur_key = arena.node(current).key;
    const double cur_g = arena.node(current).g;
    const int cx = unpackLatticeX(cur_key);
    const int cy = unpackLatticeY(cur_key);
    const int cz = unpackLatticeZ(cur_key);
    const Vec3 cur_center = latticeCenter(cx, cy, cz, cell);
    const double cur_h = cur_center.dist(goal);
    // Stale queue entry (already relaxed to a lower g)? Entries are never
    // removed on decrease-key; the improved push simply outranks them and
    // this check invalidates the leftovers when they surface.
    if (f > cur_g + cur_h + 1e-9) continue;
    ++report.expansions;

    if (cur_h <= std::max(params.goal_tolerance, cell)) {
      reached = current;
      break;
    }

    for (const NeighborStep& nb : neighbors) {
      const int nx = cx + nb.dx;
      const int ny = cy + nb.dy;
      const int nz = cz + nb.dz;
      const Vec3 c = latticeCenter(nx, ny, nz, cell);
      ++report.generated;
      if (!params.bounds.contains(c)) continue;
      const std::uint32_t slot = arena.cellSlot(packLatticeKey(nx, ny, nz));
      PlannerArena::AStarCell& lattice_cell = arena.cellAt(slot);
      // The map is frozen for the duration of the search, so the inflated
      // occupancy probe (7 hash lookups in the map) runs once per cell, not
      // once per generating neighbor.
      if (lattice_cell.occupancy == 0)
        lattice_cell.occupancy = map.occupiedPoint(c) ? 2 : 1;
      if (lattice_cell.occupancy == 2) continue;
      const double g = cur_g + nb.step;
      if (lattice_cell.node == kNone) {
        lattice_cell.node = arena.newNode(packLatticeKey(nx, ny, nz), g, current);
        arena.heapPush(g + c.dist(goal), lattice_cell.node);
      } else if (g + 1e-12 < arena.node(lattice_cell.node).g) {
        PlannerArena::AStarNode& node = arena.node(lattice_cell.node);
        node.g = g;
        node.parent = current;
        arena.heapPush(g + c.dist(goal), lattice_cell.node);
      }
    }
  }

  if (reached == kNone) return result;

  // Reconstruct: start -> ... -> reached cell -> goal.
  std::vector<Vec3> rev;
  for (std::uint32_t n = reached;;) {
    const PlannerArena::AStarNode& node = arena.node(n);
    rev.push_back(latticeCenter(unpackLatticeX(node.key), unpackLatticeY(node.key),
                                unpackLatticeZ(node.key), cell));
    if (node.parent == kNone) break;
    n = node.parent;
  }
  std::reverse(rev.begin(), rev.end());
  rev.front() = start;
  rev.push_back(goal);
  result.path = std::move(rev);
  report.found = true;
  for (std::size_t i = 1; i < result.path.size(); ++i)
    report.path_cost += result.path[i].dist(result.path[i - 1]);
  return result;
}

AStarResult planPathAStar(const perception::PlannerMap& map, const Vec3& start,
                          const Vec3& goal, const AStarParams& params) {
  PlannerArena arena;
  return planPathAStar(map, start, goal, params, arena);
}

}  // namespace roborun::planning
