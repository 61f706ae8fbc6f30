#include "perception/octree.h"

#include <algorithm>
#include <array>
#include <bit>
#include <cmath>
#include <limits>
#include <stdexcept>

namespace roborun::perception {

namespace {

/// Deepest key level supported by 3-bits-per-level packing in 64 bits.
constexpr int kMaxKeyDepth = 21;

}  // namespace

OccupancyOctree::OccupancyOctree(const Aabb& extent, double voxel_min) : voxel_min_(voxel_min) {
  if (voxel_min <= 0.0) throw std::invalid_argument("OccupancyOctree: voxel_min must be > 0");
  const Vec3 size = extent.size();
  const double max_dim = std::max({size.x, size.y, size.z, voxel_min});
  max_depth_ = 0;
  root_size_ = voxel_min_;
  while (root_size_ < max_dim) {
    root_size_ *= 2.0;
    ++max_depth_;
  }
  if (max_depth_ > kMaxKeyDepth)
    throw std::invalid_argument("OccupancyOctree: extent/voxel_min needs more than 21 levels");
  const Vec3 c = extent.center();
  const Vec3 h{root_size_ * 0.5, root_size_ * 0.5, root_size_ * 0.5};
  root_box_ = {c - h, c + h};
  for (int level = 0; level <= max_depth_; ++level)
    level_size_.push_back(voxel_min_ * std::pow(2.0, level));
  for (double q = root_size_ * 0.25; static_cast<int>(ladder_q_.size()) < max_depth_; q *= 0.5)
    ladder_q_.push_back(q);
  pool_.push_back(Node{});  // the root leaf
  subtree_stats_.push_back(SubtreeStats{});
  subtree_valid_.push_back(0);
}

int OccupancyOctree::levelForPrecision(double precision) const {
  if (precision <= voxel_min_) return 0;
  int level = 0;
  double cell = voxel_min_;
  while (cell < precision - 1e-9 && level < max_depth_) {
    cell *= 2.0;
    ++level;
  }
  return level;
}

double OccupancyOctree::cellSizeAtLevel(int level) const {
  return level_size_[static_cast<std::size_t>(std::clamp(level, 0, max_depth_))];
}

double OccupancyOctree::snapPrecision(double precision) const {
  if (precision <= voxel_min_) return voxel_min_;
  double cell = voxel_min_;
  while (cell * 2.0 <= precision + 1e-9 && cell * 2.0 <= root_size_) cell *= 2.0;
  return cell;
}

std::uint64_t OccupancyOctree::cellKey(const Vec3& p, int level) const {
  // Pure arithmetic (no tree access): the same center-comparison ladder the
  // pointer descent used, so keyed and point updates bin identically even
  // for points sitting exactly on cell boundaries. Stops at the target
  // level — coarse cells need proportionally less ladder.
  //
  // Written branchlessly: the child choice per level is data-random, so a
  // conditional-move formulation beats a 50%-mispredicted branch ladder by
  // ~3x. copysign(q, p - c) walks the center exactly like the ?: form —
  // q is a power of two, the add is exact either way, and the p == c tie
  // produces +0.0, matching the `>=` convention of childIndexFor.
  const int depth = std::max(0, max_depth_ - std::clamp(level, 0, max_depth_));
  const Vec3 c0 = root_box_.center();
  double cx = c0.x, cy = c0.y, cz = c0.z;
  double q = root_size_ * 0.25;  // first-level child-center offset
  std::uint64_t key = 0;
  for (int d = 0; d < depth; ++d) {
    // +0.0 normalizes a -0.0 difference to +0.0 so copysign agrees with the
    // `>=` tie-break (p == center descends into the upper child).
    const double dx = (p.x - cx) + 0.0;
    const double dy = (p.y - cy) + 0.0;
    const double dz = (p.z - cz) + 0.0;
    const std::uint64_t ci = static_cast<std::uint64_t>(dx >= 0.0) |
                             (static_cast<std::uint64_t>(dy >= 0.0) << 1) |
                             (static_cast<std::uint64_t>(dz >= 0.0) << 2);
    key = (key << 3) | ci;
    cx += std::copysign(q, dx);
    cy += std::copysign(q, dy);
    cz += std::copysign(q, dz);
    q *= 0.5;
  }
  return key;
}

Vec3 OccupancyOctree::cellCenter(std::uint64_t key, int level) const {
  const int depth = std::max(0, max_depth_ - std::clamp(level, 0, max_depth_));
  Vec3 center = root_box_.center();
  double half = root_size_ * 0.5;
  for (int d = 0; d < depth; ++d) {
    const int ci = static_cast<int>((key >> (3 * (depth - 1 - d))) & 7u);
    center = childCenterFor(center, half, ci);
    half *= 0.5;
  }
  return center;
}

std::uint32_t OccupancyOctree::allocBlock() {
  std::uint32_t block;
  if (!free_blocks_.empty()) {
    block = free_blocks_.back();
    free_blocks_.pop_back();
  } else {
    block = static_cast<std::uint32_t>(pool_.size());
    pool_.resize(pool_.size() + 8);
    subtree_stats_.resize(pool_.size());
    subtree_valid_.resize(pool_.size());
    block_cells_.resize((pool_.size() - 1) / 8 * static_cast<std::size_t>(max_depth_));
  }
  // Whether recycled or fresh, the slots carry stale reductions.
  for (int i = 0; i < 8; ++i) subtree_valid_[block + static_cast<std::uint32_t>(i)] = 0;
  return block;
}

void OccupancyOctree::releaseBlockRec(std::uint32_t block) {
  for (int i = 0; i < 8; ++i) {
    Node& child = pool_[block + static_cast<std::uint32_t>(i)];
    if (child.first_child != kNoChild) {
      releaseBlockRec(child.first_child);
      child.first_child = kNoChild;
    }
  }
  free_blocks_.push_back(block);
}

void OccupancyOctree::collapseToLeaf(Node& node) {
  if (node.first_child == kNoChild) return;
  releaseBlockRec(node.first_child);
  node.first_child = kNoChild;
}

void OccupancyOctree::splitNode(std::uint32_t index) {
  const std::uint32_t block = allocBlock();  // may reallocate the pool
  subtree_valid_[index] = 0;  // leaf -> inner changes the node's reduction
  Node& node = pool_[index];
  for (int i = 0; i < 8; ++i) {
    Node& child = pool_[block + static_cast<std::uint32_t>(i)];
    child.first_child = kNoChild;
    child.state = node.state;
    child.has_occupied = node.has_occupied;
  }
  node.first_child = block;
}

void OccupancyOctree::finalizeNode(std::uint32_t index, std::uint32_t child_index) {
  // finalizeNode runs exactly on the ancestors of a structural change (the
  // walker's dirty levels), which is precisely the set of nodes whose
  // cached subtree reduction went stale.
  subtree_valid_[index] = 0;
  Node& node = pool_[index];
  // has_occupied is monotone (occupancy is sticky; nothing ever clears it
  // while structure exists), so propagating the bit of the one child the
  // walk just left is enough — the other children's bits were already
  // folded in when their own subtrees were last finalized.
  node.has_occupied |= pool_[child_index].has_occupied;
  const std::uint32_t block = node.first_child;
  const Node& first = pool_[block];
  if (!first.isLeaf()) return;
  const Occupancy uniform = first.state;
  for (int i = 1; i < 8; ++i) {
    const Node& child = pool_[block + static_cast<std::uint32_t>(i)];
    if (!child.isLeaf() || child.state != uniform) return;
  }
  free_blocks_.push_back(block);  // children are all leaves: one block
  node.first_child = kNoChild;
  node.state = uniform;
  node.has_occupied = uniform == Occupancy::Occupied ? 1 : 0;
}

/// Targets from a span of path keys: the shared prefix with the previous
/// key is the leading run of zero 3-bit groups of their xor.
struct OccupancyOctree::KeyCursor {
  std::span<const std::uint64_t> keys;
  int depth;
  std::size_t next_index = 0;
  std::uint64_t key = 0;
  std::uint64_t prev = 0;

  bool next() {
    if (next_index == keys.size()) return false;
    prev = key;
    key = keys[next_index++];
    return true;
  }
  /// Deepest level <= tip whose cell holds both the previous and this key.
  int restart(int tip) const {
    const std::uint64_t diff = key ^ prev;
    const int common = diff == 0 ? depth : depth - 1 - (std::bit_width(diff) - 1) / 3;
    return std::min(common, tip);
  }
  /// Child index of this key's cell at depth d.
  int child(int d) const { return static_cast<int>((key >> (3 * (depth - 1 - d))) & 7u); }
};

/// Targets from a ray march, keyed without building keys. Per depth d the
/// cursor keeps the center cellKey() compares against at d and the box of
/// points whose comparisons at depths < d match the current path: each box
/// edge is the running max (compared >=) or min (compared <) of the centers
/// above it, so "inside box d" is exactly "same first d key groups" — in
/// floating point too, since the centers come from cellKey()'s own
/// arithmetic rather than from cell geometry.
struct OccupancyOctree::RayCursor {
  struct Rung {
    double cx, cy, cz;  ///< the center compared at this depth
    double lx, ly, lz;  ///< box low edges (inclusive)
    double hx, hy, hz;  ///< box high edges (exclusive)
  };
  std::array<Rung, kMaxKeyDepth + 1> rung;  // filled lazily, depth by depth
  const double* q;                          ///< cellKey()'s per-depth offset
  Aabb root;
  Vec3 origin, dir;
  double step, length, t;
  SampleWindow window;
  std::size_t k = 0;  ///< sample index of t
  Vec3 p;             ///< the current sample

  RayCursor(const OccupancyOctree& tree, const Vec3& o, const Vec3& d, double s, double len,
            SampleWindow w)
      : q(tree.ladder_q_.data()), root(tree.root_box_), origin(o), dir(d), step(s), length(len),
        t(s * 0.5), window(w) {
    constexpr double kInf = std::numeric_limits<double>::infinity();
    const Vec3 c = root.center();
    rung[0] = {c.x, c.y, c.z, -kInf, -kInf, -kInf, kInf, kInf, kInf};
  }

  /// Step to the next in-window sample inside the root box. Samples before
  /// the window still advance t, so every sample keeps its full-march t.
  bool next() {
    for (; t < length && k <= window.last; t += step, ++k) {
      if (k < window.first) continue;
      p = origin + dir * t;
      if (root.contains(p)) {
        t += step;
        ++k;
        return true;
      }
    }
    return false;
  }
  /// Sample index of the current sample.
  std::size_t sample() const { return k - 1; }
  /// Climb from the tip to the deepest box that holds the sample.
  int restart(int tip) const {
    for (;; --tip) {
      const Rung& r = rung[static_cast<std::size_t>(tip)];
      // Non-short-circuit: six compares beat six data-dependent branches.
      if (tip == 0 || ((p.x >= r.lx) & (p.x < r.hx) & (p.y >= r.ly) & (p.y < r.hy) &
                       (p.z >= r.lz) & (p.z < r.hz)))
        return tip;
    }
  }
  /// One rung of cellKey()'s ladder at depth d; fills depth d + 1.
  int child(int d) {
    const Rung& r = rung[static_cast<std::size_t>(d)];
    // +0.0 and copysign exactly as in cellKey().
    const double dx = (p.x - r.cx) + 0.0;
    const double dy = (p.y - r.cy) + 0.0;
    const double dz = (p.z - r.cz) + 0.0;
    const double qd = q[d];
    const bool bx = dx >= 0.0, by = dy >= 0.0, bz = dz >= 0.0;
    rung[static_cast<std::size_t>(d) + 1] = {
        r.cx + std::copysign(qd, dx),       r.cy + std::copysign(qd, dy),
        r.cz + std::copysign(qd, dz),       bx ? std::max(r.lx, r.cx) : r.lx,
        by ? std::max(r.ly, r.cy) : r.ly,   bz ? std::max(r.lz, r.cz) : r.lz,
        bx ? r.hx : std::min(r.hx, r.cx),   by ? r.hy : std::min(r.hy, r.cy),
        bz ? r.hz : std::min(r.hz, r.cz)};
    return (bx ? 1 : 0) | (by ? 2 : 0) | (bz ? 4 : 0);
  }
};

template <typename Cursor>
void OccupancyOctree::walk(Cursor& cursor, int depth, Occupancy state) {
  // path[d] = pool index of the node at depth d along the current descent.
  // dirty bit d = the node at depth d saw a split or terminal write
  // somewhere beneath it and needs its merge/aggregate maintenance before
  // the walk leaves it; clean levels unwind for free (the steady-state case
  // of re-sweeping already-known space).
  std::array<std::uint32_t, kMaxKeyDepth + 1> path;
  std::uint32_t dirty = 0;
  path[0] = kRootIndex;
  int tip = 0;  // deepest level path[] is valid for
  bool first = true;

  while (cursor.next()) {
    // Restart the walk at the deepest ancestor shared with the previous
    // target: unwind (merging/refreshing aggregate bits) down to it, then
    // descend only the differing suffix. A target whose restart is the tip
    // itself is the previous cell again, or lies inside the same-state leaf
    // the previous descent stopped at: a no-op either way.
    int common = 0;
    if (!first) {
      common = cursor.restart(tip);
      if (common == tip) continue;
    }
    first = false;
    for (int d = tip - 1; d >= common; --d) {
      if (dirty & (1u << d)) {
        finalizeNode(path[d], path[d + 1]);
        dirty &= ~(1u << d);
      }
    }

    int d = common;
    bool structural = false;
    for (; d < depth; ++d) {
      if (pool_[path[d]].isLeaf()) {
        // The whole enclosing cell already has this state.
        if (pool_[path[d]].state == state) break;
        splitNode(path[d]);
        structural = true;
      }
      path[d + 1] = pool_[path[d]].first_child + static_cast<std::uint32_t>(cursor.child(d));
    }
    tip = d;
    // The terminal write. A target that is already a leaf in `state` is a
    // no-op (no split can precede it: a split copies a different state).
    Node& node = pool_[path[d]];
    if (d == depth && !(node.isLeaf() && node.state == state)) {
      if (state == Occupancy::Free) {
        // Sticky occupancy: never let a free-space sweep erase an obstacle
        // (one bit check — the seed implementation re-walked the subtree).
        if (!node.has_occupied) {
          collapseToLeaf(node);
          node.state = Occupancy::Free;
          subtree_valid_[path[depth]] = 0;
          structural = true;
        }
      } else {
        collapseToLeaf(node);
        node.state = Occupancy::Occupied;
        node.has_occupied = 1;
        subtree_valid_[path[depth]] = 0;
        structural = true;
      }
    }
    // A split chain with a sticky-rejected terminal still altered structure
    // (the seed code split on the way down and re-merged on the way up), so
    // ancestors must run their merge checks either way.
    if (structural) dirty |= (1u << tip) - 1u;
  }
  for (int d = tip - 1; d >= 0; --d) {
    if (dirty & (1u << d)) finalizeNode(path[d], path[d + 1]);
  }
  // (dirty bits above `tip` cannot exist: marks only ever cover levels
  // below the current path tip, and unwinds clear as they go.)
}

void OccupancyOctree::applyKeys(std::span<const std::uint64_t> keys, int depth,
                                Occupancy state) {
  KeyCursor cursor{keys, depth};
  walk(cursor, depth, state);
}

void OccupancyOctree::updateCell(const Vec3& p, int level, Occupancy state) {
  if (!root_box_.contains(p) || state == Occupancy::Unknown) return;
  const int depth = std::max(0, max_depth_ - std::clamp(level, 0, max_depth_));
  stats_dirty_ = true;
  const std::uint64_t key = cellKey(p, level);
  applyKeys({&key, 1}, depth, state);
}

void OccupancyOctree::updateCells(std::span<const std::uint64_t> keys, int level,
                                  Occupancy state) {
  if (keys.empty() || state == Occupancy::Unknown) return;
  const int depth = std::max(0, max_depth_ - std::clamp(level, 0, max_depth_));
  stats_dirty_ = true;
  applyKeys(keys, depth, state);
}

void OccupancyOctree::updateRay(const Vec3& origin, const Vec3& dir, double step, double length,
                                int level, Occupancy state, SampleWindow window) {
  // A step that is not positive (or NaN) would never advance t.
  if (state == Occupancy::Unknown || !(step > 0.0) || window.empty()) return;
  const int depth = std::max(0, max_depth_ - std::clamp(level, 0, max_depth_));
  stats_dirty_ = true;
  RayCursor cursor(*this, origin, dir, step, length, window);
  walk(cursor, depth, state);
}

SampleWindow OccupancyOctree::liveSpan(const Vec3& origin, const Vec3& dir, double step,
                                       double length, int level) const {
  SampleWindow live{std::numeric_limits<std::size_t>::max(), 0};  // empty
  if (!(step > 0.0)) return live;
  const int depth = std::max(0, max_depth_ - std::clamp(level, 0, max_depth_));
  // walk()'s descent without the writes: stop at a leaf or at the target
  // depth, and classify the node reached.
  RayCursor cursor(*this, origin, dir, step, length, SampleWindow{});
  std::array<std::uint32_t, kMaxKeyDepth + 1> path;
  path[0] = kRootIndex;
  int tip = 0;
  bool first = true;
  bool settled = true;
  while (cursor.next()) {
    // A sample whose restart is the tip lies in the node the previous
    // sample classified.
    const int common = first ? 0 : cursor.restart(tip);
    if (first || common != tip) {
      int d = common;
      for (; d < depth && !pool_[path[d]].isLeaf(); ++d)
        path[d + 1] = pool_[path[d]].first_child + static_cast<std::uint32_t>(cursor.child(d));
      tip = d;
      const Node& node = pool_[path[d]];
      settled = node.isLeaf() ? node.state != Occupancy::Unknown : node.has_occupied != 0;
      first = false;
    }
    if (!settled) {
      live.first = std::min(live.first, cursor.sample());
      live.last = cursor.sample();
    }
  }
  return live;
}

Occupancy OccupancyOctree::query(const Vec3& p) const {
  if (!root_box_.contains(p)) return Occupancy::Unknown;
  const Node* node = &pool_[kRootIndex];
  Vec3 center = root_box_.center();
  double half = root_size_ * 0.5;
  while (!node->isLeaf()) {
    const int ci = childIndexFor(center, p);
    center = childCenterFor(center, half, ci);
    half *= 0.5;
    node = &pool_[node->first_child + static_cast<std::uint32_t>(ci)];
  }
  return node->state;
}

Occupancy OccupancyOctree::queryAtLevel(const Vec3& p, int level) const {
  if (!root_box_.contains(p)) return Occupancy::Unknown;
  const int depth_stop = std::max(0, max_depth_ - std::clamp(level, 0, max_depth_));
  const Node* node = &pool_[kRootIndex];
  Vec3 center = root_box_.center();
  double half = root_size_ * 0.5;
  int depth = 0;
  while (!node->isLeaf() && depth < depth_stop) {
    const int ci = childIndexFor(center, p);
    center = childCenterFor(center, half, ci);
    half *= 0.5;
    node = &pool_[node->first_child + static_cast<std::uint32_t>(ci)];
    ++depth;
  }
  if (node->isLeaf()) return node->state;
  // Finer structure below the requested level: the coarse view is occupied
  // if anything beneath is (voxel inflation), else free.
  return node->has_occupied ? Occupancy::Occupied : Occupancy::Free;
}

const OccupancyOctree::Stats& OccupancyOctree::stats() const {
  if (stats_dirty_) {
    const SubtreeStats& root = reduceStats(kRootIndex, root_size_);
    stats_cache_.occupied_leaves = root.occupied_leaves;
    stats_cache_.free_leaves = root.free_leaves;
    stats_cache_.inner_nodes = root.inner_nodes;
    stats_cache_.occupied_volume = root.occupied_volume;
    stats_cache_.free_volume = root.free_volume;
    stats_dirty_ = false;
  }
  return stats_cache_;
}

const OccupancyOctree::SubtreeStats& OccupancyOctree::reduceStats(std::uint32_t index,
                                                                  double size) const {
  if (subtree_valid_[index]) return subtree_stats_[index];
  const Node& node = pool_[index];
  SubtreeStats s;
  if (node.isLeaf()) {
    const double vol = size * size * size;
    if (node.state == Occupancy::Occupied) {
      s.occupied_leaves = 1;
      s.occupied_volume = vol;
    } else if (node.state == Occupancy::Free) {
      s.free_leaves = 1;
      s.free_volume = vol;
    }
  } else {
    // Child-index order, children's own reductions first: the value is a
    // pure function of tree shape, so cached and recomputed answers are
    // bit-identical no matter which updates invalidated which paths.
    s.inner_nodes = 1;
    const double half = size * 0.5;
    for (int ci = 0; ci < 8; ++ci) {
      const SubtreeStats& c =
          reduceStats(node.first_child + static_cast<std::uint32_t>(ci), half);
      s.occupied_leaves += c.occupied_leaves;
      s.free_leaves += c.free_leaves;
      s.inner_nodes += c.inner_nodes;
      s.occupied_volume += c.occupied_volume;
      s.free_volume += c.free_volume;
    }
    // Occupied cell counts for the levels whose cells are finer than this
    // node (coarser levels read has_occupied directly, see occupiedCells).
    for (int level = 1;
         level <= max_depth_ && size > level_size_[static_cast<std::size_t>(level)] + 1e-9;
         ++level) {
      std::uint32_t cells = 0;
      for (int ci = 0; ci < 8; ++ci)
        cells += occupiedCells(pool_[node.first_child + static_cast<std::uint32_t>(ci)], half,
                               level);
      block_cells_[blockCellsSlot(node.first_child, level)] = cells;
    }
  }
  subtree_stats_[index] = s;
  subtree_valid_[index] = 1;
  return subtree_stats_[index];
}

std::vector<VoxelBox> OccupancyOctree::collectOccupied(int level) const {
  return collectOccupied(level, root_box_.center(), std::numeric_limits<double>::infinity());
}

std::vector<VoxelBox> OccupancyOctree::collectOccupied(int level, const Vec3& position,
                                                       double radius) const {
  const double target = cellSizeAtLevel(level);
  const double inv = 1.0 / target;
  const double reach = radius + 1e-6;
  std::vector<VoxelBox> out;
  if (reach < 0.0) return out;  // a negative radius keeps nothing
  auto emit = [&](const Vec3& center, double size) {
    if (size > target + 1e-9) {
      out.push_back({center, size});  // coarser-than-target leaves pass through as one box
      return;
    }
    // Snap the target-size cell onto the level grid.
    const auto kx = static_cast<std::int64_t>(std::floor((center.x - root_box_.lo.x) * inv));
    const auto ky = static_cast<std::int64_t>(std::floor((center.y - root_box_.lo.y) * inv));
    const auto kz = static_cast<std::int64_t>(std::floor((center.z - root_box_.lo.z) * inv));
    const Vec3 snapped{root_box_.lo.x + (kx + 0.5) * target,
                       root_box_.lo.y + (ky + 0.5) * target,
                       root_box_.lo.z + (kz + 0.5) * target};
    out.push_back({snapped, target});
  };
  visitOccupiedRec(kRootIndex, root_box_.center(), root_size_, target, position, reach * reach,
                   emit);
  return out;
}

std::size_t OccupancyOctree::occupiedCellCount(int level) const {
  const int l = std::clamp(level, 0, max_depth_);
  if (l == 0) return stats().occupied_leaves;
  reduceStats(kRootIndex, root_size_);
  return occupiedCells(pool_[kRootIndex], root_size_, l);
}

double OccupancyOctree::nearestOccupiedDistance(const Vec3& p, double fallback) const {
  double best = fallback;
  struct Frame {
    std::uint32_t index;
    Vec3 center;
    double half;
  };
  std::vector<Frame> stack;
  if (pool_[kRootIndex].has_occupied || pool_[kRootIndex].state == Occupancy::Occupied)
    stack.push_back({kRootIndex, root_box_.center(), root_size_ * 0.5});
  while (!stack.empty()) {
    const Frame f = stack.back();
    stack.pop_back();
    if (std::sqrt(distToBox2(p, f.center, f.half)) >= best) continue;
    const Node& node = pool_[f.index];
    if (node.isLeaf()) {
      if (node.state == Occupancy::Occupied) best = std::sqrt(distToBox2(p, f.center, f.half));
      continue;
    }
    for (int ci = 0; ci < 8; ++ci) {
      const std::uint32_t child = node.first_child + static_cast<std::uint32_t>(ci);
      if (!pool_[child].has_occupied) continue;  // nothing occupied beneath
      stack.push_back({child, childCenterFor(f.center, f.half, ci), f.half * 0.5});
    }
  }
  return best;
}

}  // namespace roborun::perception
