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

/// cellCoords()' guard band, in cells: its floor, and the width above which
/// every point takes the ladder (see the derivation in octree.h).
constexpr double kMinGuard = 1e-6;
constexpr double kMaxGuard = 0.25;

/// Bit i of v (i < 21) moved to bit 3i: one coordinate's share of a path
/// key, whose depth-d group holds bit (depth - 1 - d) of x, y and z.
std::uint64_t spreadBits3(std::uint32_t v) {
  std::uint64_t x = v & 0x1FFFFFu;
  x = (x | (x << 32)) & 0x001F00000000FFFFull;
  x = (x | (x << 16)) & 0x001F0000FF0000FFull;
  x = (x | (x << 8)) & 0x100F00F00F00F00Full;
  x = (x | (x << 4)) & 0x10C30C30C30C30C3ull;
  x = (x | (x << 2)) & 0x1249249249249249ull;
  return x;
}

/// Sets i = floor(f) and says whether f lies in [0, cells) with its
/// fraction in [guard, 1 - guard]. Truncation is floor there; anything
/// else (negative, too large, NaN) is cast as 0 and leaves a "fraction"
/// of f itself, which fails the band test.
inline bool gridCoord(double f, double cells, double guard, std::uint32_t& i) {
  i = static_cast<std::uint32_t>((f >= 0.0) & (f < cells) ? f : 0.0);
  const double r = f - i;  // exact
  return (r >= guard) & (r <= 1.0 - guard);
}

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
  inv_root_ = 1.0 / root_size_;
  // The fast path's guard band, in root-size units (see cellCoords() in the
  // header for the derivation): 4 (maxDepth + 4) eps 2 M / root_size, M the
  // largest root coordinate magnitude.
  const double m = std::max({std::abs(root_box_.lo.x), std::abs(root_box_.lo.y),
                             std::abs(root_box_.lo.z), std::abs(root_box_.hi.x),
                             std::abs(root_box_.hi.y), std::abs(root_box_.hi.z)});
  guard_root_ = 4.0 * (max_depth_ + 4) * std::numeric_limits<double>::epsilon() * 2.0 * m *
                inv_root_;
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

OccupancyOctree::CellCoords OccupancyOctree::ladderCoords(const Vec3& p, int depth) const {
  // Pure arithmetic (no tree access): the center-comparison ladder of the
  // seed's pointer descent, so keyed and point updates bin identically even
  // for points sitting exactly on cell boundaries.
  //
  // Written branchlessly: the child choice per level is data-random, so a
  // conditional-move formulation beats a 50%-mispredicted branch ladder by
  // ~3x. copysign(q, p - c) walks the center exactly like the ?: form —
  // q is a power of two, the add is exact either way, and the p == c tie
  // produces +0.0, matching the `>=` convention of childIndexFor.
  const Vec3 c0 = root_box_.center();
  double cx = c0.x, cy = c0.y, cz = c0.z;
  double q = root_size_ * 0.25;  // first-level child-center offset
  CellCoords cell;
  for (int d = 0; d < depth; ++d) {
    // +0.0 normalizes a -0.0 difference to +0.0 so copysign agrees with the
    // `>=` tie-break (p == center descends into the upper child).
    const double dx = (p.x - cx) + 0.0;
    const double dy = (p.y - cy) + 0.0;
    const double dz = (p.z - cz) + 0.0;
    cell.x = (cell.x << 1) | static_cast<std::uint32_t>(dx >= 0.0);
    cell.y = (cell.y << 1) | static_cast<std::uint32_t>(dy >= 0.0);
    cell.z = (cell.z << 1) | static_cast<std::uint32_t>(dz >= 0.0);
    cx += std::copysign(q, dx);
    cy += std::copysign(q, dy);
    cz += std::copysign(q, dz);
    q *= 0.5;
  }
  return cell;
}

inline OccupancyOctree::CellCoords OccupancyOctree::cellCoords(const Vec3& p, int depth) const {
  const double cells = static_cast<double>(std::uint32_t{1} << depth);  // 2^depth, exact
  const double guard = std::max(kMinGuard, guard_root_ * cells);
  const double inv = inv_root_ * cells;
  CellCoords cell;
  if (guard <= kMaxGuard && gridCoord((p.x - root_box_.lo.x) * inv, cells, guard, cell.x) &
                                gridCoord((p.y - root_box_.lo.y) * inv, cells, guard, cell.y) &
                                gridCoord((p.z - root_box_.lo.z) * inv, cells, guard, cell.z))
      [[likely]]
    return cell;
  return ladderCoords(p, depth);
}

std::uint64_t OccupancyOctree::cellKey(const Vec3& p, int level) const {
  const CellCoords cell = cellCoords(p, std::max(0, max_depth_ - std::clamp(level, 0, max_depth_)));
  return spreadBits3(cell.x) | (spreadBits3(cell.y) << 1) | (spreadBits3(cell.z) << 2);
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

/// Targets from a ray march, keyed without building keys: each sample's
/// target cell as cellCoords() coordinates, whose bit (depth - 1 - d) per
/// axis is the sample's child index at depth d. Two samples share their
/// depth-d ancestor exactly when their coordinates agree above bit
/// depth - 1 - d.
struct OccupancyOctree::RayCursor {
  const OccupancyOctree& tree;
  int depth;
  Aabb root;
  Vec3 origin, dir;
  double step, length, t;
  SampleWindow window;
  std::size_t k = 0;  ///< sample index of t
  CellCoords cell;    ///< the current sample's cell
  CellCoords prev;    ///< the previous sample's cell

  RayCursor(const OccupancyOctree& tr, int target_depth, const Vec3& o, const Vec3& d, double s,
            double len, SampleWindow w)
      : tree(tr), depth(target_depth), root(tr.root_box_), origin(o), dir(d), step(s),
        length(len), t(s * 0.5), window(w) {}

  /// Step to the next in-window sample inside the root box. Samples before
  /// the window still advance t, so every sample keeps its full-march t.
  bool next() {
    for (; t < length && k <= window.last; t += step, ++k) {
      if (k < window.first) continue;
      const Vec3 p = origin + dir * t;
      if (root.contains(p)) {
        prev = cell;
        cell = tree.cellCoords(p, depth);
        t += step;
        ++k;
        return true;
      }
    }
    return false;
  }
  /// Sample index of the current sample.
  std::size_t sample() const { return k - 1; }
  /// Deepest level <= tip whose cell holds both this sample and the
  /// previous one. The path up to tip was descended for the previous sample
  /// or for one sharing its first tip levels, so this is also the deepest
  /// path node whose cell holds this sample.
  int restart(int tip) const {
    const std::uint32_t diff = (cell.x ^ prev.x) | (cell.y ^ prev.y) | (cell.z ^ prev.z);
    return std::min(tip, depth - static_cast<int>(std::bit_width(diff)));
  }
  /// Child index of this sample's cell at depth d.
  int child(int d) const {
    const int s = depth - 1 - d;
    return static_cast<int>(((cell.x >> s) & 1u) | (((cell.y >> s) & 1u) << 1) |
                            (((cell.z >> s) & 1u) << 2));
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
  RayCursor cursor(*this, depth, origin, dir, step, length, window);
  walk(cursor, depth, state);
}

SampleWindow OccupancyOctree::liveSpan(const Vec3& origin, const Vec3& dir, double step,
                                       double length, int level) const {
  SampleWindow live{std::numeric_limits<std::size_t>::max(), 0};  // empty
  if (!(step > 0.0)) return live;
  const int depth = std::max(0, max_depth_ - std::clamp(level, 0, max_depth_));
  // walk()'s descent without the writes: stop at a leaf or at the target
  // depth, and classify the node reached.
  RayCursor cursor(*this, depth, origin, dir, step, length, SampleWindow{});
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
