// Occupancy octree — the reproduction's OctoMap.
//
// An octree over a power-of-two cube, stored as a contiguous node pool:
// nodes live in one std::vector and address their 8 children as a single
// uint32_t block index (plus a free-list of recycled blocks), so a descent
// walks an array instead of chasing heap pointers and a split never calls
// the allocator in steady state. Leaves carry a tri-state occupancy
// (Unknown until observed; Occupied is sticky over Free, the conservative
// choice for a collision map). Every node also carries a `has_occupied`
// subtree bit maintained incrementally on the update path, making the
// sticky-free check, coarse queries and occupied-collection pruning O(1)
// per node instead of a recursive subtree scan.
//
// Updates may target any tree level: the *precision* knobs choose the
// level, so coarse policies write coarse leaves and fine policies write
// fine ones — exactly the mechanism behind the paper's precision operators
// (raytracer step size, map pruning). Uniform sibling leaves merge eagerly,
// which is OctoMap's pruning.
//
// The hot insertion path is batched: a cell is named by a Morton-style
// *path key* (the concatenated child indices of its root-to-cell descent,
// see cellKey()), and updateCells() applies a whole same-level/same-state
// batch in key order, reusing the shared tree prefix between consecutive
// keys instead of re-descending from the root per cell. Cells are binned on
// integer coordinates at the target level, floor((p - lo) / cell) per axis;
// a point within a guard band of a grid plane is binned by the seed's
// center-comparison ladder instead, so every bin is the ladder's. A ray
// march skips the keys altogether: updateRay() walks the tree along the
// ray, restarting each sample at the deepest ancestor it shares with the
// previous one (the highest coordinate bit that differs), through the same
// walk. liveSpan() is the read-only twin of that walk: it names the sample
// window of a free-space march that can still change the tree, so a sweep
// can classify its rays concurrently and walk only those windows.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <span>
#include <vector>

#include "geom/aabb.h"
#include "geom/vec3.h"

namespace roborun::perception {

using geom::Aabb;
using geom::Vec3;

enum class Occupancy : std::uint8_t { Unknown = 0, Free = 1, Occupied = 2 };

/// An axis-aligned cubic voxel (center + edge length).
struct VoxelBox {
  Vec3 center;
  double size = 0.0;

  Aabb box() const {
    const Vec3 h{size * 0.5, size * 0.5, size * 0.5};
    return {center - h, center + h};
  }
  double volume() const { return size * size * size; }
};

/// An inclusive window [first, last] of a ray march's sample indices: index
/// k is the k-th step of the march from t = step/2 (t advanced by repeated
/// t += step), counting samples outside the root box too. The default
/// window holds every sample; first > last is the empty window.
struct SampleWindow {
  std::size_t first = 0;
  std::size_t last = std::numeric_limits<std::size_t>::max();
  bool empty() const { return first > last; }
};

class OccupancyOctree {
 public:
  /// Tree over a cube large enough to hold `extent`, with finest voxel size
  /// `voxel_min` (the paper's voxmin; all knob precisions are voxel_min*2^n).
  OccupancyOctree(const Aabb& extent, double voxel_min);

  double voxelMin() const { return voxel_min_; }
  int maxDepth() const { return max_depth_; }
  double rootSize() const { return root_size_; }
  const Aabb& rootBox() const { return root_box_; }

  /// Tree level whose cell size is the power-of-two precision >= `precision`
  /// (level 0 = finest). Precisions below voxel_min clamp to level 0.
  int levelForPrecision(double precision) const;
  /// Cell edge length at a level.
  double cellSizeAtLevel(int level) const;
  /// Snap an arbitrary precision onto the power-of-two grid (paper Eq. 3's
  /// p in {voxmin * 2^n} constraint), rounding down for safety.
  double snapPrecision(double precision) const;

  /// Path key of the level-`level` cell containing `p`: 3 bits per level,
  /// most-significant group = the root's child index, maxDepth() - level
  /// groups in all. The groups interleave the cell's integer coordinates
  /// (cellCoords()). Every key is the one the seed's center-comparison
  /// descent gives (points near a cell face take that ladder itself), so
  /// keyed updates bin points exactly like point updates do. `p` must be
  /// inside rootBox(). Level 0 (the default) names the finest voxel.
  std::uint64_t cellKey(const Vec3& p, int level = 0) const;
  /// Center of the cell a cellKey(p, level) key names (inverse of cellKey).
  Vec3 cellCenter(std::uint64_t key, int level) const;

  /// Set the cell containing p at `level` to `state`. Occupied is sticky:
  /// a Free update cannot overwrite an Occupied cell (or any cell whose
  /// subtree contains occupancy). Points outside the root cube are ignored.
  void updateCell(const Vec3& p, int level, Occupancy state);

  /// Batched form of updateCell for one level and one state: `keys` are
  /// cellKey(p, level) values for the same `level`, applied in caller order
  /// with the walk between consecutive keys restarted at their deepest
  /// shared ancestor rather than at the root. A same-level/same-state batch
  /// is order-independent (free updates never change where occupancy lives,
  /// occupied updates never fail), so ANY key order is correct — see
  /// octree_equivalence_test. Walk cost, however, tracks key coherence:
  /// ray marches are naturally Morton-coherent and need no preprocessing
  /// (sorting them costs more than it saves); spatially scattered batches
  /// benefit from a std::sort first.
  void updateCells(std::span<const std::uint64_t> keys, int level, Occupancy state);

  /// Fused ray march: exactly updateCells() over the cellKey(p, level) keys
  /// of the samples p = origin + dir * t, t = step/2, 3*step/2, ... while
  /// t < length, skipping samples outside rootBox(). The keys are never
  /// built: each sample gets cellKey()'s integer cell coordinates (the
  /// ladder's, near a face), the walk restarts at depth - bit_width of the
  /// coordinate xor with the previous sample, and each child index below it
  /// is one bit per axis. A sample that stays in the current cell (or in
  /// the same-state leaf the walk stopped at) costs no descent. A `step`
  /// that is not positive marks nothing. Only samples inside `window` are
  /// applied; the march still steps t from step/2, so a windowed sample
  /// sits at exactly the t the full march gives it.
  void updateRay(const Vec3& origin, const Vec3& dir, double step, double length, int level,
                 Occupancy state, SampleWindow window = {});

  /// The window of a Free updateRay() march (same arguments) that can still
  /// change the tree: its first and last sample whose level-`level` cell is
  /// not *settled*. A cell is settled when it lies inside a known (Free or
  /// Occupied) leaf or its node holds occupancy. A free write to a settled
  /// cell leaves the tree's shape as it was, and within a sweep a settled
  /// cell stays settled (free writes only add Free; occupancy is sticky).
  /// So marching only these windows, classified against the tree as the
  /// sweep found it, ends in the same tree: the same stats(),
  /// collectOccupied() and liveNodeCount(); only poolSize() may be smaller.
  /// Samples are binned and restarted exactly as updateRay() bins them.
  /// Empty when no sample can change anything. Read-only (no cache is
  /// touched), so concurrent calls on a tree nobody writes are safe.
  SampleWindow liveSpan(const Vec3& origin, const Vec3& dir, double step, double length,
                        int level) const;

  /// Occupancy of the finest known cell containing p (Unknown outside).
  Occupancy query(const Vec3& p) const;

  /// Like query(), but stop descending at `level` — a coarse view of the
  /// map: if any part of the level-cell subtree is occupied, it reads
  /// Occupied (the inflation that makes coarse precision conservative).
  Occupancy queryAtLevel(const Vec3& p, int level) const;

  struct Stats {
    std::size_t occupied_leaves = 0;
    std::size_t free_leaves = 0;
    std::size_t inner_nodes = 0;
    double occupied_volume = 0.0;  ///< m^3
    double free_volume = 0.0;      ///< m^3
    double mappedVolume() const { return occupied_volume + free_volume; }
    std::size_t leafCount() const { return occupied_leaves + free_leaves; }
  };
  /// Incremental per-subtree reduction: each node caches its subtree's
  /// Stats, the update walk invalidates only the root-to-write paths it
  /// actually touched, and stats() re-reduces just those paths (leaning on
  /// every untouched sibling's cached value). Cost per call tracks the
  /// number of cells updated since the last call, not tree size — the
  /// full-DFS recompute this replaces was the dominant per-decision
  /// profiler cost on grown maps. The reduction is a pure function of tree
  /// shape (child-index order within each subtree), so the returned value
  /// is independent of update history; its float accumulation ORDER,
  /// however, is hierarchical rather than the old single-accumulator DFS,
  /// so volumes differ in the last bits from the frozen seed reference
  /// (the deliberate equivalence break tracked in ROADMAP).
  const Stats& stats() const;

  /// All occupied space coarsened to `level`, in the deterministic
  /// child-index DFS order the bridge and tests rely on: every occupied
  /// leaf coarser than or at the level cell size passes through as itself,
  /// and every level cell whose finer subtree holds any occupancy is
  /// emitted once, snapped onto the level grid (edge cellSizeAtLevel(level)).
  /// Emitted cells are distinct tree cells, so the output has no duplicates.
  /// Subtrees with no occupancy are pruned via the has_occupied bit.
  std::vector<VoxelBox> collectOccupied(int level) const;
  /// The same walk culled to a sphere: subtrees whose box lies farther than
  /// `radius` (+1e-6 m) from `position` are skipped. The result is a
  /// subsequence of collectOccupied(level), in the same order and bit for
  /// bit, containing every voxel whose center is within `radius` (the
  /// bridge applies its exact center-distance filter on top).
  std::vector<VoxelBox> collectOccupied(int level, const Vec3& position, double radius) const;

  /// Number of voxels collectOccupied(level) returns, read from the lazily
  /// reduced per-subtree cache (no walk when nothing changed since the
  /// last reduction; otherwise only the touched paths are re-reduced).
  std::size_t occupiedCellCount(int level) const;

  /// Nearest occupied voxel center to `p`, found by a best-first descent
  /// pruned by the has_occupied bit (empty subtrees are never entered).
  /// Returns distance, or `fallback` if the map has no occupied cell.
  double nearestOccupiedDistance(const Vec3& p, double fallback) const;

  /// Pool occupancy diagnostics: live nodes (root + allocated child blocks
  /// minus the free-list) and the pool's total capacity in nodes.
  std::size_t liveNodeCount() const { return pool_.size() - 8 * free_blocks_.size(); }
  std::size_t poolSize() const { return pool_.size(); }

 private:
  /// kNoChild marks a leaf; any other value is the pool index of the first
  /// of 8 contiguous children (child ci lives at first_child + ci).
  static constexpr std::uint32_t kNoChild = 0xFFFFFFFFu;
  static constexpr std::uint32_t kRootIndex = 0;

  struct Node {
    std::uint32_t first_child = kNoChild;
    Occupancy state = Occupancy::Unknown;
    std::uint8_t has_occupied = 0;  ///< subtree (or leaf) contains Occupied
    bool isLeaf() const { return first_child == kNoChild; }
  };

  static int childIndexFor(const Vec3& center, const Vec3& p) {
    return (p.x >= center.x ? 1 : 0) | (p.y >= center.y ? 2 : 0) | (p.z >= center.z ? 4 : 0);
  }
  static Vec3 childCenterFor(const Vec3& center, double half, int ci) {
    const double q = half * 0.5;
    return {center.x + ((ci & 1) ? q : -q), center.y + ((ci & 2) ? q : -q),
            center.z + ((ci & 4) ? q : -q)};
  }

  /// Squared distance from p to the cube at `center` with half-edge `half`.
  static double distToBox2(const Vec3& p, const Vec3& center, double half) {
    const double dx = std::max(std::abs(p.x - center.x) - half, 0.0);
    const double dy = std::max(std::abs(p.y - center.y) - half, 0.0);
    const double dz = std::max(std::abs(p.z - center.z) - half, 0.0);
    return dx * dx + dy * dy + dz * dz;
  }

  /// Allocate/recycle a block of 8 children (indices are stable; the pool
  /// vector may reallocate, so re-resolve Node references after calling).
  std::uint32_t allocBlock();
  /// Return `block` and every block beneath it to the free-list.
  void releaseBlockRec(std::uint32_t block);
  /// Make `node` a leaf, recycling its whole subtree.
  void collapseToLeaf(Node& node);
  /// Split a leaf: children copy its state (and therefore its bit).
  void splitNode(std::uint32_t index);
  /// Merge-or-refresh the aggregate state of the node at `index` after the
  /// walk leaves its child at `child_index` (the unwind step of walk()).
  void finalizeNode(std::uint32_t index, std::uint32_t child_index);
  /// Integer coordinates of a cell at some target depth: bit depth - 1 - d
  /// of each axis is that axis's bit of the child index at depth d.
  struct CellCoords {
    std::uint32_t x = 0, y = 0, z = 0;
  };
  /// The cell of `p` at `depth` as cellKey() bins it. Fast path: X =
  /// floor((p.x - lo.x) * inv), inv = 2^depth / rootSize(), and so on for y
  /// and z. It equals the ladder's answer whenever every axis's fraction
  /// lies more than the guard band g from 0 and 1, so a sample inside the
  /// band (or off the grid) takes ladderCoords() instead.
  ///
  /// The guard bound. Let u = eps/2 be the unit roundoff, M the largest
  /// |coordinate| of rootBox() (no ladder center or in-root sample has a
  /// larger one) and s = rootSize() / 2^depth the cell edge.
  /// - Ladder centers: center() = (lo + hi) * 0.5 is within 2uM of the
  ///   exact lo + rootSize()/2 (lo and hi round by uM each, the sum by
  ///   2uM, the halving is exact). Each rung adds a power of two and rounds
  ///   by at most uM, so every center is within (maxDepth() + 2) u M of its
  ///   grid plane lo + j s.
  /// - The sample: p - lo rounds by at most u |p - lo| <= 2uM, and inv and
  ///   the product carry a relative error of u each on a value <= 2M / s,
  ///   so X's fraction is within 6uM / s of the exact (p - lo) / s.
  /// A fraction further than (maxDepth() + 8) u M / s from 0 and 1 therefore
  /// sits on the same side of every ladder center as of its plane, and each
  /// comparison matches the coordinate bit. The guard used is
  /// g = max(1e-6, 4 (maxDepth() + 4) eps 2M / s), over 8x that bound; where
  /// g exceeds 0.25 of a cell (0.3 m cells on a root some 1e12-1e13 m
  /// from the origin) the fast path is off and every point takes the ladder.
  CellCoords cellCoords(const Vec3& p, int depth) const;
  /// The seed's center-comparison ladder, descended `depth` levels: the
  /// exact definition of every bin, used for points near a face.
  CellCoords ladderCoords(const Vec3& p, int depth) const;

  /// The two target sources of walk(): a span of path keys, and a ray
  /// march whose keys are derived on the fly (see octree.cpp).
  struct KeyCursor;
  struct RayCursor;
  /// The one update walker: apply `state` at `depth` to each target the
  /// cursor yields, in order, restarting at the deepest ancestor shared with
  /// the previous target (adjacent duplicates collapse to one application;
  /// non-adjacent repeats and targets already in `state` are no-ops).
  template <typename Cursor>
  void walk(Cursor& cursor, int depth, Occupancy state);
  /// walk() over a span of cellKey() keys.
  void applyKeys(std::span<const std::uint64_t> keys, int depth, Occupancy state);

  /// Per-node cached subtree reduction (compact mirror of Stats: counts fit
  /// u32 because they are bounded by pool indices). One entry per pool slot;
  /// the per-level occupied cell counts of the same reduction live in
  /// block_cells_.
  struct SubtreeStats {
    std::uint32_t occupied_leaves = 0;
    std::uint32_t free_leaves = 0;
    std::uint32_t inner_nodes = 0;
    double occupied_volume = 0.0;
    double free_volume = 0.0;
  };
  /// Return the (recomputing if stale) cached reduction for `index`. The
  /// same reduction refreshes the node's per-level occupied cell counts.
  const SubtreeStats& reduceStats(std::uint32_t index, double size) const;
  /// collectOccupied(level).size() restricted to the subtree of `node`
  /// (edge `size`), for level >= 1, given a valid reduction of `node`: an
  /// occupied leaf counts 1, an inner node at or below the level cell size
  /// counts its has_occupied bit, a larger inner node the cached sum over
  /// its children.
  std::uint32_t occupiedCells(const Node& node, double size, int level) const {
    if (node.isLeaf()) return node.state == Occupancy::Occupied ? 1u : 0u;
    if (size <= level_size_[static_cast<std::size_t>(level)] + 1e-9) return node.has_occupied;
    return block_cells_[blockCellsSlot(node.first_child, level)];
  }
  /// block_cells_ index of level `level` (>= 1) for the inner node whose
  /// children are the block at `first_child`.
  std::size_t blockCellsSlot(std::uint32_t first_child, int level) const {
    return (first_child - 1) / 8 * static_cast<std::size_t>(max_depth_) +
           static_cast<std::size_t>(level - 1);
  }

  /// The one occupied walk behind collectOccupied: child-index DFS that
  /// emits `visit(center, size)` per occupied leaf and per occupied cell at
  /// `target_size`, skipping empty subtrees and any subtree whose box is
  /// farther than sqrt(reach2) from `position`.
  template <typename Visitor>
  void visitOccupiedRec(std::uint32_t index, const Vec3& center, double size, double target_size,
                        const Vec3& position, double reach2, Visitor& visit) const {
    const Node& node = pool_[index];
    if (node.isLeaf() ? node.state != Occupancy::Occupied : !node.has_occupied) return;
    const double half = size * 0.5;
    if (distToBox2(position, center, half) > reach2) return;
    // Occupied leaves emit as they are. An inner node at the target cell
    // size emits whole: the pruned view marks the cell occupied if anything
    // in its subtree is.
    if (node.isLeaf() || size <= target_size + 1e-9) {
      visit(center, size);
      return;
    }
    for (int ci = 0; ci < 8; ++ci)
      visitOccupiedRec(node.first_child + static_cast<std::uint32_t>(ci),
                       childCenterFor(center, half, ci), half, target_size, position, reach2,
                       visit);
  }

  Aabb root_box_;
  double voxel_min_;
  double root_size_;
  int max_depth_;
  std::vector<Node> pool_;                  ///< pool_[0] is the root
  std::vector<std::uint32_t> free_blocks_;  ///< recycled 8-child blocks
  /// Parallel to pool_: cached subtree reductions + their validity bits.
  /// Invalidated along the touched root-to-write paths by the update walk
  /// (splitNode / finalizeNode / the terminal write); recycled blocks are
  /// re-invalidated by allocBlock.
  mutable std::vector<SubtreeStats> subtree_stats_;
  mutable std::vector<std::uint8_t> subtree_valid_;
  /// Per-level occupied cell counts of inner nodes, maxDepth() u32 per child
  /// block (levels 1..maxDepth(); level 0 is SubtreeStats::occupied_leaves),
  /// refreshed by reduceStats under the node's subtree_valid_ bit. Keyed by
  /// block rather than by pool slot because leaves, 7/8 of the pool, need
  /// none. Entries for levels at or above a node's own size are unused.
  mutable std::vector<std::uint32_t> block_cells_;
  /// cellSizeAtLevel table, levels 0..maxDepth().
  std::vector<double> level_size_;
  double inv_root_;    ///< 1 / root_size_
  double guard_root_;  ///< cellCoords()' guard band at depth 0, in cells
  mutable Stats stats_cache_;
  mutable bool stats_dirty_ = true;
};

}  // namespace roborun::perception
