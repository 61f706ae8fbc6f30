// PlannerArena — reusable, generation-stamped storage for the planning
// hot paths (the planning-side sibling of the pooled perception octree).
//
// Replan-heavy missions call the planners every sensor epoch; the seed
// implementations rebuilt their bookkeeping (A*'s unordered_map open/closed
// sets, RRT*'s per-call grid index) from scratch each time, paying hashing,
// node allocation and rehash churn on every replan. The arena keeps that
// state in flat, contiguous buffers that survive across calls:
//
//   * StampedTable — an open-addressed hash table over packed lattice keys
//     whose slots carry a generation stamp. clear() bumps the generation
//     (O(1)); slots from older generations read as empty and are dropped
//     lazily on the next rehash. No per-entry allocation, ever.
//   * the A* node pool — an append-only vector of search nodes addressed by
//     index (stable across table rehashes), plus a reusable binary-heap
//     open list driven by std::push_heap/std::pop_heap with the planner's
//     (f)-only comparator, so its tie-breaking is bit-identical to the
//     seed's std::priority_queue (same algorithms, same payload order).
//   * BucketGrid — a uniform-grid multimap (cell key -> id list) for RRT*
//     nearest/neighborhood queries, with the per-cell lists chained through
//     a shared chunk pool in insertion order (the order the seed's
//     unordered_map-of-vectors iterated, which mission byte-identity
//     depends on).
//   * StampedSet — a u64 set with O(1) clear, backing the RRT* explored-
//     volume operator.
//
// One arena serves one planner at a time (searches borrow it via
// beginAStar()/the planPath overload); each NavigationPipeline owns one,
// so successive replans of a mission reuse the same memory while concurrent
// missions stay isolated.
#pragma once

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "geom/vec3.h"

namespace roborun::planning {

/// Pack signed per-axis lattice coordinates into one key, 21 bits per axis
/// (the PlannerMap convention; ample for km-scale worlds at decimeter
/// pitch). unpack*() sign-extends back; round-trips for |coord| < 2^20.
inline std::uint64_t packLatticeKey(int x, int y, int z) {
  return (static_cast<std::uint64_t>(static_cast<std::uint32_t>(x) & 0x1FFFFF) << 42) |
         (static_cast<std::uint64_t>(static_cast<std::uint32_t>(y) & 0x1FFFFF) << 21) |
         (static_cast<std::uint64_t>(static_cast<std::uint32_t>(z) & 0x1FFFFF));
}
inline int unpackLatticeSigned(std::uint64_t field) {
  return (static_cast<int>(field & 0x1FFFFF) ^ 0x100000) - 0x100000;
}
inline int unpackLatticeX(std::uint64_t key) { return unpackLatticeSigned(key >> 42); }
inline int unpackLatticeY(std::uint64_t key) { return unpackLatticeSigned(key >> 21); }
inline int unpackLatticeZ(std::uint64_t key) { return unpackLatticeSigned(key); }

/// Open-addressed hash table over u64 keys with generation-stamped slots:
/// clear() is O(1) and reuses all storage. Payload must be trivially
/// copyable. Linear probing, power-of-two capacity, grows at 50% load.
template <typename Payload>
class StampedTable {
 public:
  static constexpr std::uint32_t kNoSlot = 0xFFFFFFFFu;

  void clear() {
    ++generation_;
    live_ = 0;
    if (generation_ == 0) {  // stamp wrap: force-reset every slot once per 2^32 clears
      slots_.assign(slots_.size(), Slot{});
      generation_ = 1;
    }
  }

  std::size_t size() const { return live_; }
  std::size_t capacity() const { return slots_.size(); }

  /// Slot of `key`, creating a default-payload entry if absent.
  std::uint32_t findOrCreate(std::uint64_t key) {
    if (slots_.empty() || (live_ + 1) * 2 > slots_.size()) grow();
    for (std::uint64_t i = hash(key);; ++i) {
      Slot& s = slots_[i & (slots_.size() - 1)];
      if (s.generation != generation_) {
        s.generation = generation_;
        s.key = key;
        s.payload = Payload{};
        ++live_;
        return static_cast<std::uint32_t>(i & (slots_.size() - 1));
      }
      if (s.key == key) return static_cast<std::uint32_t>(i & (slots_.size() - 1));
    }
  }

  /// Slot of `key`, or kNoSlot if absent. Never mutates.
  std::uint32_t find(std::uint64_t key) const {
    if (slots_.empty() || live_ == 0) return kNoSlot;
    for (std::uint64_t i = hash(key);; ++i) {
      const Slot& s = slots_[i & (slots_.size() - 1)];
      if (s.generation != generation_) return kNoSlot;
      if (s.key == key) return static_cast<std::uint32_t>(i & (slots_.size() - 1));
    }
  }

  Payload& payload(std::uint32_t slot) { return slots_[slot].payload; }
  const Payload& payload(std::uint32_t slot) const { return slots_[slot].payload; }
  std::uint64_t keyAt(std::uint32_t slot) const { return slots_[slot].key; }

 private:
  struct Slot {
    std::uint64_t key = 0;
    std::uint32_t generation = 0;  ///< live iff equal to the table generation
    Payload payload{};
  };

  std::uint64_t hash(std::uint64_t k) const {
    // splitmix64 finalizer: cheap and well-distributed over packed keys.
    k += 0x9E3779B97F4A7C15ULL;
    k = (k ^ (k >> 30)) * 0xBF58476D1CE4E5B9ULL;
    k = (k ^ (k >> 27)) * 0x94D049BB133111EBULL;
    return k ^ (k >> 31);
  }

  void grow() {
    const std::size_t cap = slots_.empty() ? 1024 : slots_.size() * 2;
    std::vector<Slot> old = std::move(slots_);
    slots_.assign(cap, Slot{});
    for (const Slot& s : old) {
      if (s.generation != generation_) continue;  // stale generations are dropped here
      for (std::uint64_t i = hash(s.key);; ++i) {
        Slot& t = slots_[i & (cap - 1)];
        if (t.generation != generation_) {
          t = s;
          break;
        }
      }
    }
  }

  std::vector<Slot> slots_;
  std::uint32_t generation_ = 0;
  std::size_t live_ = 0;
};

/// u64 key set with O(1) clear (StampedTable with an empty payload).
class StampedSet {
 public:
  void clear() { table_.clear(); }
  /// Insert; returns true if the key was new.
  bool insert(std::uint64_t key) {
    const std::size_t before = table_.size();
    table_.findOrCreate(key);
    return table_.size() != before;
  }
  std::size_t size() const { return table_.size(); }

 private:
  struct Empty {};
  StampedTable<Empty> table_;
};

/// Uniform-grid multimap: cell key -> list of ids in insertion order, with
/// the lists chained through one shared chunk pool (no per-cell vectors).
/// Backs the RRT* nearest/neighborhood index.
class BucketGrid {
 public:
  void clear() {
    cells_.clear();
    chunks_.clear();
  }

  void add(std::uint64_t key, std::uint32_t id) {
    const std::uint32_t slot = cells_.findOrCreate(key);
    Bucket& b = cells_.payload(slot);
    if (b.tail == kNone || chunks_[b.tail].count == kChunkIds) {
      const auto chunk = static_cast<std::uint32_t>(chunks_.size());
      chunks_.push_back(Chunk{});
      if (b.tail == kNone)
        b.head = chunk;
      else
        chunks_[b.tail].next = chunk;
      b.tail = chunk;
    }
    Chunk& c = chunks_[b.tail];
    c.ids[c.count++] = id;
  }

  /// Visit every id stored under `key`, in insertion order.
  template <typename Visitor>
  void forEach(std::uint64_t key, Visitor&& visit) const {
    const std::uint32_t slot = cells_.find(key);
    if (slot == decltype(cells_)::kNoSlot) return;
    for (std::uint32_t c = cells_.payload(slot).head; c != kNone; c = chunks_[c].next)
      for (std::uint32_t i = 0; i < chunks_[c].count; ++i) visit(chunks_[c].ids[i]);
  }

  bool hasBucket(std::uint64_t key) const {
    return cells_.find(key) != decltype(cells_)::kNoSlot;
  }

 private:
  static constexpr std::uint32_t kNone = 0xFFFFFFFFu;
  static constexpr std::uint32_t kChunkIds = 7;

  struct Chunk {
    std::uint32_t ids[kChunkIds];
    std::uint32_t next = kNone;
    std::uint32_t count = 0;
  };
  struct Bucket {
    std::uint32_t head = kNone;
    std::uint32_t tail = kNone;
  };

  StampedTable<Bucket> cells_;
  std::vector<Chunk> chunks_;
};

/// RRT* tree node (position + parent + root-path cost), pooled in the arena
/// so the tree's storage survives across replans.
struct RrtTreeNode {
  geom::Vec3 position;
  std::size_t parent = SIZE_MAX;
  double cost = 0.0;
};

class PlannerArena {
 public:
  static constexpr std::uint32_t kNone = 0xFFFFFFFFu;

  // --- A* search state -----------------------------------------------------

  struct AStarNode {
    std::uint64_t key = 0;       ///< packed lattice cell
    double g = 0.0;              ///< best path cost from the start
    std::uint32_t parent = kNone;  ///< node index of the parent (kNone = start)
  };

  /// Per-lattice-cell slot: the node index once the cell holds a search
  /// node, plus the memoized inflated-occupancy answer (the map is frozen
  /// for the duration of one search, so each cell's occupiedPoint() is
  /// computed once instead of once per generating neighbor).
  struct AStarCell {
    std::uint32_t node = kNone;
    std::uint8_t occupancy = 0;  ///< 0 unknown, 1 free, 2 blocked
  };

  /// O(1) reset of the A* state (table generation bump + size resets);
  /// buffer capacity is retained across searches.
  void beginAStar() {
    astar_cells_.clear();
    astar_nodes_.clear();
    astar_heap_.clear();
  }

  std::uint32_t cellSlot(std::uint64_t key) { return astar_cells_.findOrCreate(key); }
  AStarCell& cellAt(std::uint32_t slot) { return astar_cells_.payload(slot); }

  std::uint32_t newNode(std::uint64_t key, double g, std::uint32_t parent) {
    astar_nodes_.push_back(AStarNode{key, g, parent});
    return static_cast<std::uint32_t>(astar_nodes_.size() - 1);
  }
  AStarNode& node(std::uint32_t index) { return astar_nodes_[index]; }
  const AStarNode& node(std::uint32_t index) const { return astar_nodes_[index]; }
  std::size_t nodeCount() const { return astar_nodes_.size(); }

  // Open list: (f, node index) entries ordered by std::push_heap/pop_heap
  // with an f-only comparator — the exact algorithms std::priority_queue
  // runs, so equal-f ties break identically to the frozen reference.
  using HeapEntry = std::pair<double, std::uint32_t>;
  static bool heapAfter(const HeapEntry& a, const HeapEntry& b) { return a.first > b.first; }

  void heapPush(double f, std::uint32_t node_index);
  HeapEntry heapPop();
  bool heapEmpty() const { return astar_heap_.empty(); }

  // --- RRT* scratch state --------------------------------------------------

  BucketGrid& rrtGrid() { return rrt_grid_; }
  StampedSet& rrtExplored() { return rrt_explored_; }
  std::vector<RrtTreeNode>& rrtNodes() { return rrt_nodes_; }
  std::vector<geom::Vec3>& rrtPoints() { return rrt_points_; }
  std::vector<std::size_t>& rrtNearby() { return rrt_nearby_; }

 private:
  StampedTable<AStarCell> astar_cells_;
  std::vector<AStarNode> astar_nodes_;
  std::vector<HeapEntry> astar_heap_;

  BucketGrid rrt_grid_;
  StampedSet rrt_explored_;
  std::vector<RrtTreeNode> rrt_nodes_;
  std::vector<geom::Vec3> rrt_points_;
  std::vector<std::size_t> rrt_nearby_;
};

}  // namespace roborun::planning
