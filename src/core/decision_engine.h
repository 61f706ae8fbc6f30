// DecisionEngine — the unified, memoized governor core the mission runner
// decides through (via runtime::NavigationPipeline; one engine per mission,
// or one shared by a fleet's concurrent missions).
//
// It owns the full per-decision path the paper's governor runs each sensor
// sweep:
//
//   space profiling (Table I)  ->  time budgeting (Eq. 1 / Alg. 1)
//       ->  Eq. 3 solve (exhaustive or pluggable strategy)  ->  policy
//
// It is the only RoboRun governor in src/ (every RoboRun mission decides
// through it), and it stays bit-identical to the seed implementation
// (frozen as tests/reference_governor.h) while adding two caches for
// decision-heavy traffic:
//
//  * Solver memoization. The exhaustive Eq. 3 enumeration
//    (GovernorSolver::pick) is a pure function of (knob budget,
//    KnobEnvelope): every other input reaches the solver only through those
//    seven doubles. Picks are cached in a generation-stamped,
//    allocation-free open-addressed table. The *quantized* key tuple picks
//    the bucket (nearby budgets/envelopes land in the same probe window,
//    keeping the table dense); a hit requires the stored key to match the
//    live key BIT FOR BIT, and GovernorSolver::resultFor re-derives the
//    feasibility flag / objective / deadline from the live inputs, on hits
//    and misses alike. A cached answer is therefore always identical to
//    what enumeration would have produced — quantization can only cost
//    hits, never correctness.
//
//  * Incremental space profiling. The only map-dependent (and dominant)
//    part of profileSpace is the occupancy sample pass along the
//    trajectory; the engine fuses the seed's two passes (d_unknown probe +
//    waypoint visibility sampling) into one and caches the sample arrays.
//    When the client's dirty-bounds plumbing (OctomapInsertReport.touched
//    -> noteMapChanged()) proves the map did not change inside the sampled
//    corridor, and trajectory + query position are unchanged, the samples
//    are reused instead of re-queried. Reuse conditions are exact, so the
//    profile is bit-identical either way.
//
// Sharing contract (the fleet shape). One engine instance may be shared by
// any number of governor clients on any number of threads; because every
// answer is bit-identical regardless of cache/memo state, sharing cannot
// change any client's decisions — it only trades warmth. Two mechanisms
// make the shared shape scale instead of serialize:
//
//  * Keyed profile caches. Each client acquires a ClientId (acquireClient()
//    / releaseClient()) and passes it to the profiling entry points; the
//    engine keeps one independent sample cache + dirty-bounds accumulator
//    per key in an LRU-bounded slot pool (Config::profile_cache_clients).
//    Interleaved tenants therefore keep their own fused sample arrays warm
//    instead of evicting a single shared slot, and profiling for distinct
//    clients runs concurrently (each slot has its own lock). A fresh key
//    starts conservatively all-dirty, so tenant handoffs and heap-address
//    reuse can never alias a previous client's samples. Callers that never
//    acquire a key use kDefaultClient and get the old single-client
//    behavior.
//
//  * Sharded solver memo. The open-addressed memo table is striped across
//    16 independently locked shards selected by key hash; concurrent
//    decide() calls probe and insert in parallel, only colliding when their
//    keys land in the same shard. Enumeration on a miss runs outside any
//    lock (it is a pure function of the immutable solver), and a hit still
//    requires the full 7x64-bit key to match exactly, so cached answers
//    stay bit-identical to enumeration. There is no whole-engine mutex on
//    the decide path; stats are atomic counters.
//
// The engine reads no clock. Its only timing is the Govern "profile" /
// "budget" / "solve" spans on Config::spans, which cost one branch per site
// when no recorder is set.
//
// Pluggable strategies may carry cross-decision state, so strategy solves
// serialize on a dedicated strategy lock (fleet sharing is Exhaustive-only
// by MissionConfig::shared_engine's contract, so this never gates fleet
// traffic). Install strategies before sharing an engine across threads —
// installation is not synchronized with in-flight decisions.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "core/governor.h"
#include "core/knob_config.h"
#include "core/latency_predictor.h"
#include "core/profilers.h"
#include "core/solver.h"
#include "core/strategies.h"
#include "core/time_budgeter.h"
#include "geom/aabb.h"
#include "obs/metrics_registry.h"
#include "obs/span_recorder.h"

namespace roborun::sim {
class LatencyModel;
}

namespace roborun::core {

/// One full sensor-path decision: the profile the governor saw and the
/// policy it emitted.
struct EngineDecision {
  SpaceProfile profile;
  GovernorDecision decision;
};

/// Monotonic counters since construction (or the last resetStats()).
struct EngineStats {
  std::uint64_t decisions = 0;
  std::uint64_t solver_memo_hits = 0;
  std::uint64_t solver_memo_misses = 0;  ///< exhaustive enumerations run
  std::uint64_t strategy_decisions = 0;  ///< routed to a pluggable strategy
  std::uint64_t profile_builds = 0;
  std::uint64_t profile_reuses = 0;
  /// Always 0: the engine reads no clock (time its stages with the Govern
  /// spans instead). Declared only because perfbench's stat summing still
  /// names them.
  double profile_wall_ms = 0.0;
  double budget_wall_ms = 0.0;
  double solve_wall_ms = 0.0;

  /// Memo hits per Eq. 3 solve (0 when no solver decisions ran). On a
  /// fleet-shared engine this is the cross-tenant warmth metric: which hits
  /// land is scheduling-dependent, so treat it as a measurement — like wall
  /// time, never part of the deterministic replay contract. (The profile
  /// counters, by contrast, ARE schedule-independent on a keyed cache:
  /// each client's build/reuse sequence is a pure function of its own
  /// epoch stream.)
  double solverMemoHitRate() const {
    const std::uint64_t solved = solver_memo_hits + solver_memo_misses;
    return solved == 0 ? 0.0 : static_cast<double>(solver_memo_hits) /
                                   static_cast<double>(solved);
  }
};

/// Adapter into the observability spine: publish these counters into a
/// MetricsRegistry under `<prefix>.<field>` (counters for the monotonic
/// counts, a gauge for the derived hit rate). This is how
/// legacy stat structs flow into the one snapshot/delta API reports
/// consume — see obs/metrics_registry.h.
void exportStats(const EngineStats& stats, obs::MetricsRegistry& registry,
                 std::string_view prefix = "engine");

class DecisionEngine {
 public:
  /// Key of one profiling client (tenant) — see acquireClient(). Client 0
  /// is the implicit default for callers that never acquire a key.
  using ClientId = std::uint64_t;
  static constexpr ClientId kDefaultClient = 0;

  struct Config {
    KnobConfig knobs;          ///< incl. fixed_overhead (the single source)
    BudgeterConfig budgeter;
    ProfilerConfig profiler;
    /// Solver memo capacity (total entries across all shards; rounded up so
    /// each shard is a power of two). 0 disables memoization — every
    /// decision enumerates; bench ablation surface.
    std::size_t solver_memo_capacity = 1024;
    /// Keyed profile-cache slot pool: at most this many client keys keep
    /// their sample caches live (least-recently-used key evicted beyond
    /// it). Size it to the number of concurrently active tenants (fleet
    /// schedulers use their worker count); an evicted key only loses
    /// warmth, never correctness.
    std::size_t profile_cache_clients = 8;
    /// Span recorder for the governor sub-stages (Govern spans with detail
    /// "profile" / "budget" / "solve"). Pure measurement channel — null
    /// (the default) costs one branch per site and nothing else, and a
    /// non-null recorder can never change a decision.
    obs::SpanRecorder* spans = nullptr;
  };

  DecisionEngine(const Config& config, LatencyPredictor predictor);

  /// Build an engine whose Eq. 4 predictor is freshly calibrated against
  /// the given simulator latency model (core/latency_calibration.h). This
  /// is how the mission runner and the fleet scheduler build engines: the
  /// latency-model -> predictor feedback stays behind the engine boundary,
  /// so clients hand over ground truth, never fitted coefficients.
  static std::shared_ptr<DecisionEngine> calibrated(const sim::LatencyModel& latency_model,
                                                    const Config& config);

  /// Obtain a fresh client key for the profiling entry points. Every
  /// pipeline/tenant sharing this engine should hold its own key so
  /// interleaved clients keep independent sample caches; the key's state
  /// starts conservatively all-dirty. Thread-safe.
  ClientId acquireClient();
  /// Drop a client's cached profiling state immediately (end of mission /
  /// pipeline teardown) instead of waiting for LRU eviction. Safe to call
  /// with a key that was already evicted or never used.
  void releaseClient(ClientId client);

  /// The governor core: budget the profiled horizon, solve Eq. 3 (memoized
  /// on the exhaustive path), emit the policy. Bit-identical to the frozen
  /// reference::RoboRunGovernor::decide (tests/reference_governor.h) for
  /// every input, with or without the memo. Thread-safe; concurrent callers
  /// only contend per memo shard.
  GovernorDecision decide(const SpaceProfile& profile);

  /// Degraded-sensing fallback: the safe-envelope policy a governor pins
  /// while its sensors are blacked out — the coarsest precision the
  /// envelope admits, floor volumes (volumesAtScale(0)), and the budgeter's
  /// floor deadline, with budget_met = false so the decision reads as
  /// degraded downstream. A pure function of (knobs, profile): no memo, no
  /// strategy, no per-client state, so it is trivially thread-safe and
  /// bit-reproducible. Used by the mission runner during FaultPlan
  /// blackout epochs (the drone hovers; the pipeline keeps ticking at
  /// minimum cost so the map and trajectory stay warm for recovery).
  GovernorDecision blackoutFallback(const SpaceProfile& profile) const;

  /// The full per-decision path: profile space from the live sensor frame /
  /// map / trajectory (fused sampling, cross-epoch reuse against the given
  /// client's cache), then decide().
  EngineDecision decideFromSensors(const sim::SensorFrame& frame,
                                   const perception::OccupancyOctree& map,
                                   const planning::Trajectory& trajectory,
                                   const geom::Vec3& position, const geom::Vec3& velocity,
                                   const geom::Vec3& travel_dir,
                                   ClientId client = kDefaultClient);

  /// Space profiling only (the engine's fused + cached path). Bit-identical
  /// to core::profileSpace on the same inputs. Advances the client's sample
  /// cache.
  SpaceProfile profile(const sim::SensorFrame& frame,
                       const perception::OccupancyOctree& map,
                       const planning::Trajectory& trajectory, const geom::Vec3& position,
                       const geom::Vec3& velocity, const geom::Vec3& travel_dir,
                       ClientId client = kDefaultClient);

  /// Dirty-bounds plumbing: the client MUST report every region of the map
  /// it may have mutated since the engine last profiled for it (e.g.
  /// forward each OctomapInsertReport.touched). Sample reuse is gated on
  /// the accumulated dirty region provably missing the sampled corridor.
  /// Empty boxes are ignored.
  void noteMapChanged(const geom::Aabb& bounds, ClientId client = kDefaultClient);
  /// Conservative invalidation when the change region is unknown.
  void noteMapChangedEverywhere(ClientId client = kDefaultClient);
  /// The client MUST call this whenever the trajectory it profiles against
  /// may have changed (replan, trajectory cleared, new message).
  void noteTrajectoryChanged(ClientId client = kDefaultClient);

  /// Route Eq. 3 through an alternative strategy (core/strategies.h), bound
  /// to this engine's predictor. Exhaustive clears back to the built-in
  /// memoized solver. Strategy decisions bypass the memo (strategies may
  /// carry state) and serialize on the strategy lock.
  void selectStrategy(StrategyType type, int patience = 3);
  /// Forget cross-decision strategy state (start of a new mission).
  void resetStrategy();

  /// Start-of-mission reset: strategy state plus every client's profile
  /// cache and dirty region. The solver memo survives — entries are pure
  /// functions of their key, so they stay valid across missions.
  void reset();
  /// Drop every memo entry (O(1) per shard: generation bumps).
  void clearMemo();

  EngineStats stats() const;
  void resetStats();

  const KnobConfig& knobs() const { return config_.knobs; }
  const TimeBudgeter& budgeter() const { return budgeter_; }
  const LatencyPredictor& predictor() const { return predictor_; }
  double fixedOverhead() const { return config_.knobs.fixed_overhead; }

 private:
  /// Memo key: the exact bit patterns of (knob_budget, envelope). Hashing
  /// quantizes; matching never does.
  using MemoKey = std::array<std::uint64_t, 7>;

  struct MemoEntry {
    std::uint64_t generation = 0;  ///< 0 = never written
    MemoKey key{};
    /// The enumeration's pick; everything else (deadline, predicted
    /// latency, objective, budget_met) is re-derived by resultFor.
    SolverPick pick;
  };

  /// One stripe of the solver memo: its own lock, slots and generation.
  /// Shard choice comes from the quantized key hash's high bits, bucket
  /// choice within the shard from the low bits, so striping is independent
  /// of probe placement.
  struct MemoShard {
    mutable std::mutex mutex;
    std::vector<MemoEntry> slots;
    std::uint64_t generation = 1;
    std::uint64_t mask = 0;  ///< slots - 1 (0 when memoization disabled)
  };
  static constexpr std::size_t kMemoShards = 16;

  struct ProfileCache {
    bool valid = false;
    const void* map_addr = nullptr;
    const void* traj_addr = nullptr;
    std::uint64_t traj_version = 0;
    /// O(1) fingerprint (size + duration + endpoint bits) guarding against
    /// clients that mutate the trajectory object without calling
    /// noteTrajectoryChanged(); the version counter is the contract, this
    /// is the belt-and-braces.
    std::array<std::uint64_t, 8> traj_fingerprint{};
    std::array<std::uint64_t, 3> position_bits{};
    double start_s = 0.0;
    double total = 0.0;
    // The fused sample pass: arc lengths, free bits, and the backward-pass
    // free-run frontier the waypoint visibilities read.
    std::vector<double> sample_s;
    std::vector<char> sample_free;
    std::vector<double> free_until;
    std::ptrdiff_t first_blocked = -1;  ///< index of first non-free sample
    geom::Aabb sample_bounds = geom::Aabb::empty();
  };

  /// One client key's slot in the keyed profile cache: the sample cache
  /// plus the dirty-bounds accumulation that gates its reuse. `mutex`
  /// serializes same-key calls; distinct keys never contend. Slots are
  /// handed out as shared_ptr so LRU eviction can drop a slot from the
  /// registry while a racing profiler finishes on its own reference.
  struct ClientState {
    std::mutex mutex;
    ProfileCache cache;
    geom::Aabb dirty = geom::Aabb::empty();
    bool all_dirty = true;  ///< unknown map state until first build
    std::uint64_t traj_version = 0;
    std::uint64_t last_used = 0;  ///< LRU tick; guarded by clients_mutex_
  };

  SolverResult solveMemoized(double budget, const SpaceProfile& profile);
  SpaceProfile profileForClient(ClientState& state, const sim::SensorFrame& frame,
                                const perception::OccupancyOctree& map,
                                const planning::Trajectory& trajectory,
                                const geom::Vec3& position, const geom::Vec3& velocity,
                                const geom::Vec3& travel_dir);
  /// Look up (or create, LRU-evicting beyond the pool bound) the slot for a
  /// client key.
  std::shared_ptr<ClientState> clientState(ClientId client);

  Config config_;
  TimeBudgeter budgeter_;
  LatencyPredictor predictor_;
  GovernorSolver solver_;  ///< bound to predictor_; immutable, so lock-free

  // Pluggable strategy (stateful, so serialized): the atomic flag lets the
  // common strategy-less fleet path skip the lock entirely.
  std::unique_ptr<SolverStrategy> strategy_;  ///< guarded by strategy_mutex_
  std::atomic<bool> has_strategy_{false};
  mutable std::mutex strategy_mutex_;

  // Sharded solver memo (allocation-free after construction).
  std::array<MemoShard, kMemoShards> memo_shards_;

  // Keyed profile caches.
  mutable std::mutex clients_mutex_;
  std::unordered_map<ClientId, std::shared_ptr<ClientState>> clients_;
  std::uint64_t lru_clock_ = 0;              ///< guarded by clients_mutex_
  std::atomic<std::uint64_t> next_client_{1};

  // Stats: lock-free counters (relaxed; read as a snapshot by stats()).
  struct AtomicStats {
    std::atomic<std::uint64_t> decisions{0};
    std::atomic<std::uint64_t> solver_memo_hits{0};
    std::atomic<std::uint64_t> solver_memo_misses{0};
    std::atomic<std::uint64_t> strategy_decisions{0};
    std::atomic<std::uint64_t> profile_builds{0};
    std::atomic<std::uint64_t> profile_reuses{0};
  };
  AtomicStats stats_;
};

}  // namespace roborun::core
