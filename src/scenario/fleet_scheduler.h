// FleetScheduler — the multi-tenant mission server over the scenario
// catalog.
//
// A scheduler admits scenarios (each expanding into an ordered list of
// MissionCases), then runs the whole case list across a worker pool with
// the pooled infrastructure the runtime layers grew for exactly this:
//
//   * one internally synchronized core::DecisionEngine shared by every
//     tenant mission (MissionConfig::shared_engine), calibrated once; its
//     exhaustive solve and space profiler keep no per-tenant state, so
//     tenants share nothing but the calibration and the stats counters;
//   * one planning::PlannerArena per WORKER (PipelineConfig::shared_arena),
//     so steady-state replanning stays allocation-free across the missions
//     a worker serves back to back.
//
// Dispatch: one shape. `threads` workers pull cases from a free-running
// ticket queue (an atomic counter) and take the next case the moment they
// finish one, all deciding through the one shared engine. Case -> worker
// assignment is a race; nothing deterministic depends on it. There is no
// barrier-wave shape and no private-engine switch: measured at 4 threads,
// waves ran slower than one worker, and private engines changed no result.
//
// The determinism contract, for ANY thread count: every mission metric in
// FleetResult (rows, shard aggregates) is bitwise identical, and each row
// equals its case flown alone with a private engine and arena — results
// land at their case index, missions are independently seeded, and the
// shared engine/arena infrastructure answers bit-identically regardless of
// pool state (see decision_engine.h / planner_arena.h).
// Only the wall-time fields vary run to run; tools keep those out of the
// deterministic report (fleet_report.h). The engine's decision and
// profile_builds counts are schedule-independent.
//
// Fault isolation: a mission that throws (a poisoned fault plan, a bug in a
// pipeline) is caught at its worker and lands as a structured Crashed row at
// its case index — one bad tenant never takes down the fleet or shifts any
// other tenant's results. Crashed and wall-deadline-aborted cases get up to
// FleetConfig::retry_limit deterministic re-runs before the row is final.
#pragma once

#include <string>
#include <vector>

#include "core/decision_engine.h"
#include "obs/span_recorder.h"
#include "scenario/catalog.h"
#include "store/result_store.h"

namespace roborun::scenario {

/// Declared only because perfbench names them (FleetConfig::mode); the
/// scheduler never reads either. There is one dispatch shape, the ticket
/// queue above.
enum class DispatchMode { Async };

struct FleetConfig {
  unsigned threads = 1;
  DispatchMode mode = DispatchMode::Async;  ///< never read; see DispatchMode
  /// Extra attempts granted to a case whose mission ends in an
  /// infrastructure failure (Crashed / AbortedWallDeadline). Retries are
  /// deterministic re-runs of the same seeded mission, so they only help
  /// against nondeterministic infrastructure (wall-clock aborts under load,
  /// resource exhaustion); a mission-outcome failure (Collided, TimedOut,
  /// EnergyExhausted) is a result, never retried.
  std::size_t retry_limit = 1;
  /// Content-addressed result store (not owned; may be shared by several
  /// fleets). When set, every case is looked up by its describeCase() bit
  /// pattern before dispatch — a hit short-circuits the mission and lands
  /// the cached (bit-identical) result at the case index — and every
  /// mission that ran to a simulated conclusion is inserted afterwards.
  /// Infrastructure failures (Crashed / AbortedWallDeadline) never touch
  /// the store: they describe this run's infrastructure, not the mission.
  store::ResultStore* store = nullptr;
  /// Span recorder threaded through the whole fleet: store lookups and
  /// retry attempts record at this level (epoch = case index), and the
  /// recorder is forwarded into every tenant pipeline and the shared
  /// engine. Null (the default) costs one branch per site; a non-null
  /// recorder never changes any deterministic field (tier2-pinned).
  obs::SpanRecorder* spans = nullptr;
};

/// One finished mission (at its case index).
struct FleetRow {
  runtime::MissionResult result;
  double wall_ms = 0.0;  ///< this run's wall clock — NOT deterministic
  /// what() of the exception that crashed the final attempt; empty unless
  /// result.status == MissionStatus::Crashed.
  std::string error;
  std::size_t attempts = 1;  ///< runs consumed (1 + retries actually taken)
};

/// Deterministic per-scenario aggregate (the fleet's metric shard).
struct ShardAggregate {
  std::string scenario;
  std::size_t missions = 0;
  std::size_t reached = 0;
  std::size_t collided = 0;
  std::size_t timed_out = 0;
  std::size_t battery_depleted = 0;
  std::size_t wall_aborted = 0;  ///< AbortedWallDeadline after all retries
  std::size_t crashed = 0;       ///< Crashed (threw) after all retries
  std::size_t decisions = 0;
  std::size_t replans = 0;
  double mission_time = 0.0;    ///< s, summed over the shard
  double distance = 0.0;        ///< m, summed
  double flight_energy = 0.0;   ///< J, summed
  double compute_energy = 0.0;  ///< J, summed
  double mean_velocity = 0.0;   ///< mean of per-mission average velocities
};

struct FleetResult {
  std::vector<MissionCase> cases;      ///< the admitted expansion, in order
  std::vector<FleetRow> rows;          ///< by case index
  std::vector<ShardAggregate> shards;  ///< in scenario admission order
  /// Base intra-mission execution mode (runtime/pipeline.h). Deterministic
  /// — it changes mission numbers, unlike the dispatch shape — so the
  /// report document carries it; individual cases may override it via the
  /// shared `pipeline_async` catalog dial (their rows say so).
  runtime::ExecutionMode pipeline = runtime::ExecutionMode::Sync;
  // --- measurements of this run (never deterministic) ---
  double wall_s = 0.0;
  double missions_per_sec = 0.0;
  unsigned threads = 1;      ///< workers run() started (FleetScheduler::workers())
  core::EngineStats engine;  ///< the shared engine's counters
  bool store_enabled = false;
  /// This run's store traffic (delta over the store's lifetime counters —
  /// a store may outlive many fleets). Like the engine counters, a
  /// measurement: cache hits don't change any deterministic field.
  store::StoreStats store;
};

/// Bitwise comparison of every deterministic field (each row's full
/// MissionResult including all decision records, and the case list) —
/// the contract fleet tools and tests pin across thread counts.
/// Wall-time fields and engine counters are excluded.
bool fleetResultsIdentical(const FleetResult& a, const FleetResult& b);

class FleetScheduler {
 public:
  FleetScheduler(runtime::MissionConfig base, FleetConfig config);

  /// Expand and enqueue a scenario (admit(cases) over its expansion);
  /// false (nothing enqueued) on an unknown family.
  bool admit(const ScenarioSpec& spec);
  /// Enqueue already-expanded cases. Each distinct MissionCase::scenario in
  /// the batch becomes a new metric shard, in order of first appearance; a
  /// name an earlier admission already holds gets a deterministic "#N"
  /// suffix instead of silently merging two unrelated workloads.
  void admit(std::vector<MissionCase> cases);
  /// Admit a whole catalog; returns how many scenarios were accepted.
  std::size_t admitAll(const std::vector<ScenarioSpec>& specs);

  const std::vector<MissionCase>& cases() const { return cases_; }
  /// Admitted scenario names, in order (the shard order of run()).
  const std::vector<std::string>& scenarios() const { return scenario_order_; }

  /// Worker threads run() starts: FleetConfig::threads clamped to
  /// [1, cases().size()].
  unsigned workers() const;

  /// Run every admitted case. May be called repeatedly (each call runs the
  /// same admitted workload from scratch with a fresh engine/arena pool).
  FleetResult run();

 private:
  runtime::MissionConfig base_;
  FleetConfig config_;
  std::vector<MissionCase> cases_;
  std::vector<std::string> scenario_order_;
};

}  // namespace roborun::scenario
