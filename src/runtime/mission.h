// Mission runner: the closed loop between the physical world (simulated
// drone + sensors) and the cyber system (navigation pipeline + governor).
//
// Each iteration: capture a sensor sweep, profile space, ask the governor
// for a policy (RoboRun) or use the static one (baseline), execute the
// pipeline, convert the achieved decision latency + profiled visibility
// into the safe velocity (Eq. 1 inverted), then fly the interval at that
// speed. This is exactly the compute<->velocity coupling the paper builds
// its results on.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>

#include "core/governor.h"
#include "core/strategies.h"
#include "env/env_gen.h"
#include "runtime/metrics.h"
#include "runtime/pipeline.h"
#include "sim/battery.h"
#include "sim/drone.h"
#include "sim/energy_model.h"
#include "sim/fault_plan.h"
#include "sim/sensor.h"

namespace roborun::runtime {

enum class DesignType { SpatialOblivious, RoboRun };

inline const char* designName(DesignType d) {
  return d == DesignType::RoboRun ? "roborun" : "spatial_oblivious";
}

struct MissionConfig {
  PipelineConfig pipeline;
  sim::SensorConfig sensor;
  sim::DroneConfig drone;
  sim::EnergyConfig energy;
  core::KnobConfig knobs;
  core::BudgeterConfig budgeter;
  core::StaticDesign static_design;
  core::ProfilerConfig profiler;

  double sim_dt = 0.05;              ///< s; physics step
  double min_decision_period = 0.25; ///< s; sensor frame period floor
  double max_mission_time = 9000.0;  ///< s; timeout (simulated clock)
  /// Cooperative wall-clock watchdog: when positive, the runner checks a
  /// deadline token at the top of every decision epoch and aborts the
  /// mission with MissionStatus::AbortedWallDeadline once this many REAL
  /// milliseconds have elapsed. A liveness bound for fleet serving (a
  /// wedged or pathologically slow mission yields its worker), NOT part of
  /// the deterministic replay contract — which epoch trips it depends on
  /// host speed, which is why it ships disabled (0) and why fleet retries
  /// treat a wall abort as transient. The simulated-time timeout above is
  /// the deterministic one.
  double max_wall_ms = 0.0;
  double v_max_dynamic = 3.2;        ///< m/s; RoboRun's experimental velocity cap
  double creep_velocity = 0.3;       ///< m/s; when planning failed
  // NOTE: the fixed per-decision overhead lives in knobs.fixed_overhead
  // (single-sourced; this struct used to carry its own 0.27 copy).
  std::uint64_t seed = 7;

  /// When set, the mission aborts once the pack's usable energy is spent
  /// (the paper's "longer flight times expend the battery" failure mode).
  bool enforce_battery = false;
  sim::BatteryConfig battery;

  /// Deterministic fault injection (sim::FaultPlan, seeded from `seed`):
  /// sensor blackout windows, per-ray dropout, compute-latency spikes, plus
  /// the poison_epoch crash hook. Defaults are inert — a default config
  /// keeps the mission on the exact fault-free code path, and any armed
  /// schedule is replayable bit-for-bit (same seed + dials => same faults).
  sim::FaultConfig faults;

  /// Moving obstacles layered over the static world (empty = none). The
  /// field's clock is driven by the mission clock, so runs stay replayable.
  env::DynamicObstacleField dynamic_obstacles;
  /// Which Eq. 3 solver strategy the RoboRun governor uses (ablation
  /// surface; Exhaustive is the paper's joint solver).
  core::StrategyType solver_strategy = core::StrategyType::Exhaustive;

  /// Reflexive proximity bumper against movers (brake on short
  /// time-to-contact, sidestep out of a mover's bubble). Models the fast
  /// sub-pipeline obstacle reflex of real MAVs; only read when
  /// dynamic_obstacles is non-empty.
  bool proximity_guard = true;

  /// Fleet hook: govern through this externally owned, internally
  /// synchronized DecisionEngine instead of calibrating a private one —
  /// how a fleet scheduler pools one sharded solver memo across every
  /// tenant mission. The engine's answers are bit-identical regardless of
  /// memo / cache state (see core/decision_engine.h), so sharing cannot
  /// change any mission's result; each mission's pipeline acquires its own
  /// key in the engine's keyed profile cache (starting all-dirty), so
  /// concurrent tenants keep independent visibility-sample caches and
  /// recycled heap addresses can never alias stale samples. Requirements:
  /// the engine must have been calibrated against THIS config's knobs /
  /// budgeter / profiler / pipeline latency, and carry no pluggable
  /// strategy. Ignored (a private engine is built, exactly as before) when
  /// null or when solver_strategy is not Exhaustive — stateful strategies
  /// must stay per-mission.
  std::shared_ptr<core::DecisionEngine> shared_engine;

  /// Measurement hook, called once per decision epoch right after its
  /// record is pushed: (epoch index, staleness) where staleness is how many
  /// sweeps old the map snapshot consumed by that epoch's planning stage
  /// was — always 0 under ExecutionMode::Sync, at most 1 under Async (the
  /// pipelined executor's bounded-staleness contract, which
  /// pipeline_equivalence_test and bench_mission_latency assert through
  /// this hook). Observes only; it must not touch mission state, and the
  /// mission loop runs the same code with or without it (null, the
  /// default, skips the call).
  std::function<void(std::size_t epoch, std::size_t staleness)> decision_observer;
};

/// Run one full mission of `design` through `environment`. There is one
/// mission loop; config.pipeline.execution picks how each epoch's sweep
/// reaches the planner. Sync integrates it inline and plans on it
/// (byte-identical to tests/reference_mission.h). Async integrates it on an
/// EpochExecutor worker (runtime/epoch_executor.h) while the loop plans on
/// the newest published snapshot, at most one sweep stale: deterministic,
/// same safety invariants, different numeric results.
MissionResult runMission(const env::Environment& environment, DesignType design,
                         const MissionConfig& config = {});

}  // namespace roborun::runtime
