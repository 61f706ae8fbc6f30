// Determinism regression: the same EnvSpec.seed + MissionConfig.seed must
// produce a bitwise-identical MissionResult on every run — repeated in the
// same thread, and when many missions execute concurrently on different
// thread counts. This is the replayability contract every bench, the
// offline_replay example, and the fleet_runner JSON harness depend on.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstring>
#include <string_view>
#include <thread>
#include <vector>

#include "env/dynamic.h"
#include "env/env_gen.h"
#include "geom/rng.h"
#include "perception/planner_map.h"
#include "planning/astar.h"
#include "runtime/designs.h"
#include "runtime/mission.h"
#include "store/mission_serde.h"

namespace {

using namespace roborun;

/// Bit-level equality for doubles (also distinguishes -0.0 from 0.0 and
/// treats identical NaN patterns as equal — "bitwise", not "approximately").
bool bitEqual(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

::testing::AssertionResult recordsIdentical(const runtime::DecisionRecord& a,
                                            const runtime::DecisionRecord& b,
                                            std::size_t index) {
  auto fail = [&](const char* field) {
    return ::testing::AssertionFailure()
           << "record " << index << " differs in " << field;
  };
  if (!bitEqual(a.t, b.t)) return fail("t");
  if (!bitEqual(a.position.x, b.position.x) || !bitEqual(a.position.y, b.position.y) ||
      !bitEqual(a.position.z, b.position.z))
    return fail("position");
  if (a.zone != b.zone) return fail("zone");
  if (!bitEqual(a.velocity, b.velocity)) return fail("velocity");
  if (!bitEqual(a.commanded_velocity, b.commanded_velocity))
    return fail("commanded_velocity");
  if (!bitEqual(a.visibility, b.visibility)) return fail("visibility");
  if (!bitEqual(a.known_free_horizon, b.known_free_horizon))
    return fail("known_free_horizon");
  if (!bitEqual(a.deadline, b.deadline)) return fail("deadline");
  const runtime::StageLatencies& la = a.latencies;
  const runtime::StageLatencies& lb = b.latencies;
  if (!bitEqual(la.runtime, lb.runtime) || !bitEqual(la.point_cloud, lb.point_cloud) ||
      !bitEqual(la.octomap, lb.octomap) || !bitEqual(la.bridge, lb.bridge) ||
      !bitEqual(la.planning, lb.planning) || !bitEqual(la.smoothing, lb.smoothing) ||
      !bitEqual(la.comm_point_cloud, lb.comm_point_cloud) ||
      !bitEqual(la.comm_map, lb.comm_map) ||
      !bitEqual(la.comm_trajectory, lb.comm_trajectory))
    return fail("latencies");
  for (std::size_t s = 0; s < core::kNumStages; ++s) {
    if (!bitEqual(a.policy.stages[s].precision, b.policy.stages[s].precision) ||
        !bitEqual(a.policy.stages[s].volume, b.policy.stages[s].volume))
      return fail("policy.stages");
  }
  if (!bitEqual(a.policy.deadline, b.policy.deadline)) return fail("policy.deadline");
  if (!bitEqual(a.policy.predicted_latency, b.policy.predicted_latency))
    return fail("policy.predicted_latency");
  if (a.replanned != b.replanned) return fail("replanned");
  if (a.plan_failed != b.plan_failed) return fail("plan_failed");
  if (a.budget_met != b.budget_met) return fail("budget_met");
  if (!bitEqual(a.cpu_utilization, b.cpu_utilization)) return fail("cpu_utilization");
  return ::testing::AssertionSuccess();
}

::testing::AssertionResult resultsIdentical(const runtime::MissionResult& a,
                                            const runtime::MissionResult& b) {
  auto fail = [&](const char* field) {
    return ::testing::AssertionFailure() << "MissionResult differs in " << field;
  };
  if (a.status != b.status) return fail("status");
  if (a.fault_blackouts != b.fault_blackouts) return fail("fault_blackouts");
  if (a.fault_spikes != b.fault_spikes) return fail("fault_spikes");
  if (!bitEqual(a.mission_time, b.mission_time)) return fail("mission_time");
  if (!bitEqual(a.flight_energy, b.flight_energy)) return fail("flight_energy");
  if (!bitEqual(a.compute_energy, b.compute_energy)) return fail("compute_energy");
  if (!bitEqual(a.battery_soc, b.battery_soc)) return fail("battery_soc");
  if (!bitEqual(a.distance_traveled, b.distance_traveled))
    return fail("distance_traveled");
  if (a.records.size() != b.records.size()) return fail("records.size");
  for (std::size_t i = 0; i < a.records.size(); ++i) {
    auto rec = recordsIdentical(a.records[i], b.records[i], i);
    if (!rec) return rec;
  }
  return ::testing::AssertionSuccess();
}

env::EnvSpec shortSpec(std::uint64_t seed) {
  env::EnvSpec spec;
  spec.obstacle_density = 0.45;
  spec.obstacle_spread = 22.0;
  spec.goal_distance = 140.0;
  spec.seed = seed;
  return spec;
}

runtime::MissionResult runOnce(runtime::DesignType design, std::uint64_t env_seed,
                               std::uint64_t mission_seed) {
  const env::Environment environment = env::generateEnvironment(shortSpec(env_seed));
  // Determinism is knob-independent; the smoke config keeps the baseline's
  // (wall-clock-expensive) decisions cheap so this suite fits the tier1 gate.
  runtime::MissionConfig config = runtime::smokeMissionConfig();
  config.seed = mission_seed;
  return runtime::runMission(environment, design, config);
}

TEST(DeterminismTest, RoboRunRepeatsBitwise) {
  const runtime::MissionResult first = runOnce(runtime::DesignType::RoboRun, 11, 7);
  const runtime::MissionResult second = runOnce(runtime::DesignType::RoboRun, 11, 7);
  ASSERT_GT(first.decisions(), 0u);
  EXPECT_TRUE(resultsIdentical(first, second));
}

TEST(DeterminismTest, BaselineRepeatsBitwise) {
  const runtime::MissionResult first =
      runOnce(runtime::DesignType::SpatialOblivious, 11, 7);
  const runtime::MissionResult second =
      runOnce(runtime::DesignType::SpatialOblivious, 11, 7);
  ASSERT_GT(first.decisions(), 0u);
  EXPECT_TRUE(resultsIdentical(first, second));
}

// Missions driven by the pooled A* planner must replay bitwise too: its
// arena is per-pipeline storage, reset on every search, never shared across
// missions.
TEST(DeterminismTest, AStarMissionRepeatsBitwise) {
  const env::Environment environment = env::generateEnvironment(shortSpec(11));
  runtime::MissionConfig config = runtime::smokeMissionConfig();
  config.seed = 7;
  config.pipeline.planner_mode = runtime::PlannerMode::AStar;
  const auto first = runtime::runMission(environment, runtime::DesignType::RoboRun, config);
  const auto second = runtime::runMission(environment, runtime::DesignType::RoboRun, config);
  ASSERT_GT(first.decisions(), 0u);
  EXPECT_TRUE(resultsIdentical(first, second));
}

// The pipelined execution mode must honor the same replayability contract:
// a worker thread integrating sweeps one epoch ahead is still a
// deterministic schedule (the loop synchronizes on epoch boundaries, never
// on wall time), so async re-runs must be bitwise identical.
TEST(DeterminismTest, AsyncPipelineRepeatsBitwise) {
  const env::Environment environment = env::generateEnvironment(shortSpec(11));
  runtime::MissionConfig config = runtime::smokeMissionConfig();
  config.seed = 7;
  config.pipeline.execution = runtime::ExecutionMode::Async;
  const auto first = runtime::runMission(environment, runtime::DesignType::RoboRun, config);
  const auto second = runtime::runMission(environment, runtime::DesignType::RoboRun, config);
  ASSERT_GT(first.decisions(), 0u);
  EXPECT_TRUE(resultsIdentical(first, second));
}

TEST(DeterminismTest, AsyncAStarRepeatsBitwise) {
  const env::Environment environment = env::generateEnvironment(shortSpec(11));
  runtime::MissionConfig config = runtime::smokeMissionConfig();
  config.seed = 7;
  config.pipeline.execution = runtime::ExecutionMode::Async;
  config.pipeline.planner_mode = runtime::PlannerMode::AStar;
  const auto first = runtime::runMission(environment, runtime::DesignType::RoboRun, config);
  const auto second = runtime::runMission(environment, runtime::DesignType::RoboRun, config);
  ASSERT_GT(first.decisions(), 0u);
  EXPECT_TRUE(resultsIdentical(first, second));
}

/// FNV-1a 64 folded over `bytes`, continuing from `hash`.
std::uint64_t fnv1a64(std::string_view bytes, std::uint64_t hash) {
  for (const char c : bytes) {
    hash ^= static_cast<unsigned char>(c);
    hash *= 0x100000001b3ULL;
  }
  return hash;
}

/// Digest of one mission under `config`'s execution mode: its stored-result
/// payload (every deterministic field, doubles as exact bit patterns)
/// followed by the per-epoch staleness sequence the decision observer
/// reported.
std::uint64_t missionDigest(const env::Environment& environment, runtime::DesignType design,
                            runtime::MissionConfig config) {
  std::vector<std::size_t> staleness;
  config.decision_observer = [&staleness](std::size_t, std::size_t s) {
    staleness.push_back(s);
  };
  const runtime::MissionResult result = runtime::runMission(environment, design, config);
  EXPECT_EQ(staleness.size(), result.decisions());
  std::uint64_t hash =
      fnv1a64(store::serializeStoredResult({result, 1}), 0xcbf29ce484222325ULL);
  for (const std::size_t s : staleness) {
    const auto s64 = static_cast<std::uint64_t>(s);
    char bytes[sizeof s64];
    std::memcpy(bytes, &s64, sizeof s64);
    hash = fnv1a64(std::string_view(bytes, sizeof bytes), hash);
  }
  return hash;
}

/// missionDigest() of the async run.
std::uint64_t asyncMissionDigest(const env::Environment& environment,
                                 runtime::DesignType design,
                                 runtime::MissionConfig config) {
  config.pipeline.execution = runtime::ExecutionMode::Async;
  return missionDigest(environment, design, config);
}

// Cross-commit pin for the pipelined loop. The repeat tests above only
// compare an async run with itself, so a change to the mission loop that
// altered async results would still pass them. These digests pin the
// results themselves: they move only when async behavior is meant to
// change. Floating-point results depend on the toolchain; recorded with
// GCC 12.2 (Debian 12.2.0-14), x86-64, Release (-O3), no -march.
TEST(DeterminismTest, AsyncGoldenDigests) {
  const env::EnvSpec spec = shortSpec(11);
  const env::Environment environment = env::generateEnvironment(spec);
  const runtime::MissionConfig smoke = runtime::smokeMissionConfig();
  struct Case {
    const char* name;
    runtime::DesignType design;
    runtime::MissionConfig config;
    std::uint64_t digest;
  };
  auto planner = [&smoke](runtime::PlannerMode mode) {
    runtime::MissionConfig config = smoke;
    config.pipeline.planner_mode = mode;
    return config;
  };
  runtime::MissionConfig faults = smoke;
  faults.faults.blackout_rate = 0.06;
  faults.faults.blackout_len = 3;
  faults.faults.dropout = 0.2;
  faults.faults.spike_rate = 0.05;
  runtime::MissionConfig movers = smoke;
  movers.dynamic_obstacles = env::crossTraffic(spec, 4, 1.0, 3);

  using runtime::DesignType;
  using runtime::PlannerMode;
  const Case cases[] = {
      {"roborun_rrt", DesignType::RoboRun, planner(PlannerMode::RrtStar),
       0xc2c7703a144da052ULL},
      {"roborun_astar", DesignType::RoboRun, planner(PlannerMode::AStar),
       0x3cab322d6b1d4f82ULL},
      {"oblivious_rrt", DesignType::SpatialOblivious, planner(PlannerMode::RrtStar),
       0xbebdd44097b12c92ULL},
      {"oblivious_astar", DesignType::SpatialOblivious, planner(PlannerMode::AStar),
       0x5aa0d7988f366601ULL},
      {"roborun_faults", DesignType::RoboRun, faults, 0xcb2349a29176fefdULL},
      {"roborun_cross_traffic", DesignType::RoboRun, movers, 0xc19674b0fbb2c60eULL},
  };
  for (const Case& c : cases) {
    const std::uint64_t digest = asyncMissionDigest(environment, c.design, c.config);
    EXPECT_EQ(digest, c.digest) << c.name << ": got 0x" << std::hex << digest;
  }
}

// Cross-commit pin at paper fidelity. Every other mission pin here runs
// smokeMissionConfig(), whose sweeps of 288 rays stay below the octomap
// kernel's parallel classification grain (512 kept rays); the paper's
// 1680-ray sweeps cross it, so these digests pin the forked integrate path
// for both designs under both execution modes. One paper-scale world, capped
// at 60 s simulated so the pin fits the tier1 gate. Recorded like the async
// digests above (GCC 12.2, x86-64, Release, no -march).
TEST(DeterminismTest, PaperFidelityGoldenDigests) {
  env::EnvSpec spec;
  spec.seed = 3;
  const env::Environment environment = env::generateEnvironment(spec);
  runtime::MissionConfig paper = runtime::defaultMissionConfig();
  paper.max_mission_time = 60.0;
  paper.pipeline.planner_mode = runtime::PlannerMode::AStar;
  auto mode = [&paper](runtime::ExecutionMode execution) {
    runtime::MissionConfig config = paper;
    config.pipeline.execution = execution;
    return config;
  };
  struct Case {
    const char* name;
    runtime::DesignType design;
    runtime::ExecutionMode execution;
    std::uint64_t digest;
  };
  using runtime::DesignType;
  using runtime::ExecutionMode;
  const Case cases[] = {
      {"roborun_sync", DesignType::RoboRun, ExecutionMode::Sync,
       0xec97d8932489c9fbULL},
      {"roborun_async", DesignType::RoboRun, ExecutionMode::Async,
       0x9a9403d3cf123f01ULL},
      {"oblivious_sync", DesignType::SpatialOblivious, ExecutionMode::Sync,
       0x6395e6d36ee9b441ULL},
      {"oblivious_async", DesignType::SpatialOblivious, ExecutionMode::Async,
       0x4afc18e7865e07beULL},
  };
  for (const Case& c : cases) {
    const std::uint64_t digest = missionDigest(environment, c.design, mode(c.execution));
    EXPECT_EQ(digest, c.digest) << c.name << ": got 0x" << std::hex << digest;
  }
}

TEST(DeterminismTest, DifferentSeedsDiverge) {
  const runtime::MissionResult a = runOnce(runtime::DesignType::RoboRun, 11, 7);
  const runtime::MissionResult b = runOnce(runtime::DesignType::RoboRun, 12, 7);
  // A different world must change *something* observable.
  EXPECT_FALSE(resultsIdentical(a, b));
}

// --- Pooled planner determinism --------------------------------------------
//
// A mission's A* replans share one persistent PlannerArena; its
// replayability contract is the same as the mission's: an identical seed
// (deciding the obstacle schedule) must produce bitwise-identical
// AStarResults at every epoch, on every run, regardless of how many sibling
// planners run concurrently on other threads.

::testing::AssertionResult astarResultsIdentical(const planning::AStarResult& a,
                                                 const planning::AStarResult& b) {
  auto fail = [&](const char* field) {
    return ::testing::AssertionFailure() << "AStarResult differs in " << field;
  };
  if (a.report.found != b.report.found) return fail("found");
  if (a.report.expansions != b.report.expansions) return fail("expansions");
  if (a.report.generated != b.report.generated) return fail("generated");
  if (!bitEqual(a.report.path_cost, b.report.path_cost)) return fail("path_cost");
  if (a.path.size() != b.path.size()) return fail("path.size");
  for (std::size_t i = 0; i < a.path.size(); ++i)
    if (!bitEqual(a.path[i].x, b.path[i].x) || !bitEqual(a.path[i].y, b.path[i].y) ||
        !bitEqual(a.path[i].z, b.path[i].z))
      return fail("path waypoint");
  return ::testing::AssertionSuccess();
}

/// Replay a seed-derived obstacle schedule through planPathAStar on one
/// persistent arena and collect every epoch's result.
std::vector<planning::AStarResult> runPooledSchedule(std::uint64_t seed) {
  geom::Rng rng(seed * 6364136223846793005ULL + 1442695040888963407ULL);
  const double precision = 0.3;
  std::vector<perception::VoxelBox> voxels;
  planning::AStarParams params;
  params.bounds = geom::Aabb{{-4, -20, 0}, {44, 20, 9}};
  params.cell = 0.75;
  planning::PlannerArena arena;
  std::vector<planning::AStarResult> results;
  for (int epoch = 0; epoch < 10; ++epoch) {
    if (epoch > 0) {
      // One voxel cluster per epoch, alternating near and far from the
      // corridor.
      const geom::Vec3 c = epoch % 2 == 0 ? rng.uniformInBox({12, -3, 1}, {28, 3, 5})
                                          : rng.uniformInBox({6, 12, 0}, {34, 18, 7});
      for (int i = 0; i < 12; ++i) {
        const geom::Vec3 p = c + rng.uniformInBox({-0.9, -0.9, -0.9}, {0.9, 0.9, 0.9});
        voxels.push_back(perception::VoxelBox{p, precision});
      }
    }
    perception::PlannerMap map(precision, 0.45);
    for (const auto& v : voxels) map.addVoxel(v);
    results.push_back(planning::planPathAStar(map, {2, 0, 2}, {38, 0, 2}, params, arena));
  }
  return results;
}

TEST(DeterminismTest, PooledPlannerRepeatsBitwise) {
  const auto first = runPooledSchedule(31);
  const auto second = runPooledSchedule(31);
  ASSERT_EQ(first.size(), second.size());
  for (std::size_t i = 0; i < first.size(); ++i)
    EXPECT_TRUE(astarResultsIdentical(first[i], second[i])) << "epoch " << i;
}

TEST(DeterminismTest, PooledPlannerIndependentOfThreadCount) {
  constexpr std::size_t kSchedules = 4;
  const auto runGrid = [](unsigned threads) {
    std::vector<std::vector<planning::AStarResult>> results(kSchedules);
    std::atomic<std::size_t> next{0};
    auto worker = [&]() {
      for (;;) {
        const std::size_t i = next.fetch_add(1);
        if (i >= kSchedules) return;
        results[i] = runPooledSchedule(100 + i);
      }
    };
    std::vector<std::thread> pool;
    for (unsigned t = 1; t < threads; ++t) pool.emplace_back(worker);
    worker();
    for (std::thread& t : pool) t.join();
    return results;
  };

  const auto serial = runGrid(1);
  for (const unsigned threads : {2u, 4u}) {
    const auto parallel = runGrid(threads);
    ASSERT_EQ(serial.size(), parallel.size());
    for (std::size_t i = 0; i < serial.size(); ++i) {
      ASSERT_EQ(serial[i].size(), parallel[i].size());
      for (std::size_t e = 0; e < serial[i].size(); ++e)
        EXPECT_TRUE(astarResultsIdentical(serial[i][e], parallel[i][e]))
            << "schedule " << i << " epoch " << e << " threads " << threads;
    }
  }
}

// The batch-harness contract: a mission's result must not depend on how many
// sibling missions run concurrently. Run the same (env seed, mission seed)
// grid serially, then on 2 and 4 threads, and demand bitwise-equal results.
TEST(DeterminismTest, IndependentOfThreadCount) {
  constexpr std::size_t kMissions = 4;
  const auto runGrid = [](unsigned threads) {
    std::vector<runtime::MissionResult> results(kMissions);
    std::atomic<std::size_t> next{0};
    auto worker = [&]() {
      for (;;) {
        const std::size_t i = next.fetch_add(1);
        if (i >= kMissions) return;
        results[i] = runOnce(runtime::DesignType::RoboRun, 20 + i, 3 + i);
      }
    };
    std::vector<std::thread> pool;
    for (unsigned t = 1; t < threads; ++t) pool.emplace_back(worker);
    worker();
    for (std::thread& t : pool) t.join();
    return results;
  };

  const std::vector<runtime::MissionResult> serial = runGrid(1);
  for (const unsigned threads : {2u, 4u}) {
    const std::vector<runtime::MissionResult> parallel = runGrid(threads);
    ASSERT_EQ(serial.size(), parallel.size());
    for (std::size_t i = 0; i < serial.size(); ++i) {
      EXPECT_TRUE(resultsIdentical(serial[i], parallel[i]))
          << "mission " << i << " with " << threads << " threads";
    }
  }
}

}  // namespace
