// bench_mission_latency — the intra-mission pipelining bench behind
// BENCH_PERF.json's mission_latency section.
//
// Runs the same mission workload under both execution modes and reports,
// per mode: end-to-end wall time, the distribution (p50 / p95 / max) of
// per-epoch wall durations sampled through MissionConfig::decision_observer,
// and — for async — the staleness tally of the map snapshots planning
// consumed.
//
// Workload design. The pipelined executor overlaps octree integration with
// planning and flying, so its win scales with perception cost: the full
// workload runs the paper-fidelity sensor (defaultMissionConfig, 20x14
// rays/camera) where integration is worth overlapping, while --smoke keeps
// the reduced test fidelity for a fast tier-1 gate. Both use the pooled A*
// planner (on stale-by-one maps RRT*'s sampling reroutes whole
// trajectories; flipping RRT* scenarios async is a catalog experiment via
// the pipeline_async dial, not this bench's comparison). Seeds are pinned
// to missions where BOTH modes reach the goal: async plans on a snapshot
// one sweep old, which legitimately reroutes trajectories on marginal
// worlds, and comparing a reached-goal flight against a timeout or
// collision measures the world, not the executor.
//
// Correctness gates (the bench exits nonzero on any failure, so a perf
// number can never come from a broken pipeline):
//   - sync anchor: every sync mission must be byte-identical to the frozen
//     pre-pipelining loop (tests/reference_mission.h);
//   - async determinism: every async mission re-run must be byte-identical
//     to its first run;
//   - bounded staleness: async planning inputs may lag at most one sweep,
//     and every mission must end in a terminal MissionStatus.
//
// Usage:
//   bench_mission_latency [--smoke] [--json <path>]

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "env/env_gen.h"
#include "geom/stats.h"
#include "reference_mission.h"
#include "runtime/designs.h"
#include "runtime/mission.h"

namespace {

using namespace roborun;
using runtime::DesignType;
using runtime::ExecutionMode;
using runtime::MissionConfig;
using runtime::MissionResult;

struct Workload {
  std::vector<std::uint64_t> env_seeds;
  /// Paper-fidelity sensor (defaultMissionConfig) vs reduced test fidelity.
  bool paper_fidelity = false;
};

/// Per-mode measurement: wall time plus the per-epoch duration samples and
/// staleness tally collected through the decision observer.
struct ModeStats {
  double wall_s = 0.0;
  std::vector<double> epoch_ms;
  std::size_t decisions = 0;
  std::size_t stale_zero = 0;
  std::size_t stale_one = 0;
  std::size_t stale_over = 0;  ///< must stay 0 (bounded-staleness contract)
};

env::Environment benchEnvironment(std::uint64_t seed) {
  env::EnvSpec spec;
  spec.obstacle_density = 0.45;
  spec.obstacle_spread = 60.0;
  spec.goal_distance = 420.0;
  spec.seed = seed;
  return env::generateEnvironment(spec);
}

/// geom::percentile of the epoch samples, or 0 when a mode recorded none.
double epochPercentile(const std::vector<double>& v, double p) {
  return v.empty() ? 0.0 : geom::percentile(v, p);
}

/// Run one mission in `mode`, appending epoch wall samples and staleness
/// counts into `stats`. Returns the mission result.
MissionResult runMeasured(const env::Environment& environment, const MissionConfig& base,
                          ExecutionMode mode, ModeStats& stats) {
  MissionConfig config = base;
  config.pipeline.execution = mode;
  auto last = std::chrono::steady_clock::now();
  bool first_epoch = true;
  config.decision_observer = [&](std::size_t, std::size_t staleness) {
    const auto now = std::chrono::steady_clock::now();
    if (!first_epoch)
      stats.epoch_ms.push_back(
          std::chrono::duration<double, std::milli>(now - last).count());
    first_epoch = false;
    last = now;
    if (staleness == 0) ++stats.stale_zero;
    else if (staleness == 1) ++stats.stale_one;
    else ++stats.stale_over;
  };
  const auto start = std::chrono::steady_clock::now();
  MissionResult result = runMission(environment, DesignType::RoboRun, config);
  stats.wall_s +=
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
  stats.decisions += result.decisions();
  return result;
}

void emitMode(std::ostream& os, const char* name, const ModeStats& s) {
  os << "    \"" << name << "\": {\n"
     << "      \"wall_s\": " << s.wall_s << ",\n"
     << "      \"decisions\": " << s.decisions << ",\n"
     << "      \"epoch_ms_p50\": " << epochPercentile(s.epoch_ms, 0.50) << ",\n"
     << "      \"epoch_ms_p95\": " << epochPercentile(s.epoch_ms, 0.95) << ",\n"
     << "      \"epoch_ms_max\": "
     << (s.epoch_ms.empty() ? 0.0 : *std::max_element(s.epoch_ms.begin(), s.epoch_ms.end()))
     << ",\n"
     << "      \"staleness\": { \"fresh\": " << s.stale_zero
     << ", \"stale_one\": " << s.stale_one << ", \"stale_over\": " << s.stale_over
     << " }\n"
     << "    }";
}

}  // namespace

int main(int argc, char** argv) {
  bool smoke = false;
  std::string json_path;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--smoke") {
      smoke = true;
    } else if (arg == "--json" && i + 1 < argc) {
      json_path = argv[++i];
    } else {
      std::cerr << "usage: bench_mission_latency [--smoke] [--json <path>]\n";
      return 2;
    }
  }

  Workload workload;
  // Full-mode seeds: paper-fidelity worlds where sync AND async reach the
  // goal (see the workload-design note at the top of this file). Changing
  // this list changes the recorded BENCH_PERF.json numbers — re-record.
  workload.env_seeds = smoke ? std::vector<std::uint64_t>{23}
                             : std::vector<std::uint64_t>{10, 15, 17, 21, 22, 28};
  workload.paper_fidelity = !smoke;

  ModeStats sync_stats;
  ModeStats async_stats;
  int failures = 0;

  for (const auto seed : workload.env_seeds) {
    const auto environment = benchEnvironment(seed);
    MissionConfig config = workload.paper_fidelity ? runtime::defaultMissionConfig()
                                                   : runtime::testMissionConfig();
    config.pipeline.planner_mode = runtime::PlannerMode::AStar;

    // --- sync: measure, then anchor against the frozen loop ---
    const MissionResult sync_result =
        runMeasured(environment, config, ExecutionMode::Sync, sync_stats);
    {
      MissionConfig frozen = config;
      frozen.pipeline.execution = ExecutionMode::Sync;
      const MissionResult anchor = reference::runMissionReference(
          environment, DesignType::RoboRun, frozen);
      if (!runtime::missionResultsIdentical(sync_result, anchor)) {
        std::cerr << "FAIL: sync mission diverged from the frozen reference loop "
                  << "(env_seed=" << seed << ")\n";
        ++failures;
      }
    }

    // --- async: measure, then re-run for bitwise determinism ---
    const MissionResult async_result =
        runMeasured(environment, config, ExecutionMode::Async, async_stats);
    {
      ModeStats scratch;
      const MissionResult again =
          runMeasured(environment, config, ExecutionMode::Async, scratch);
      if (!runtime::missionResultsIdentical(async_result, again)) {
        std::cerr << "FAIL: async mission not deterministic across re-runs "
                  << "(env_seed=" << seed << ")\n";
        ++failures;
      }
    }
    // The workload pins reached-goal worlds, so a non-goal terminal status
    // in either mode means the workload (or the executor) regressed and the
    // wall comparison below would be meaningless.
    if (sync_result.status != runtime::MissionStatus::ReachedGoal) {
      std::cerr << "FAIL: sync mission did not reach the goal (env_seed=" << seed
                << ", status=" << static_cast<int>(sync_result.status) << ")\n";
      ++failures;
    }
    if (async_result.status != runtime::MissionStatus::ReachedGoal) {
      std::cerr << "FAIL: async mission did not reach the goal (env_seed=" << seed
                << ", status=" << static_cast<int>(async_result.status) << ")\n";
      ++failures;
    }
  }

  if (async_stats.stale_over != 0) {
    std::cerr << "FAIL: async planning consumed a snapshot more than one sweep old ("
              << async_stats.stale_over << " epochs)\n";
    ++failures;
  }
  if (sync_stats.stale_zero != sync_stats.decisions) {
    std::cerr << "FAIL: sync reported a nonzero staleness epoch\n";
    ++failures;
  }

  const double speedup =
      async_stats.wall_s > 0.0 ? sync_stats.wall_s / async_stats.wall_s : 0.0;
  std::cout << "mission_latency (" << (smoke ? "smoke" : "full") << ")\n"
            << "  sync : wall " << sync_stats.wall_s << " s, epoch p50 "
            << epochPercentile(sync_stats.epoch_ms, 0.50) << " ms, p95 "
            << epochPercentile(sync_stats.epoch_ms, 0.95) << " ms\n"
            << "  async: wall " << async_stats.wall_s << " s, epoch p50 "
            << epochPercentile(async_stats.epoch_ms, 0.50) << " ms, p95 "
            << epochPercentile(async_stats.epoch_ms, 0.95) << " ms, stale-one "
            << async_stats.stale_one << "/"
            << (async_stats.stale_zero + async_stats.stale_one) << "\n"
            << "  speedup (sync/async wall): " << speedup << "x\n";

  if (!json_path.empty()) {
    std::ostringstream os;
    os << "{\n"
       << "  \"schema\": \"roborun-mission-latency-v1\",\n"
       << "  \"smoke\": " << (smoke ? "true" : "false") << ",\n"
       << "  \"workload\": {\n"
       << "    \"env_seeds\": " << workload.env_seeds.size() << ",\n"
       << "    \"planner\": \"astar\",\n"
       << "    \"fidelity\": \"" << (workload.paper_fidelity ? "paper" : "test") << "\",\n"
       << "    \"design\": \"roborun\"\n"
       << "  },\n"
       << "  \"modes\": {\n";
    emitMode(os, "sync", sync_stats);
    os << ",\n";
    emitMode(os, "async", async_stats);
    os << "\n  },\n"
       << "  \"speedup_wall\": " << speedup << "\n"
       << "}\n";
    std::ofstream out(json_path);
    out << os.str();
    if (!out) {
      std::cerr << "bench_mission_latency: cannot write " << json_path << "\n";
      return 2;
    }
  }

  if (failures != 0) {
    std::cerr << failures << " check(s) failed\n";
    return 1;
  }
  return 0;
}
