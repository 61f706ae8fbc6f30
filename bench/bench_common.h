// Shared plumbing for the experiment benches.
//
// Every bench prints "paper vs measured" rows, so its raw stdout is the
// comparison table, and writes raw series as CSV into ./bench_out/ under
// the working directory. Mission-level benches run at a reduced scale by
// default so the whole suite finishes in minutes; set ROBORUN_FULL=1 for
// the paper-scale protocol (full goal distances / spreads).
#pragma once

#include <algorithm>
#include <cstdlib>
#include <filesystem>
#include <iostream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "env/env_gen.h"
#include "env/suite.h"
#include "runtime/designs.h"
#include "runtime/mission.h"
#include "runtime/report.h"
#include "scenario/fleet_scheduler.h"

namespace roborun::bench {

inline bool fullScale() {
  const char* v = std::getenv("ROBORUN_FULL");
  return v != nullptr && std::string(v) == "1";
}

/// Suite knobs: the paper's Fig. 8a values at full scale, a proportionally
/// shrunken 3x3x3 grid otherwise (same structure, shorter missions).
inline env::SuiteKnobs benchSuiteKnobs() {
  return fullScale() ? env::SuiteKnobs{} : env::smallSuiteKnobs();
}

/// Mission configuration used by all mission-level benches.
inline runtime::MissionConfig benchMissionConfig() {
  auto config = runtime::defaultMissionConfig();
  if (!fullScale()) {
    config.sensor.rays_horizontal = 14;
    config.sensor.rays_vertical = 10;
    config.pipeline.rrt_max_iterations = 2000;
    // Generous for a 500 m mission at the baseline's ~0.4 m/s, but bounded:
    // a stuck mission must not stall the whole suite.
    config.max_mission_time = 3000.0;
  }
  return config;
}

/// Output directory for CSV series.
inline std::filesystem::path outDir() {
  auto dir = std::filesystem::path("bench_out");
  std::filesystem::create_directories(dir);
  return dir;
}

struct MissionJob {
  env::EnvSpec spec;
  runtime::DesignType design = runtime::DesignType::SpatialOblivious;
  runtime::MissionResult result;
};

/// Fleet workers for a batch of `missions`: every core but two (at least
/// one), never more than the batch.
inline unsigned benchThreads(std::size_t missions) {
  const std::size_t hw = std::thread::hardware_concurrency();
  return static_cast<unsigned>(std::min<std::size_t>(missions, hw > 2 ? hw - 2 : 1));
}

/// Run all jobs through scenario::FleetScheduler (missions are independent;
/// each builds its own world and pipeline, results land at the job index).
inline void runMissions(std::vector<MissionJob>& jobs, const runtime::MissionConfig& config,
                        std::size_t threads = 0) {
  if (threads == 0) threads = benchThreads(jobs.size());
  scenario::FleetConfig fleet_config;
  fleet_config.threads = static_cast<unsigned>(threads);
  std::vector<scenario::MissionCase> cases;
  for (const MissionJob& job : jobs) {
    scenario::MissionCase c;
    c.scenario = "bench";
    c.env = job.spec;
    c.design = job.design;
    c.config = config;
    cases.push_back(std::move(c));
  }
  scenario::FleetScheduler scheduler(config, fleet_config);
  scheduler.admit(std::move(cases));
  scenario::FleetResult result = scheduler.run();
  for (std::size_t i = 0; i < jobs.size(); ++i)
    jobs[i].result = std::move(result.rows[i].result);
}

/// "N of M missions reached the goal" summary line.
inline void printSuccessRate(const std::vector<MissionJob>& jobs, runtime::DesignType design) {
  std::size_t total = 0;
  std::size_t ok = 0;
  for (const auto& j : jobs) {
    if (j.design != design) continue;
    ++total;
    ok += j.result.reached_goal() ? 1 : 0;
  }
  std::cout << "  " << runtime::designName(design) << ": " << ok << "/" << total
            << " missions reached the goal\n";
}

}  // namespace roborun::bench
