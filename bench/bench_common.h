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

/// Fleet workers for a batch of `missions`: every core but two (at least
/// one), never more than the batch.
inline unsigned benchThreads(std::size_t missions) {
  const std::size_t hw = std::thread::hardware_concurrency();
  return static_cast<unsigned>(std::min<std::size_t>(missions, hw > 2 ? hw - 2 : 1));
}

}  // namespace roborun::bench
