// bench_planning_throughput — the replan-heavy planning microbench behind
// BENCH_PERF.json's planning section.
//
// Replays one identical sensor-epoch workload (a mission-shaped corridor
// map that accretes obstacle clusters every epoch, alternating near and far
// from the flown corridor) through two replan paths, both searching from
// scratch every epoch:
//
//   reference_astar    the frozen seed planner (per-call unordered_map
//                      bookkeeping; tests/reference_astar.h)
//   pooled_astar       the PlannerArena planner, one persistent arena
//                      (isolates the pooled-bookkeeping + occupancy-memo
//                      win)
//
// plus an RRT* section timing the arena-backed grid index against the
// per-call allocation path on the same maps. Both A* variants must answer
// identically at every epoch — the bench aborts if they diverge, so a perf
// number can never come from a wrong plan.
//
// Usage:
//   bench_planning_throughput [--smoke] [--json <path>]
//
// --smoke shrinks the workload for CI; --json writes the machine-readable
// record (the planning_throughput section of BENCH_PERF.json).

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstring>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "geom/rng.h"
#include "obs/json.h"
#include "perception/planner_map.h"
#include "planning/astar.h"
#include "planning/rrt_star.h"
#include "reference_astar.h"

namespace {

using namespace roborun;
using geom::Aabb;
using geom::Rng;
using geom::Vec3;
using obs::jsonNumber;
using perception::PlannerMap;
using perception::VoxelBox;

constexpr double kPrecision = 0.3;
constexpr double kInflation = 0.45;

struct Workload {
  std::vector<PlannerMap> epochs;
  Vec3 start{2, 0, 2};
  Vec3 goal{38, 0, 2};
  planning::AStarParams params;
};

Workload buildWorkload(bool smoke) {
  Workload w;
  w.params.bounds = Aabb{{-4, -24, 0}, {44, 24, 9}};
  w.params.cell = 0.75;
  w.params.goal_tolerance = 3.0;

  Rng rng(0xC0FFEEu);
  std::vector<VoxelBox> voxels;
  auto addCluster = [&](const Vec3& center, int radius_cells) {
    for (int dz = -radius_cells; dz <= radius_cells; ++dz)
      for (int dy = -radius_cells; dy <= radius_cells; ++dy)
        for (int dx = -radius_cells; dx <= radius_cells; ++dx) {
          if (!rng.chance(0.7)) continue;
          voxels.push_back(VoxelBox{{center.x + dx * kPrecision, center.y + dy * kPrecision,
                                     center.z + dz * kPrecision},
                                    kPrecision});
        }
  };

  // Base clutter the first plan must thread.
  for (int i = 0; i < 6; ++i) addCluster(rng.uniformInBox({8, -10, 1}, {32, 10, 6}), 2);

  const std::size_t epoch_count = smoke ? 12 : 48;
  for (std::size_t e = 0; e < epoch_count; ++e) {
    if (e > 0) {
      // The sensor-epoch shape: most sweeps add map detail away from the
      // corridor (the drone looks around), some drop obstacles onto it.
      if (e % 4 != 0) {
        addCluster(rng.uniformInBox({6, 12, 0}, {36, 20, 7}), 2);
      } else {
        addCluster(rng.uniformInBox({10, -4, 1}, {30, 4, 5}), 1);
      }
    }
    PlannerMap map(kPrecision, kInflation);
    map.reserve(voxels.size());
    for (const auto& v : voxels) map.addVoxel(v);
    w.epochs.push_back(std::move(map));
  }
  return w;
}

template <typename Fn>
double timeIt(Fn&& fn) {
  const auto start = std::chrono::steady_clock::now();
  fn();
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
}

bool bitEqual(double a, double b) { return std::memcmp(&a, &b, sizeof(double)) == 0; }

bool resultsIdentical(const planning::AStarResult& a, const planning::AStarResult& b) {
  if (a.report.found != b.report.found || a.report.expansions != b.report.expansions ||
      a.report.generated != b.report.generated ||
      !bitEqual(a.report.path_cost, b.report.path_cost) || a.path.size() != b.path.size())
    return false;
  for (std::size_t i = 0; i < a.path.size(); ++i)
    if (!bitEqual(a.path[i].x, b.path[i].x) || !bitEqual(a.path[i].y, b.path[i].y) ||
        !bitEqual(a.path[i].z, b.path[i].z))
      return false;
  return true;
}

struct VariantResult {
  double seconds = 1e100;        ///< best-of-reps wall time for the full schedule
  double replans_per_sec = 0.0;
  std::size_t expansions = 0;    ///< total expansions over the schedule (last rep)
};

void writeVariant(std::ostream& os, const char* name, const VariantResult& v,
                  std::size_t epochs, bool last) {
  os << "    \"" << name << "\": {\"seconds\": " << jsonNumber(v.seconds)
     << ", \"replans\": " << epochs
     << ", \"replans_per_sec\": " << jsonNumber(v.replans_per_sec, 1)
     << ", \"expansions\": " << v.expansions << "}"
     << (last ? "" : ",") << "\n";
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
    } else if (arg == "--help" || arg == "-h") {
      std::cout << "usage: bench_planning_throughput [--smoke] [--json <path>]\n";
      return 0;
    } else {
      std::cerr << "bench_planning_throughput: unknown flag " << arg << "\n";
      return 2;
    }
  }

  const Workload w = buildWorkload(smoke);
  const std::size_t epochs = w.epochs.size();
  const int reps = smoke ? 2 : 4;  // best-of-N: tame scheduler/turbo noise

  // Reference answers, computed once, compared against every variant below.
  std::vector<planning::AStarResult> expected;
  expected.reserve(epochs);
  for (const PlannerMap& map : w.epochs)
    expected.push_back(planning::reference::planPathAStar(map, w.start, w.goal, w.params));

  VariantResult reference, pooled;
  std::size_t mismatches = 0;
  auto checkEpoch = [&](const planning::AStarResult& got, std::size_t epoch) {
    if (!resultsIdentical(got, expected[epoch])) ++mismatches;
  };

  for (int rep = 0; rep < reps; ++rep) {
    reference.expansions = 0;
    reference.seconds = std::min(reference.seconds, timeIt([&] {
      for (std::size_t e = 0; e < epochs; ++e) {
        const auto r =
            planning::reference::planPathAStar(w.epochs[e], w.start, w.goal, w.params);
        reference.expansions += r.report.expansions;
        checkEpoch(r, e);
      }
    }));

    planning::PlannerArena arena;
    pooled.expansions = 0;
    pooled.seconds = std::min(pooled.seconds, timeIt([&] {
      for (std::size_t e = 0; e < epochs; ++e) {
        const auto r =
            planning::planPathAStar(w.epochs[e], w.start, w.goal, w.params, arena);
        pooled.expansions += r.report.expansions;
        checkEpoch(r, e);
      }
    }));
  }

  for (VariantResult* v : {&reference, &pooled})
    v->replans_per_sec =
        v->seconds > 0.0 ? static_cast<double>(epochs) / v->seconds : 0.0;

  // RRT* arena section: same planner inputs, fresh-arena vs persistent-arena
  // (the allocation-churn delta; answers must match bit-for-bit).
  const std::size_t rrt_plans = smoke ? 8 : 32;
  planning::RrtParams rrt_params;
  rrt_params.bounds = w.params.bounds;
  rrt_params.volume_budget = 1e9;
  rrt_params.max_iterations = 2500;
  double rrt_fresh_s = 1e100;
  double rrt_arena_s = 1e100;
  {
    const PlannerMap& map = w.epochs.back();
    std::vector<double> fresh_costs, arena_costs;
    for (int rep = 0; rep < reps; ++rep) {
      fresh_costs.clear();
      rrt_fresh_s = std::min(rrt_fresh_s, timeIt([&] {
        for (std::size_t i = 0; i < rrt_plans; ++i) {
          geom::Rng rng(1000 + i);
          fresh_costs.push_back(
              planning::planPath(map, w.start, w.goal, rrt_params, rng).report.path_cost);
        }
      }));
      planning::PlannerArena arena;
      arena_costs.clear();
      rrt_arena_s = std::min(rrt_arena_s, timeIt([&] {
        for (std::size_t i = 0; i < rrt_plans; ++i) {
          geom::Rng rng(1000 + i);
          arena_costs.push_back(
              planning::planPath(map, w.start, w.goal, rrt_params, rng, arena)
                  .report.path_cost);
        }
      }));
    }
    for (std::size_t i = 0; i < rrt_plans; ++i)
      if (!bitEqual(fresh_costs[i], arena_costs[i])) ++mismatches;
  }

  if (mismatches != 0) {
    std::cerr << "bench_planning_throughput: PLANNERS DIVERGED (" << mismatches
              << " mismatches) — numbers below are invalid\n";
  }

  const double speedup_pooled =
      pooled.seconds > 0.0 ? reference.seconds / pooled.seconds : 0.0;
  const double speedup_rrt = rrt_arena_s > 0.0 ? rrt_fresh_s / rrt_arena_s : 0.0;

  std::cerr << "planning throughput (" << (smoke ? "smoke" : "full") << ": " << epochs
            << " replan epochs, pitch " << w.params.cell << " m)\n"
            << "  reference_astar:   " << jsonNumber(reference.replans_per_sec, 1)
            << " replans/s\n"
            << "  pooled_astar:      " << jsonNumber(pooled.replans_per_sec, 1)
            << " replans/s  (" << jsonNumber(speedup_pooled, 2) << "x)\n"
            << "  rrt arena reuse:   " << jsonNumber(speedup_rrt, 2) << "x over "
            << rrt_plans << " plans\n";

  std::ostringstream json;
  json << "{\n";
  json << "  \"schema\": \"roborun-planning-throughput-v1\",\n";
  json << "  \"smoke\": " << (smoke ? "true" : "false") << ",\n";
  json << "  \"workload\": {\"epochs\": " << epochs
       << ", \"cell_m\": " << jsonNumber(w.params.cell, 3)
       << ", \"map_precision_m\": " << jsonNumber(kPrecision, 3)
       << ", \"inflation_m\": " << jsonNumber(kInflation, 3) << "},\n";
  json << "  \"variants\": {\n";
  writeVariant(json, "reference_astar", reference, epochs, false);
  writeVariant(json, "pooled_astar", pooled, epochs, true);
  json << "  },\n";
  json << "  \"rrt_arena\": {\"plans\": " << rrt_plans
       << ", \"fresh_seconds\": " << jsonNumber(rrt_fresh_s)
       << ", \"arena_seconds\": " << jsonNumber(rrt_arena_s)
       << ", \"speedup\": " << jsonNumber(speedup_rrt, 3) << "},\n";
  json << "  \"speedup\": {\"pooled_astar\": " << jsonNumber(speedup_pooled, 3) << "},\n";
  json << "  \"planners_agree\": " << (mismatches == 0 ? "true" : "false") << "\n";
  json << "}\n";

  if (json_path.empty()) {
    std::cout << json.str();
  } else {
    std::ofstream out(json_path);
    if (!out) {
      std::cerr << "bench_planning_throughput: cannot open " << json_path << "\n";
      return 1;
    }
    out << json.str();
    std::cerr << "bench_planning_throughput: wrote " << json_path << "\n";
  }
  return mismatches == 0 ? 0 : 1;
}
