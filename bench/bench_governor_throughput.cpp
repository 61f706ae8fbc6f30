// bench_governor_throughput — the decision-rate microbench behind
// BENCH_PERF.json's governor section.
//
// Section 1 (governor core) replays one identical mission-shaped decision
// schedule — three congestion zones, a pool of distinct space profiles per
// zone, revisited many times as the vehicle re-encounters similar spatial
// situations — through two Eq. 3 paths:
//
//   reference_governor  the frozen seed budgeter + exhaustive solver
//                       (tests/reference_governor.h)
//   engine_enumerate    core::DecisionEngine (every decision runs
//                       GovernorSolver::pick, the same loop as the frozen
//                       reference)
//
// Section 2 (sensor path) replays a flown schedule — sensor frames, a live
// octree accreting sweeps, hover phases — through the seed composition
// (core::profileSpace + frozen governor) and through
// DecisionEngine::decideFromSensors (the same profileSpace call plus the
// engine's solve).
//
// Every variant must produce bit-identical decisions (and profiles) at
// every step — the bench exits nonzero if they diverge, so a perf number
// can never come from a wrong policy.
//
// Usage:
//   bench_governor_throughput [--smoke] [--json <path>]

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstring>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "core/decision_engine.h"
#include "core/latency_calibration.h"
#include "env/env_gen.h"
#include "geom/rng.h"
#include "obs/json.h"
#include "perception/octomap_kernel.h"
#include "perception/point_cloud.h"
#include "reference_governor.h"

namespace {

using namespace roborun;
using core::DecisionEngine;
using core::GovernorDecision;
using core::SpaceProfile;
using geom::Rng;
using geom::Vec3;
using obs::jsonNumber;

bool bitEqual(double a, double b) { return std::memcmp(&a, &b, sizeof(double)) == 0; }

bool decisionsIdentical(const GovernorDecision& a, const GovernorDecision& b) {
  if (!bitEqual(a.budget, b.budget) || a.budget_met != b.budget_met ||
      !bitEqual(a.solver_objective, b.solver_objective) ||
      !bitEqual(a.policy.deadline, b.policy.deadline) ||
      !bitEqual(a.policy.predicted_latency, b.policy.predicted_latency))
    return false;
  for (std::size_t i = 0; i < core::kNumStages; ++i)
    if (!bitEqual(a.policy.stages[i].precision, b.policy.stages[i].precision) ||
        !bitEqual(a.policy.stages[i].volume, b.policy.stages[i].volume))
      return false;
  return true;
}

/// Zone-shaped random profile (open / mid / congested): the operating
/// regimes of the paper's Fig. 9 map, which is what makes revisits the
/// realistic traffic pattern.
SpaceProfile zoneProfile(int zone, Rng& rng) {
  SpaceProfile p;
  if (zone == 0) {  // open
    p.gap_min = rng.uniform(40.0, 100.0);
    p.gap_avg = p.gap_min;
    p.d_obstacle = rng.uniform(20.0, 30.0);
    p.visibility = rng.uniform(20.0, 30.0);
    p.velocity = rng.uniform(2.0, 3.2);
  } else if (zone == 1) {  // mid
    p.gap_min = rng.uniform(4.0, 12.0);
    p.gap_avg = p.gap_min + rng.uniform(0.0, 20.0);
    p.d_obstacle = rng.uniform(5.0, 15.0);
    p.visibility = rng.uniform(8.0, 20.0);
    p.velocity = rng.uniform(1.0, 2.5);
  } else {  // congested
    p.gap_min = rng.uniform(0.5, 3.0);
    p.gap_avg = p.gap_min + rng.uniform(0.0, 4.0);
    p.d_obstacle = rng.uniform(0.5, 4.0);
    p.visibility = rng.uniform(1.5, 6.0);
    p.velocity = rng.uniform(0.2, 1.2);
  }
  p.d_unknown = p.visibility;
  p.sensor_volume = 113000.0;
  p.map_volume = rng.uniform(20000.0, 150000.0);
  p.position = rng.uniformInBox({-50, -50, 1}, {50, 50, 8});
  const int horizon = rng.uniformInt(2, 10);
  Vec3 wp = p.position;
  p.waypoints.push_back({wp, std::max(p.velocity, 0.05), p.visibility, 0.0});
  for (int i = 1; i < horizon; ++i) {
    wp = wp + Vec3{rng.uniform(1.0, 6.0), rng.uniform(-2.0, 2.0), 0.0};
    p.waypoints.push_back(
        {wp, rng.uniform(0.1, 3.2), rng.uniform(0.5, 30.0), rng.uniform(0.1, 3.0)});
  }
  return p;
}

template <typename Fn>
double timeIt(Fn&& fn) {
  const auto start = std::chrono::steady_clock::now();
  fn();
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
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
      std::cout << "usage: bench_governor_throughput [--smoke] [--json <path>]\n";
      return 0;
    } else {
      std::cerr << "bench_governor_throughput: unknown flag " << arg << "\n";
      return 2;
    }
  }

  const core::KnobConfig knobs;
  const core::BudgeterConfig budgeter;
  const sim::LatencyModel latency_model;
  const core::LatencyPredictor predictor =
      core::calibratePredictor(latency_model, knobs).predictor;
  const int reps = smoke ? 2 : 4;  // best-of-N: tame scheduler/turbo noise
  std::size_t mismatches = 0;

  // ------------------------------------------------------------------
  // Section 1: governor core (profiles in, policies out).
  // ------------------------------------------------------------------
  const std::size_t profiles_per_zone = smoke ? 12 : 20;
  const std::size_t revisits = smoke ? 20 : 100;
  std::vector<SpaceProfile> pool;
  {
    Rng rng(0xB0B5u);
    for (int zone = 0; zone < 3; ++zone)
      for (std::size_t i = 0; i < profiles_per_zone; ++i) pool.push_back(zoneProfile(zone, rng));
  }
  // Deterministic revisit schedule: a stride walk that interleaves zones.
  std::vector<std::size_t> schedule;
  schedule.reserve(pool.size() * revisits);
  for (std::size_t r = 0; r < revisits; ++r)
    for (std::size_t i = 0; i < pool.size(); ++i)
      schedule.push_back((i * 7 + r * 13) % pool.size());
  const std::size_t decisions = schedule.size();

  // Reference answers, computed once, compared against every variant below.
  std::vector<GovernorDecision> expected;
  expected.reserve(decisions);
  {
    core::reference::RoboRunGovernor ref(knobs, budgeter, predictor, knobs.fixed_overhead);
    for (const std::size_t idx : schedule) expected.push_back(ref.decide(pool[idx]));
  }
  auto check = [&](const GovernorDecision& got, std::size_t step) {
    if (!decisionsIdentical(got, expected[step])) ++mismatches;
  };

  double ref_s = 1e100;
  double enum_s = 1e100;
  for (int rep = 0; rep < reps; ++rep) {
    {
      core::reference::RoboRunGovernor ref(knobs, budgeter, predictor, knobs.fixed_overhead);
      ref_s = std::min(ref_s, timeIt([&] {
        for (std::size_t s = 0; s < decisions; ++s) check(ref.decide(pool[schedule[s]]), s);
      }));
    }
    {
      DecisionEngine::Config config;
      config.knobs = knobs;
      config.budgeter = budgeter;
      DecisionEngine engine(config, predictor);
      enum_s = std::min(enum_s, timeIt([&] {
        for (std::size_t s = 0; s < decisions; ++s) check(engine.decide(pool[schedule[s]]), s);
      }));
    }
  }

  // ------------------------------------------------------------------
  // Section 2: sensor path (frames + live map + trajectory in).
  // ------------------------------------------------------------------
  const std::size_t epochs = smoke ? 48 : 160;
  env::EnvSpec spec;
  spec.goal_distance = 260.0;
  spec.obstacle_spread = 35.0;
  spec.seed = 9;
  const env::Environment environment = env::generateEnvironment(spec);
  sim::DepthCameraArray sensor((sim::SensorConfig()));

  // Precompute the flown schedule: positions (with hover dwells — decisions
  // outpace movement at sensor rate), the frames seen there, and the sweep
  // clouds integrated afterwards (alternating near-corridor and off-corridor
  // sweeps).
  struct Epoch {
    Vec3 position;
    sim::SensorFrame frame;
    perception::PointCloud cloud;
  };
  std::vector<Epoch> flown;
  {
    Rng rng(0xF10DDu);
    Vec3 pos{0, 0, 3};
    int dwell = 0;
    for (std::size_t e = 0; e < epochs; ++e) {
      if (dwell > 0) {
        --dwell;
      } else {
        pos = pos + Vec3{rng.uniform(0.6, 2.2), rng.uniform(-0.4, 0.4), 0.0};
        if (rng.chance(0.4)) dwell = rng.uniformInt(1, 5);
      }
      Epoch epoch;
      epoch.position = pos;
      epoch.frame = sensor.capture(*environment.world, pos);
      const Vec3 sweep_origin =
          rng.chance(0.5) ? pos : pos + Vec3{0.0, rng.uniform(40.0, 60.0), 0.0};
      const auto raw =
          perception::fromSensorFrame(sensor.capture(*environment.world, sweep_origin));
      epoch.cloud = perception::downsample(raw, 0.3).cloud;
      flown.push_back(std::move(epoch));
    }
  }
  std::vector<planning::TrajectoryPoint> traj_pts;
  for (int i = 0; i < 30; ++i) {
    const double f = i / 29.0;
    traj_pts.push_back({Vec3{f * 90.0, 0.0, 3.0}, 1.5, f * 60.0});
  }
  const planning::Trajectory trajectory(traj_pts);
  const Vec3 vel{1.4, 0, 0};
  const core::ProfilerConfig profiler_config;

  perception::OctomapInsertParams ins;
  ins.precision = 0.3;

  // Reference answers for the sensor path (profiles + decisions), computed
  // once on a fresh map replay.
  std::vector<SpaceProfile> expected_profiles;
  std::vector<GovernorDecision> expected_sensor;
  {
    perception::OccupancyOctree octree(environment.world->extent(), 0.3);
    core::reference::RoboRunGovernor ref(knobs, budgeter, predictor, knobs.fixed_overhead);
    for (const Epoch& e : flown) {
      const SpaceProfile profile = core::profileSpace(e.frame, octree, trajectory,
                                                      e.position, vel, vel, profiler_config);
      expected_sensor.push_back(ref.decide(profile));
      expected_profiles.push_back(profile);
      (void)perception::insertPointCloud(octree, e.cloud, ins, {});
    }
  }
  auto profilesIdentical = [](const SpaceProfile& a, const SpaceProfile& b) {
    if (!bitEqual(a.d_unknown, b.d_unknown) || !bitEqual(a.visibility, b.visibility) ||
        a.waypoints.size() != b.waypoints.size())
      return false;
    for (std::size_t i = 0; i < a.waypoints.size(); ++i)
      if (!bitEqual(a.waypoints[i].visibility, b.waypoints[i].visibility) ||
          !bitEqual(a.waypoints[i].flight_time_from_prev,
                    b.waypoints[i].flight_time_from_prev))
        return false;
    return true;
  };

  // Map insertion runs between decisions on both paths but is perception
  // work, not governor work — time ONLY the profile+decide calls, or the
  // insertion wall (milliseconds per sweep) swamps the microseconds under
  // measurement.
  double sensor_ref_s = 1e100;
  double sensor_engine_s = 1e100;
  for (int rep = 0; rep < reps; ++rep) {
    {
      perception::OccupancyOctree octree(environment.world->extent(), 0.3);
      core::reference::RoboRunGovernor ref(knobs, budgeter, predictor, knobs.fixed_overhead);
      double acc = 0.0;
      for (std::size_t e = 0; e < flown.size(); ++e) {
        acc += timeIt([&] {
          const SpaceProfile profile =
              core::profileSpace(flown[e].frame, octree, trajectory, flown[e].position, vel,
                                 vel, profiler_config);
          if (!decisionsIdentical(ref.decide(profile), expected_sensor[e])) ++mismatches;
        });
        (void)perception::insertPointCloud(octree, flown[e].cloud, ins, {});
      }
      sensor_ref_s = std::min(sensor_ref_s, acc);
    }
    {
      perception::OccupancyOctree octree(environment.world->extent(), 0.3);
      DecisionEngine::Config config;
      config.knobs = knobs;
      config.budgeter = budgeter;
      config.profiler = profiler_config;
      DecisionEngine engine(config, predictor);
      double acc = 0.0;
      for (std::size_t e = 0; e < flown.size(); ++e) {
        acc += timeIt([&] {
          const core::EngineDecision governed = engine.decideFromSensors(
              flown[e].frame, octree, trajectory, flown[e].position, vel, vel);
          if (!decisionsIdentical(governed.decision, expected_sensor[e]) ||
              !profilesIdentical(governed.profile, expected_profiles[e]))
            ++mismatches;
        });
        (void)perception::insertPointCloud(octree, flown[e].cloud, ins, {});
      }
      sensor_engine_s = std::min(sensor_engine_s, acc);
    }
  }

  if (mismatches != 0) {
    std::cerr << "bench_governor_throughput: GOVERNORS DIVERGED (" << mismatches
              << " mismatches) — numbers below are invalid\n";
  }

  const auto per_sec = [](std::size_t n, double s) {
    return s > 0.0 ? static_cast<double>(n) / s : 0.0;
  };
  const double speedup_enum = enum_s > 0.0 ? ref_s / enum_s : 0.0;
  const double speedup_sensor = sensor_engine_s > 0.0 ? sensor_ref_s / sensor_engine_s : 0.0;

  std::cerr << "governor throughput (" << (smoke ? "smoke" : "full") << ": " << decisions
            << " decisions over " << pool.size() << " distinct profiles)\n"
            << "  reference_governor: " << jsonNumber(per_sec(decisions, ref_s), 1)
            << " decisions/s\n"
            << "  engine_enumerate:   " << jsonNumber(per_sec(decisions, enum_s), 1)
            << " decisions/s  (" << jsonNumber(speedup_enum, 2) << "x)\n"
            << "  sensor path:        " << jsonNumber(per_sec(epochs, sensor_ref_s), 1)
            << " -> " << jsonNumber(per_sec(epochs, sensor_engine_s), 1) << " decisions/s  ("
            << jsonNumber(speedup_sensor, 2) << "x)\n";

  std::ostringstream json;
  json << "{\n";
  json << "  \"schema\": \"roborun-governor-throughput-v2\",\n";
  json << "  \"smoke\": " << (smoke ? "true" : "false") << ",\n";
  json << "  \"workload\": {\"decisions\": " << decisions
       << ", \"distinct_profiles\": " << pool.size() << ", \"revisits\": " << revisits
       << ", \"sensor_epochs\": " << epochs << "},\n";
  json << "  \"variants\": {\n";
  json << "    \"reference_governor\": {\"seconds\": " << jsonNumber(ref_s)
       << ", \"decisions\": " << decisions
       << ", \"decisions_per_sec\": " << jsonNumber(per_sec(decisions, ref_s), 1) << "},\n";
  json << "    \"engine_enumerate\": {\"seconds\": " << jsonNumber(enum_s)
       << ", \"decisions\": " << decisions
       << ", \"decisions_per_sec\": " << jsonNumber(per_sec(decisions, enum_s), 1) << "}\n";
  json << "  },\n";
  json << "  \"sensor_path\": {\"epochs\": " << epochs
       << ", \"reference_seconds\": " << jsonNumber(sensor_ref_s)
       << ", \"engine_seconds\": " << jsonNumber(sensor_engine_s)
       << ", \"speedup\": " << jsonNumber(speedup_sensor, 3) << "},\n";
  json << "  \"speedup\": {\"engine_enumerate\": " << jsonNumber(speedup_enum, 3) << "},\n";
  json << "  \"governors_agree\": " << (mismatches == 0 ? "true" : "false") << "\n";
  json << "}\n";

  if (json_path.empty()) {
    std::cout << json.str();
  } else {
    std::ofstream out(json_path);
    if (!out) {
      std::cerr << "bench_governor_throughput: cannot open " << json_path << "\n";
      return 1;
    }
    out << json.str();
    std::cerr << "bench_governor_throughput: wrote " << json_path << "\n";
  }
  return mismatches == 0 ? 0 : 1;
}
