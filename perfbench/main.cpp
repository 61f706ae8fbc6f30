// perfbench — the repo's end-to-end mission benchmark (README.md here).
//
//   perfbench --workload <paper_rrt|pipelined_astar|fleet_smoke>
//             --seed <n> --seconds <s> --trace <0|1> [--scratch <dir>]
//
// --trace 0 flies one untraced pass and reports the end-to-end metrics;
// --trace 1 flies an untraced and then a traced pass and reports the
// per-layer metrics of the traced one. The last line of stdout is one JSON
// object {"correct", "attempted", "failed", "metrics"}; every line before
// it is the human-readable report. Exit code 1 = a correctness check
// failed, 2 = bad arguments.

#include <sys/resource.h>
#include <unistd.h>

#if defined(__x86_64__) || defined(__i386__)
#include <cpuid.h>
#endif

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <iostream>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "layers.h"
#include "obs/json.h"
#include "scenario/fleet_scheduler.h"
#include "workloads.h"

namespace {

using namespace perfbench;
using roborun::runtime::DesignType;
using roborun::runtime::MissionStatus;

// Setting up is timed this many times per run and reported as the median.
constexpr int kSetups = 7;

struct Args {
  std::string workload;
  std::uint64_t seed = 0;
  int seconds = 0;
  int trace = -1;
  std::string scratch = ".bench_build/perfbench_tmp";
};

bool parseArgs(int argc, char** argv, Args& args) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    try {
      if (key == "--workload") args.workload = value;
      else if (key == "--seed") args.seed = std::stoull(value);
      else if (key == "--seconds") args.seconds = std::stoi(value);
      else if (key == "--trace") args.trace = std::stoi(value);
      else if (key == "--scratch") args.scratch = value;
      else return false;
    } catch (const std::exception&) {
      return false;
    }
  }
  return argc % 2 == 1 && findWorkload(args.workload) != nullptr && args.seconds >= 1 &&
         (args.trace == 0 || args.trace == 1);
}

std::string cpuModel() {
#if defined(__x86_64__) || defined(__i386__)
  unsigned regs[12] = {};
  if (__get_cpuid_max(0x80000000, nullptr) >= 0x80000004) {
    for (unsigned i = 0; i < 3; ++i)
      __get_cpuid(0x80000002 + i, &regs[4 * i], &regs[4 * i + 1], &regs[4 * i + 2],
                  &regs[4 * i + 3]);
    char brand[49] = {};
    std::memcpy(brand, regs, 48);
    std::string s = brand;
    s.erase(0, s.find_first_not_of(' '));
    return s;
  }
#endif
  return "unknown";
}

double peakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB
}

double median(std::vector<double> v) { return percentile(std::move(v), 0.5); }

/// A metric value with all its digits (JSON has no NaN/Inf; a non-finite
/// value is a bug upstream and prints as 0 after failing the run).
std::string num(double v) {
  if (!std::isfinite(v)) return "0";
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

/// The simulated, deterministic mission outcomes of a pass.
struct SimSummary {
  std::size_t missions = 0, reached = 0, roborun = 0;
  double success_rate = 0.0;
  double rr_time_s = 0.0, rr_energy_kj = 0.0, rr_cpu_pct = 0.0;  // means over RoboRun
  double mission_time_x = 0.0, energy_x = 0.0;  // oblivious / RoboRun; paper workloads
};

SimSummary summarize(const PassResult& pass) {
  SimSummary s;
  double obl_time = 0.0, obl_energy = 0.0, rr_time = 0.0, rr_energy = 0.0;
  std::size_t obl = 0;
  for (const MissionRun& m : pass.missions) {
    const auto& r = m.result;
    ++s.missions;
    if (r.reached_goal()) ++s.reached;
    const double energy = r.flight_energy + r.compute_energy;
    if (m.design == DesignType::RoboRun) {
      ++s.roborun;
      rr_time += r.mission_time;
      rr_energy += energy;
      s.rr_cpu_pct += 100.0 * r.averageCpuUtilization();
    } else {
      ++obl;
      obl_time += r.mission_time;
      obl_energy += energy;
    }
  }
  if (s.missions)
    s.success_rate = static_cast<double>(s.reached) / static_cast<double>(s.missions);
  if (s.roborun) {
    const double n = static_cast<double>(s.roborun);
    s.rr_time_s = rr_time / n;
    s.rr_energy_kj = rr_energy / n / 1000.0;
    s.rr_cpu_pct /= n;
  }
  if (obl && s.roborun && rr_time > 0.0 && rr_energy > 0.0) {
    s.mission_time_x = (obl_time / static_cast<double>(obl)) / s.rr_time_s;
    s.energy_x = (obl_energy / static_cast<double>(obl)) / (rr_energy / s.roborun);
  }
  return s;
}

/// Host seconds to fly each world of the pass: a paper world's two
/// missions (RoboRun, then oblivious), or one fleet case.
std::vector<double> worldWallsS(const PassResult& pass) {
  const std::size_t per_world = pass.fleet ? 1 : 2;
  std::vector<double> walls(pass.missions.size() / per_world, 0.0);
  for (std::size_t i = 0; i < walls.size() * per_world; ++i)
    walls[i / per_world] += pass.missions[i].wall_ms / 1000.0;
  return walls;
}

std::size_t infrastructureFailures(const PassResult& pass) {
  std::size_t n = 0;
  for (const MissionRun& m : pass.missions)
    n += roborun::runtime::missionStatusIsInfrastructureFailure(m.result.status) ? 1 : 0;
  return n;
}

/// The per-pass correctness checks; failures are appended to `failures`.
void checkPass(const PassResult& pass, bool async_pipeline, const char* label,
               std::vector<std::string>& failures) {
  const auto fail = [&](const std::string& what) {
    failures.push_back(std::string(label) + ": " + what);
  };
  std::size_t decisions = 0;
  for (std::size_t i = 0; i < pass.missions.size(); ++i) {
    const auto& r = pass.missions[i].result;
    const double limit = pass.missions[i].max_mission_time;
    decisions += r.decisions();
    const int code = static_cast<int>(r.status);
    const std::string where = "mission " + std::to_string(i);
    if (code < 0 || code > static_cast<int>(MissionStatus::Crashed)) {
      fail(where + " ended in an unknown status code " + std::to_string(code));
    } else if (r.records.empty() &&
               !roborun::runtime::missionStatusIsInfrastructureFailure(r.status)) {
      fail(where + " ended without a single decision");
    } else if (r.status == MissionStatus::TimedOut && r.mission_time < limit) {
      fail(where + " reports timed_out at t=" + std::to_string(r.mission_time) +
           " s, before the " + std::to_string(limit) + " s limit");
    }
  }
  if (pass.observed_epochs != decisions)
    fail("decision_observer saw " + std::to_string(pass.observed_epochs) +
         " epochs, records hold " + std::to_string(decisions));
  if (pass.max_staleness > 1)
    fail("a planning stage consumed a map " + std::to_string(pass.max_staleness) +
         " sweeps old (bound is 1)");
  if (!async_pipeline && pass.stale_one != 0)
    fail("the sync pipeline reported " + std::to_string(pass.stale_one) +
         " stale epochs");
}

/// Traced and untraced passes must agree bitwise on every deterministic
/// field (missions aborted by the wall valve are not deterministic).
void checkIdentical(const PassResult& untraced, const PassResult& traced,
                    std::vector<std::string>& failures) {
  if (untraced.fleet && traced.fleet) {
    if (!roborun::scenario::fleetResultsIdentical(*untraced.fleet, *traced.fleet))
      failures.push_back("traced fleet results differ from the untraced pass");
    return;
  }
  for (std::size_t i = 0; i < untraced.missions.size(); ++i) {
    const auto& a = untraced.missions[i].result;
    const auto& b = traced.missions[i].result;
    if (roborun::runtime::missionStatusIsInfrastructureFailure(a.status) ||
        roborun::runtime::missionStatusIsInfrastructureFailure(b.status))
      continue;
    if (!roborun::runtime::missionResultsIdentical(a, b))
      failures.push_back("traced mission " + std::to_string(i) +
                         " differs from the untraced pass");
  }
}

void checkWarmStore(const Inputs& inputs, const PassResult& pass,
                    const std::string& store_dir, std::vector<std::string>& failures) {
  const roborun::scenario::FleetResult warm = warmFleetRerun(inputs, store_dir);
  if (!roborun::scenario::fleetResultsIdentical(*pass.fleet, warm))
    failures.push_back("warm-store fleet results differ from the cold pass");
  if (warm.store.hits() != warm.rows.size())
    failures.push_back("warm-store rerun hit " + std::to_string(warm.store.hits()) +
                       " of " + std::to_string(warm.rows.size()) + " cases");
}

void printSimulated(const SimSummary& s, bool paper) {
  std::cout << "simulated outcomes (deterministic; the energy/latency model is not"
               " validated against the paper's hardware):\n"
            << "  success_rate " << num(s.success_rate) << " (" << s.reached << "/"
            << s.missions << " missions reached the goal, all designs)\n"
            << "  roborun means over " << s.roborun << " missions: sim_mission_time_s "
            << num(s.rr_time_s) << ", sim_energy_kj " << num(s.rr_energy_kj)
            << ", sim_cpu_util_pct " << num(s.rr_cpu_pct) << "\n";
  if (paper)
    std::cout << "  mission_time_x " << num(s.mission_time_x)
              << " (paper: 4.5x), energy_x " << num(s.energy_x) << " (paper: 4x)\n";
}

/// One line per paper mission; a status tally for the fleet.
void printMissions(const PassResult& pass) {
  if (pass.fleet) {
    constexpr int kStatuses = static_cast<int>(MissionStatus::Crashed) + 1;
    std::size_t by_status[kStatuses] = {};
    for (const MissionRun& m : pass.missions)
      ++by_status[static_cast<int>(m.result.status)];
    std::cout << "fleet outcomes:";
    for (int s = 0; s < kStatuses; ++s)
      if (by_status[s])
        std::cout << " "
                  << roborun::runtime::missionStatusName(static_cast<MissionStatus>(s))
                  << " " << by_status[s];
    std::cout << "\n";
    return;
  }
  for (std::size_t i = 0; i < pass.missions.size(); ++i) {
    const MissionRun& m = pass.missions[i];
    std::cout << "  mission " << i << " world " << i / 2 << " "
              << roborun::runtime::designName(m.design) << ": "
              << roborun::runtime::missionStatusName(m.result.status) << ", sim "
              << roborun::obs::jsonNumber(m.result.mission_time, 1) << " s, "
              << m.result.decisions() << " epochs, " << m.result.replans()
              << " replans, wall " << roborun::obs::jsonNumber(m.wall_ms, 1) << " ms\n";
  }
}

void printAccounting(const PassResult& pass, const LayerAnalysis& layers) {
  std::cout << "mission accounting (mission-lane stage self times + unaccounted"
               " = wall):\n";
  const auto line = [&](const std::string& label, const MissionAccount& a) {
    std::cout << "  " << label << ": wall " << num(a.wall_ms) << " ms =";
    for (std::size_t b = 0; b < kLayerCount; ++b)
      if (a.self_ms[b] > 0.0)
        std::cout << " " << layerMetricName(static_cast<Layer>(b)) << " "
                  << roborun::obs::jsonNumber(a.self_ms[b], 3) << " +";
    std::cout << " unaccounted " << roborun::obs::jsonNumber(a.unaccounted_ms, 3)
              << "; remainder " << num(a.remainder_ms) << " ms";
    if (a.worker_ms > 0.0)
      std::cout << "; worker lane " << roborun::obs::jsonNumber(a.worker_ms, 3) << " ms";
    std::cout << "\n";
  };
  std::vector<std::size_t> order(pass.missions.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  if (pass.fleet) {
    // 5 slowest cases; the totals line below covers every case.
    std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
      return pass.missions[a].wall_ms > pass.missions[b].wall_ms;
    });
    order.resize(std::min<std::size_t>(order.size(), 5));
  }
  for (const std::size_t i : order) {
    const MissionRun& m = pass.missions[i];
    std::string label = pass.fleet ? pass.fleet->cases[i].scenario + "/" +
                                         pass.fleet->cases[i].label
                                   : "mission " + std::to_string(i) + " " +
                                         roborun::runtime::designName(m.design);
    label += " (" + std::string(roborun::runtime::missionStatusName(m.result.status));
    label += ")";
    line(label, layers.missions[i]);
  }
  MissionAccount total;
  double max_abs = 0.0;
  for (const MissionAccount& a : layers.missions) {
    total.wall_ms += a.wall_ms;
    for (std::size_t b = 0; b < kLayerCount; ++b) total.self_ms[b] += a.self_ms[b];
    total.unaccounted_ms += a.unaccounted_ms;
    total.remainder_ms += a.remainder_ms;
    total.worker_ms += a.worker_ms;
    max_abs = std::max(max_abs, std::abs(a.remainder_ms));
  }
  line("all " + std::to_string(layers.missions.size()) + " missions", total);
  std::cout << "  largest |remainder| over missions: " << num(max_abs) << " ms\n";
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  if (!parseArgs(argc, argv, args)) {
    std::cerr << "usage: perfbench --workload <paper_rrt|pipelined_astar|fleet_smoke> "
                 "--seed <n> --seconds <s> --trace <0|1> [--scratch <dir>]\n";
    return 2;
  }
  const WorkloadInfo& workload = *findWorkload(args.workload);
  const bool fleet = workload.kind == Kind::FleetSmoke;
  const bool async_pipeline = workload.kind == Kind::PipelinedAstar;
  std::cout.setf(std::ios::unitbuf);

  std::cout << "perfbench workload=" << workload.name << " seed=" << args.seed
            << " seconds=" << args.seconds << " trace=" << args.trace << "\n"
            << "host: {\"cores\": " << std::thread::hardware_concurrency()
            << ", \"cpu\": \"" << roborun::obs::jsonEscape(cpuModel())
            << "\", \"compiler\": \"" << PERFBENCH_COMPILER << "\", \"build_type\": \""
            << PERFBENCH_BUILD_TYPE << "\"}\n";

  // --- set-up: build the seeded inputs several times, keep the last ---
  Inputs inputs;
  std::vector<double> setup_s, generate_ms;
  for (int k = 0; k < kSetups; ++k) {
    const Clock::time_point t0 = Clock::now();
    Inputs built = buildInputs(workload.kind, args.seed, args.seconds);
    setup_s.push_back(std::chrono::duration<double>(Clock::now() - t0).count());
    generate_ms.push_back(built.generate_ms);
    inputs = std::move(built);
  }
  if (fleet)
    std::cout << "inputs: " << inputs.catalog.size() << " scenarios, "
              << inputs.fleet_cases << " cases (" << inputs.fleet_non_roborun_cases
              << " not RoboRun)\n";
  else
    std::cout << "inputs: " << inputs.worlds.size()
              << " paper-fidelity worlds x 2 designs\n";
  std::cout << "setup: median " << num(median(setup_s)) << " s over " << kSetups
            << " set-ups (env.generate_ms " << num(median(generate_ms)) << ")\n";

  const std::filesystem::path scratch = args.scratch;
  std::filesystem::create_directories(scratch);
  const std::string store_dir = (scratch / "fleet_store").string();
  std::vector<std::string> failures;
  std::vector<Metric> metrics;
  std::size_t attempted = 0, failed = 0;

  // --- the untraced pass: every end-to-end number comes from here ---
  const PassResult untraced = runPass(inputs, nullptr, store_dir);
  const double rss_mb = peakRssMb();
  checkPass(untraced, async_pipeline, "untraced", failures);
  if (fleet) checkWarmStore(inputs, untraced, store_dir, failures);
  const SimSummary sim = summarize(untraced);

  std::cout << "missions: " << untraced.missions.size() << " flown in "
            << num(untraced.wall_s) << " s; epoch latency over "
            << untraced.epoch_ms.size()
            << " RoboRun epochs (first epoch of each mission dropped): p50 "
            << num(percentile(untraced.epoch_ms, 0.5)) << " ms, p99 "
            << num(percentile(untraced.epoch_ms, 0.99)) << " ms; world wall median "
            << num(median(worldWallsS(untraced))) << " s\n";
  printSimulated(sim, !fleet);
  printMissions(untraced);

  if (args.trace == 0) {
    attempted = untraced.missions.size();
    failed = infrastructureFailures(untraced);
    metrics = {
        {"setup_s", median(setup_s), "s"},
        {"world_wall_s_p50", median(worldWallsS(untraced)), "s"},
        {"epoch_ms_p50", percentile(untraced.epoch_ms, 0.5), "ms"},
    };
  } else {
    // --- the traced pass: per-layer numbers ---
    const Clock::time_point origin = Clock::now();
    roborun::obs::SpanRecorder recorder;  // measures from (just after) `origin`
    const std::uint32_t mission_lane = roborun::obs::SpanRecorder::currentLane();
    const PassResult traced = runPass(inputs, &recorder, store_dir);
    const std::vector<roborun::obs::SpanRecord> spans = recorder.spans();
    checkPass(traced, async_pipeline, "traced", failures);
    checkIdentical(untraced, traced, failures);
    attempted = traced.missions.size();
    failed = infrastructureFailures(traced);

    const LayerAnalysis layers = analyzeSpans(traced, spans, origin, mission_lane);
    std::cout << "trace: " << spans.size() << " spans\n";
    printAccounting(traced, layers);
    for (std::size_t i = 0; i < layers.missions.size(); ++i) {
      const MissionAccount& a = layers.missions[i];
      if (!a.matched)
        failures.push_back("no spans found for traced mission " + std::to_string(i));
      else if (std::abs(a.remainder_ms) > 1e-6 * a.wall_ms + 1e-3)
        failures.push_back("mission " + std::to_string(i) + " accounting remainder " +
                           num(a.remainder_ms) + " ms");
    }
    if (layers.improper_nesting != 0)
      failures.push_back(std::to_string(layers.improper_nesting) +
                         " spans overlap a sibling instead of nesting");

    std::size_t replans = 0, failed_replans = 0, epochs = 0;
    double planner_wall = 0.0, decision_wall = 0.0, mission_wall = 0.0, worker = 0.0,
           unaccounted = 0.0, remainder = 0.0, slowest = 0.0;
    for (std::size_t i = 0; i < traced.missions.size(); ++i) {
      const auto& r = traced.missions[i].result;
      for (const auto& rec : r.records) {
        replans += (rec.replanned || rec.plan_failed) ? 1 : 0;
        failed_replans += rec.plan_failed ? 1 : 0;
      }
      epochs += r.decisions();
      planner_wall += r.planner_wall_ms;
      decision_wall += r.decision_wall_ms;
      mission_wall += traced.missions[i].wall_ms;
      slowest = std::max(slowest, traced.missions[i].wall_ms);
      worker += layers.missions[i].worker_ms;
      unaccounted += layers.missions[i].unaccounted_ms;
      remainder += layers.missions[i].remainder_ms;
    }
    const auto share = [](double part, double whole) {
      return whole > 0.0 ? part / whole : 0.0;
    };
    const auto self = [&](Layer l) {
      return layers.total_self_ms[static_cast<std::size_t>(l)];
    };
    const auto& store = traced.fleet ? traced.fleet->store : roborun::store::StoreStats{};
    metrics = {
        {"wall_s", untraced.wall_s, "s"},
        {"epoch_ms_p99", percentile(untraced.epoch_ms, 0.99), "ms"},
        {"peak_rss_mb", rss_mb, "MB"},
        {"perception.integrate_ms", self(Layer::Integrate), "ms"},
        {"perception.integrate_ms_p99", percentile(layers.integrate_self_ms, 0.99), "ms"},
        {"planning.plan_ms", self(Layer::Plan), "ms"},
        {"planning.plan_ms_p99", percentile(layers.plan_self_ms, 0.99), "ms"},
        {"planning.smooth_ms", self(Layer::Smooth), "ms"},
        {"planning.replans", static_cast<double>(replans), "count"},
        {"planning.replan_fail_ratio", share(failed_replans, replans), "ratio"},
        {"planning.planner_wall_ms", planner_wall, "ms"},
        {"core.govern_ms", self(Layer::Govern), "ms"},
        {"core.profile_ms", self(Layer::Profile), "ms"},
        {"core.budget_ms", self(Layer::Budget), "ms"},
        {"core.solve_ms", self(Layer::Solve), "ms"},
        {"core.decision_wall_ms", decision_wall, "ms"},
        {"core.memo_hit_rate", traced.engine.solverMemoHitRate(), "ratio"},
        {"core.profile_builds", static_cast<double>(traced.engine.profile_builds),
         "count"},
        {"sim.capture_ms", self(Layer::Capture), "ms"},
        {"sim.fly_ms", self(Layer::Fly), "ms"},
        {"miniros.publish_ms", self(Layer::Publish), "ms"},
        {"runtime.epochs", static_cast<double>(epochs), "count"},
        {"runtime.unaccounted_ms", unaccounted, "ms"},
        {"runtime.accounting_remainder_ms", remainder, "ms"},
        {"runtime.stale_one_share", share(traced.stale_one, traced.observed_epochs),
         "ratio"},
        {"runtime.worker_overlap_share", share(worker, mission_wall), "ratio"},
        {"scenario.worker_busy_share",
         share(mission_wall, 1000.0 * traced.wall_s * traced.mission_threads), "ratio"},
        {"scenario.mission_wall_ms_max", slowest, "ms"},
        {"scenario.retry_ms", self(Layer::Retry), "ms"},
        {"store.lookup_ms", self(Layer::StoreLookup), "ms"},
        {"store.hit_rate", store.hitRate(), "ratio"},
        {"store.inserts", static_cast<double>(store.inserts), "count"},
        {"env.generate_ms", median(generate_ms), "ms"},
        {"obs.trace_overhead_pct",
         100.0 * (share(traced.wall_s, untraced.wall_s) - 1.0), "%"},
        {"success_rate", sim.success_rate, "ratio"},
        {"sim_mission_time_s", sim.rr_time_s, "s"},
        {"sim_energy_kj", sim.rr_energy_kj, "kJ"},
        {"sim_cpu_util_pct", sim.rr_cpu_pct, "%"},
        {"mission_time_x", sim.mission_time_x, "x"},
        {"energy_x", sim.energy_x, "x"},
    };
  }

  std::error_code ec;
  std::filesystem::remove_all(store_dir, ec);

  for (const Metric& m : metrics)
    if (!std::isfinite(m.value))
      failures.push_back("metric " + m.name + " is not finite");
  std::cout << (args.trace == 0 ? "end-to-end metrics (tracing off):\n"
                                : "per-layer metrics (traced pass):\n");
  for (const Metric& m : metrics)
    std::cout << "  " << m.name << " " << num(m.value) << " " << m.unit << "\n";
  for (const std::string& f : failures) std::cout << "CHECK FAILED: " << f << "\n";
  std::cout << "checks: " << (failures.empty() ? "all passed" : "FAILED") << "\n";

  std::ostringstream json;
  json << "{\"correct\": " << (failures.empty() ? "true" : "false") << ", \"attempted\": "
       << attempted << ", \"failed\": " << failed << ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i)
    json << (i ? ", " : "") << "\"" << metrics[i].name
         << "\": {\"value\": " << num(metrics[i].value) << ", \"unit\": \""
         << metrics[i].unit << "\"}";
  json << "}}";
  std::cout << json.str() << std::endl;
  return failures.empty() ? 0 : 1;
}
