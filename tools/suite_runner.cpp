// suite_runner — batch mission executor.
//
// Runs an (environment spec x design x seed) grid of missions across a
// thread pool and aggregates the MissionResult metrics to JSON. Serves two
// roles:
//
//   * CTest end-to-end smoke: a tiny deterministic grid exercises the whole
//     governor -> solver -> pipeline loop from a clean build
//     (`ctest -R suite_runner_smoke`).
//   * Measurement harness for the ROADMAP's scale/perf work: the same grid
//     at full size produces the per-mission rows EXPERIMENTS-style analysis
//     needs, independent of the figure-specific benches.
//
// Results are stored by job index, so every *mission metric* in the output
// is byte-identical for any --threads value (see tests/determinism_test.cpp
// for the single-mission guarantee this builds on). The wall-clock fields
// (`wall_ms`, `plan_wall_ms` and `decision_wall_ms` per row, the wall fields
// of the `timing` aggregate) are measurements of this run and naturally
// vary — tooling that diffs suite output must ignore them. `replans`,
// `total_replans`, `decisions` and `total_decisions` are deterministic
// mission metrics like the rest.
//
// --bench-json writes a compact perf record (missions/sec, wall-time
// percentiles) suitable for publishing as BENCH_PERF.json from CI.
//
// Usage:
//   suite_runner [--grid smoke|small|paper] [--max-envs N] [--seeds N]
//                [--design both|roborun|baseline] [--config smoke|test|default]
//                [--pipeline sync|async] [--threads N]
//                [--out results.json] [--bench-json perf.json]
//                [--quiet]

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "env/env_gen.h"
#include "env/suite.h"
#include "obs/json.h"
#include "obs/metrics_registry.h"
#include "runtime/designs.h"
#include "runtime/mission.h"

namespace {

using namespace roborun;
using obs::jsonNumber;

struct Options {
  std::string grid = "small";
  std::size_t max_envs = 0;  ///< 0 = the whole grid
  std::size_t seeds = 2;
  std::string design = "both";
  std::string config = "test";
  runtime::ExecutionMode pipeline = runtime::ExecutionMode::Sync;
  unsigned threads = std::thread::hardware_concurrency();
  std::string out_path;
  std::string bench_json_path;
  bool quiet = false;
};

struct Job {
  env::EnvSpec spec;
  runtime::DesignType design = runtime::DesignType::RoboRun;
  std::uint64_t mission_seed = 0;
};

struct Row {
  Job job;
  runtime::MissionResult result;
  double wall_ms = 0.0;  ///< this run's wall-clock for the mission (not deterministic)
};

void usage(std::ostream& os) {
  os << "usage: suite_runner [--grid smoke|small|paper] [--max-envs N] [--seeds N]\n"
        "                    [--design both|roborun|baseline] [--config smoke|test|default]\n"
        "                    [--pipeline sync|async] [--threads N]\n"
        "                    [--out results.json] [--bench-json perf.json]\n"
        "                    [--quiet]\n"
        "  --seeds 0 expands the grid but runs no missions (config dry-run: the\n"
        "  JSON reports come out with zero rows and zeroed aggregates).\n"
        "  --pipeline selects the intra-mission execution mode: sync (the\n"
        "  bitwise-replayable anchor, default) or async (the pipelined\n"
        "  executor; deterministic, but its numbers differ from sync).\n";
}

/// Strict decimal parse with failure reporting. Deliberately not std::stoul:
/// that accepts "-3" by wrapping it to a huge unsigned value, which here
/// would mean a ~10^19-mission grid.
bool parseCount(const char* flag, const char* text, std::size_t& out) {
  const std::string s(text);
  constexpr std::size_t kMax = 1000000;  // sanity cap on any grid dimension
  std::size_t v = 0;
  bool ok = !s.empty() && s.size() <= 7;
  for (const char c : s) {
    if (c < '0' || c > '9') {
      ok = false;
      break;
    }
    v = v * 10 + static_cast<std::size_t>(c - '0');
  }
  if (!ok || v > kMax) {
    std::cerr << "suite_runner: " << flag << " needs an integer in [0, " << kMax
              << "], got '" << text << "'\n";
    return false;
  }
  out = v;
  return true;
}

bool parseArgs(int argc, char** argv, Options& opts) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&](const char* flag) -> const char* {
      if (i + 1 >= argc) {
        std::cerr << "suite_runner: " << flag << " needs a value\n";
        return nullptr;
      }
      return argv[++i];
    };
    if (arg == "--grid") {
      const char* v = next("--grid");
      if (v == nullptr) return false;
      opts.grid = v;
    } else if (arg == "--max-envs") {
      const char* v = next("--max-envs");
      if (v == nullptr || !parseCount("--max-envs", v, opts.max_envs)) return false;
    } else if (arg == "--seeds") {
      const char* v = next("--seeds");
      if (v == nullptr || !parseCount("--seeds", v, opts.seeds)) return false;
    } else if (arg == "--design") {
      const char* v = next("--design");
      if (v == nullptr) return false;
      opts.design = v;
    } else if (arg == "--config") {
      const char* v = next("--config");
      if (v == nullptr) return false;
      opts.config = v;
    } else if (arg == "--pipeline") {
      const char* v = next("--pipeline");
      if (v == nullptr) return false;
      if (!runtime::parseExecutionMode(v, opts.pipeline)) {
        std::cerr << "suite_runner: --pipeline must be sync or async, got '" << v << "'\n";
        usage(std::cerr);
        return false;
      }
    } else if (arg == "--threads") {
      const char* v = next("--threads");
      std::size_t threads = 0;
      if (v == nullptr || !parseCount("--threads", v, threads)) return false;
      opts.threads = static_cast<unsigned>(threads);
    } else if (arg == "--out") {
      const char* v = next("--out");
      if (v == nullptr) return false;
      opts.out_path = v;
    } else if (arg == "--bench-json") {
      const char* v = next("--bench-json");
      if (v == nullptr) return false;
      opts.bench_json_path = v;
    } else if (arg == "--quiet") {
      opts.quiet = true;
    } else if (arg == "--help" || arg == "-h") {
      usage(std::cout);
      std::exit(0);
    } else {
      std::cerr << "suite_runner: unknown flag " << arg << "\n";
      usage(std::cerr);
      return false;
    }
  }
  if (opts.grid != "smoke" && opts.grid != "small" && opts.grid != "paper") {
    std::cerr << "suite_runner: --grid must be smoke, small, or paper\n";
    return false;
  }
  if (opts.design != "both" && opts.design != "roborun" && opts.design != "baseline") {
    std::cerr << "suite_runner: --design must be both, roborun, or baseline\n";
    return false;
  }
  if (opts.config != "smoke" && opts.config != "test" && opts.config != "default") {
    std::cerr << "suite_runner: --config must be smoke, test, or default\n";
    return false;
  }
  if (opts.threads == 0) opts.threads = 1;
  // NOTE: --seeds 0 is legal and means "zero missions" (dry-run); every
  // aggregate below must divide safely over an empty row set.
  return true;
}

std::vector<env::EnvSpec> buildSpecs(const Options& opts) {
  env::SuiteKnobs knobs;
  if (opts.grid == "smoke") {
    // One very short mid-density mission spec — enough to drive the whole
    // loop end-to-end in seconds for the CTest smoke.
    knobs.densities = {0.45};
    knobs.spreads = {22.0};
    knobs.goal_distances = {140.0};
  } else if (opts.grid == "small") {
    // A proportionally shrunken grid (same structure as Fig. 8a, short
    // missions) so the smoke grid finishes in seconds.
    knobs.spreads = {25.0, 40.0, 55.0};
    knobs.goal_distances = {250.0, 375.0, 500.0};
  }
  std::vector<env::EnvSpec> specs = env::evaluationSuite(42, knobs);
  if (opts.max_envs > 0 && specs.size() > opts.max_envs) {
    std::cerr << "suite_runner: --max-envs keeps the first " << opts.max_envs << " of "
              << specs.size() << " grid environments\n";
    specs.resize(opts.max_envs);
  }
  return specs;
}

std::vector<runtime::DesignType> buildDesigns(const Options& opts) {
  if (opts.design == "roborun") return {runtime::DesignType::RoboRun};
  if (opts.design == "baseline") return {runtime::DesignType::SpatialOblivious};
  return {runtime::DesignType::SpatialOblivious, runtime::DesignType::RoboRun};
}

/// This run's wall-clock measurements, aggregated over all missions through
/// the observability layer's histograms (obs/metrics_registry.h): rank-exact,
/// bucket-quantized p50/p95/p99 per stage instead of the old mean-only
/// fields. Staleness is recorded per EPOCH (through the decision_observer
/// hook) — always 0 under --pipeline sync, bounded by 1 under async.
struct SuiteTiming {
  double harness_wall_s = 0.0;   ///< configure-to-finish wall time of the grid
  double missions_per_sec = 0.0; ///< throughput including pool parallelism
  std::size_t total_replans = 0;      ///< deterministic mission metric
  std::size_t total_decisions = 0;    ///< deterministic mission metric
  double decisions_per_sec = 0.0;     ///< governor throughput observed in-mission
  obs::HistogramSummary mission_wall;   ///< per-mission wall, ms
  obs::HistogramSummary plan_wall;      ///< per-mission planner-stage wall, ms
  obs::HistogramSummary decision_wall;  ///< per-mission governor-stage wall, ms
  obs::HistogramSummary staleness;      ///< per-epoch map-snapshot age, sweeps
  std::uint64_t staleness_fresh = 0;
  std::uint64_t staleness_stale_one = 0;
  std::uint64_t staleness_stale_over = 0;
};

/// Fold the finished rows into the registry's stage histograms (the
/// staleness histogram was already populated per epoch by the workers) and
/// summarize. Zero-mission runs (--seeds 0) fall through to all-zero
/// summaries — an empty histogram reports count 0 and zeroed percentiles.
SuiteTiming computeTiming(const std::vector<Row>& rows, double harness_wall_s,
                          obs::MetricsRegistry& registry) {
  SuiteTiming t;
  t.harness_wall_s = harness_wall_s;
  obs::Histogram& mission_wall = registry.histogram("mission_wall_ms");
  obs::Histogram& plan_wall = registry.histogram("plan_wall_ms");
  obs::Histogram& decision_wall = registry.histogram("decision_wall_ms");
  for (const Row& row : rows) {
    mission_wall.record(row.wall_ms);
    plan_wall.record(row.result.planner_wall_ms);
    decision_wall.record(row.result.decision_wall_ms);
    t.total_replans += row.result.replans();
    t.total_decisions += row.result.decisions();
  }
  t.mission_wall = mission_wall.summary();
  t.plan_wall = plan_wall.summary();
  t.decision_wall = decision_wall.summary();
  t.staleness = registry.histogram("epoch_staleness").summary();
  t.staleness_fresh = registry.counter("epoch_staleness_fresh").value();
  t.staleness_stale_one = registry.counter("epoch_staleness_stale_one").value();
  t.staleness_stale_over = registry.counter("epoch_staleness_stale_over").value();
  if (harness_wall_s > 0.0 && !rows.empty())
    t.missions_per_sec = static_cast<double>(rows.size()) / harness_wall_s;
  if (t.decision_wall.sum > 0.0)
    t.decisions_per_sec =
        static_cast<double>(t.total_decisions) / (t.decision_wall.sum / 1000.0);
  return t;
}

/// One stage's histogram summary as a JSON object ({count, mean, p50, p95,
/// p99, max, sum}) — the shape every "stage wall" consumer (dashboards,
/// trend diffing) reads.
void writeStageObject(std::ostream& os, const obs::HistogramSummary& h,
                      int decimals) {
  os << "{\"count\": " << h.count << ", \"mean\": " << jsonNumber(h.mean(), decimals)
     << ", \"p50\": " << jsonNumber(h.p50, decimals)
     << ", \"p95\": " << jsonNumber(h.p95, decimals)
     << ", \"p99\": " << jsonNumber(h.p99, decimals)
     << ", \"max\": " << jsonNumber(h.max, decimals)
     << ", \"sum\": " << jsonNumber(h.sum, decimals) << "}";
}

void writeTimingObject(std::ostream& os, const SuiteTiming& t, const char* indent) {
  // The scalar fields keep their historical names (trend tooling diffs
  // them); the percentiles now come from the stage histograms, so they are
  // bucket-quantized (within 10^(1/8) ≈ 1.334x) instead of sample-exact.
  os << indent << "\"harness_wall_s\": " << jsonNumber(t.harness_wall_s) << ",\n";
  os << indent << "\"missions_per_sec\": " << jsonNumber(t.missions_per_sec) << ",\n";
  os << indent << "\"total_mission_wall_ms\": " << jsonNumber(t.mission_wall.sum, 3) << ",\n";
  os << indent << "\"mean_mission_wall_ms\": " << jsonNumber(t.mission_wall.mean(), 3) << ",\n";
  os << indent << "\"p50_mission_wall_ms\": " << jsonNumber(t.mission_wall.p50, 3) << ",\n";
  os << indent << "\"p95_mission_wall_ms\": " << jsonNumber(t.mission_wall.p95, 3) << ",\n";
  os << indent << "\"p99_mission_wall_ms\": " << jsonNumber(t.mission_wall.p99, 3) << ",\n";
  os << indent << "\"max_mission_wall_ms\": " << jsonNumber(t.mission_wall.max, 3) << ",\n";
  os << indent << "\"total_replans\": " << t.total_replans << ",\n";
  os << indent << "\"total_plan_wall_ms\": " << jsonNumber(t.plan_wall.sum, 3) << ",\n";
  os << indent << "\"mean_plan_wall_ms\": "
     << jsonNumber(t.total_replans > 0
                       ? t.plan_wall.sum / static_cast<double>(t.total_replans)
                       : 0.0,
                   4)
     << ",\n";
  os << indent << "\"total_decisions\": " << t.total_decisions << ",\n";
  os << indent << "\"total_decision_wall_ms\": " << jsonNumber(t.decision_wall.sum, 3)
     << ",\n";
  os << indent << "\"mean_decision_wall_ms\": "
     << jsonNumber(t.total_decisions > 0
                       ? t.decision_wall.sum / static_cast<double>(t.total_decisions)
                       : 0.0,
                   4)
     << ",\n";
  os << indent << "\"decisions_per_sec\": " << jsonNumber(t.decisions_per_sec, 1) << ",\n";
  // The promoted distributions: full per-stage summaries plus the per-epoch
  // staleness split the async executor's bounded-staleness contract shows
  // up in (fresh / stale-by-one; stale_over would be a contract violation).
  os << indent << "\"stages\": {\n";
  os << indent << "  \"mission_wall_ms\": ";
  writeStageObject(os, t.mission_wall, 3);
  os << ",\n";
  os << indent << "  \"plan_wall_ms\": ";
  writeStageObject(os, t.plan_wall, 3);
  os << ",\n";
  os << indent << "  \"decision_wall_ms\": ";
  writeStageObject(os, t.decision_wall, 4);
  os << "\n";
  os << indent << "},\n";
  os << indent << "\"epoch_staleness\": {\"epochs\": " << t.staleness.count
     << ", \"fresh\": " << t.staleness_fresh
     << ", \"stale_one\": " << t.staleness_stale_one
     << ", \"stale_over\": " << t.staleness_stale_over
     << ", \"mean\": " << jsonNumber(t.staleness.mean(), 4)
     << ", \"p95\": " << jsonNumber(t.staleness.p95, 4) << "}\n";
}

void writeJson(std::ostream& os, const Options& opts, const std::vector<Row>& rows,
               const SuiteTiming& timing) {
  std::size_t reached = 0, collided = 0, timed_out = 0;
  double total_time = 0.0, total_energy = 0.0, total_velocity = 0.0;
  for (const Row& row : rows) {
    reached += row.result.reached_goal() ? 1 : 0;
    collided += row.result.collided() ? 1 : 0;
    timed_out += row.result.timed_out() ? 1 : 0;
    total_time += row.result.mission_time;
    total_energy += row.result.flight_energy + row.result.compute_energy;
    total_velocity += row.result.averageVelocity();
  }
  // Empty row sets divide by 1 so the mean fields emit a clean 0 (never
  // NaN); "missions": 0 and "rows": [] make the zero-mission run explicit.
  const double n = rows.empty() ? 1.0 : static_cast<double>(rows.size());

  os << "{\n";
  os << "  \"grid\": \"" << opts.grid << "\",\n";
  os << "  \"config\": \"" << opts.config << "\",\n";
  os << "  \"pipeline\": \"" << runtime::executionModeName(opts.pipeline) << "\",\n";
  os << "  \"missions\": " << rows.size() << ",\n";
  os << "  \"aggregate\": {\n";
  os << "    \"reached_goal\": " << reached << ",\n";
  os << "    \"collided\": " << collided << ",\n";
  os << "    \"timed_out\": " << timed_out << ",\n";
  os << "    \"success_rate\": " << jsonNumber(static_cast<double>(reached) / n) << ",\n";
  os << "    \"mean_mission_time\": " << jsonNumber(total_time / n) << ",\n";
  os << "    \"mean_total_energy\": " << jsonNumber(total_energy / n) << ",\n";
  os << "    \"mean_velocity\": " << jsonNumber(total_velocity / n) << "\n";
  os << "  },\n";
  os << "  \"timing\": {\n";
  writeTimingObject(os, timing, "    ");
  os << "  },\n";
  os << "  \"rows\": [\n";
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const Row& row = rows[i];
    const runtime::MissionResult& r = row.result;
    os << "    {\"env\": \"" << row.job.spec.label() << "\", \"design\": \""
       << runtime::designName(row.job.design) << "\", \"mission_seed\": "
       << row.job.mission_seed
       << ", \"status\": \"" << runtime::missionStatusName(r.status) << "\""
       << ", \"reached_goal\": " << (r.reached_goal() ? "true" : "false")
       << ", \"collided\": " << (r.collided() ? "true" : "false")
       << ", \"timed_out\": " << (r.timed_out() ? "true" : "false")
       << ", \"mission_time\": " << jsonNumber(r.mission_time)
       << ", \"distance\": " << jsonNumber(r.distance_traveled)
       << ", \"avg_velocity\": " << jsonNumber(r.averageVelocity())
       << ", \"median_latency\": " << jsonNumber(r.medianLatency())
       << ", \"flight_energy\": " << jsonNumber(r.flight_energy)
       << ", \"compute_energy\": " << jsonNumber(r.compute_energy)
       << ", \"decisions\": " << r.decisions()
       << ", \"replans\": " << r.replans()
       << ", \"wall_ms\": " << jsonNumber(row.wall_ms, 3)
       << ", \"plan_wall_ms\": " << jsonNumber(r.planner_wall_ms, 3)
       << ", \"decision_wall_ms\": " << jsonNumber(r.decision_wall_ms, 3) << "}"
       << (i + 1 < rows.size() ? "," : "") << "\n";
  }
  os << "  ]\n";
  os << "}\n";
}

/// Compact perf record for CI publication (the BENCH_PERF.json payload).
void writeBenchJson(std::ostream& os, const Options& opts, const std::vector<Row>& rows,
                    const SuiteTiming& timing) {
  os << "{\n";
  os << "  \"schema\": \"roborun-mission-perf-v1\",\n";
  os << "  \"grid\": \"" << opts.grid << "\",\n";
  os << "  \"config\": \"" << opts.config << "\",\n";
  os << "  \"pipeline\": \"" << runtime::executionModeName(opts.pipeline) << "\",\n";
  os << "  \"threads\": " << opts.threads << ",\n";
  os << "  \"missions\": " << rows.size() << ",\n";
  writeTimingObject(os, timing, "  ");
  os << "}\n";
}

}  // namespace

int main(int argc, char** argv) {
  Options opts;
  if (!parseArgs(argc, argv, opts)) return 2;

  const std::vector<env::EnvSpec> specs = buildSpecs(opts);
  const std::vector<runtime::DesignType> designs = buildDesigns(opts);
  runtime::MissionConfig base_config = opts.config == "default"
                                           ? runtime::defaultMissionConfig()
                                           : (opts.config == "smoke"
                                                  ? runtime::smokeMissionConfig()
                                                  : runtime::testMissionConfig());
  base_config.pipeline.execution = opts.pipeline;

  std::vector<Job> jobs;
  for (const env::EnvSpec& spec : specs) {
    for (const runtime::DesignType design : designs) {
      for (std::size_t s = 0; s < opts.seeds; ++s) {
        Job job;
        job.spec = spec;
        job.design = design;
        job.mission_seed = base_config.seed + s;
        jobs.push_back(job);
      }
    }
  }

  // Progress goes to stderr: stdout must stay parseable JSON when --out is
  // omitted.
  if (!opts.quiet) {
    std::cerr << "suite_runner: " << jobs.size() << " missions (" << specs.size()
              << " envs x " << designs.size() << " designs x " << opts.seeds
              << " seeds) on " << opts.threads << " thread(s)\n";
  }

  // Results land at their job index, so output ordering (and all mission
  // metrics) are independent of scheduling; only wall_ms varies run to run.
  std::vector<Row> rows(jobs.size());
  std::atomic<std::size_t> next{0};
  std::atomic<std::size_t> done{0};
  // Shared measurement sink: histogram records are lock-free relaxed
  // atomics, so every worker records straight into the same histogram (see
  // obs/metrics_registry.h). Resolved once, outside the loop.
  obs::MetricsRegistry metrics;
  obs::Histogram& staleness_hist = metrics.histogram("epoch_staleness");
  obs::Counter& staleness_fresh = metrics.counter("epoch_staleness_fresh");
  obs::Counter& staleness_one = metrics.counter("epoch_staleness_stale_one");
  obs::Counter& staleness_over = metrics.counter("epoch_staleness_stale_over");
  const auto harness_start = std::chrono::steady_clock::now();
  auto worker = [&]() {
    for (;;) {
      const std::size_t i = next.fetch_add(1);
      if (i >= jobs.size()) return;
      const Job& job = jobs[i];
      const auto mission_start = std::chrono::steady_clock::now();
      const env::Environment environment = env::generateEnvironment(job.spec);
      runtime::MissionConfig config = base_config;
      config.seed = job.mission_seed;
      // Per-epoch staleness, promoted into the suite's histogram summaries.
      // The observer only measures — mission results are identical with or
      // without it (runtime/mission.h's decision_observer contract).
      config.decision_observer = [&](std::size_t, std::size_t staleness) {
        staleness_hist.record(static_cast<double>(staleness));
        if (staleness == 0) staleness_fresh.add();
        else if (staleness == 1) staleness_one.add();
        else staleness_over.add();
      };
      rows[i].job = job;
      rows[i].result = runtime::runMission(environment, job.design, config);
      rows[i].wall_ms = std::chrono::duration<double, std::milli>(
                            std::chrono::steady_clock::now() - mission_start)
                            .count();
      const std::size_t finished = done.fetch_add(1) + 1;
      if (!opts.quiet) {
        std::ostringstream line;  // single write keeps interleaving readable
        line << "  [" << finished << "/" << jobs.size() << "] " << job.spec.label()
             << " " << runtime::designName(job.design) << " seed=" << job.mission_seed
             << ' ' << runtime::missionStatusName(rows[i].result.status) << "\n";
        std::cerr << line.str();
      }
    }
  };

  const unsigned thread_count =
      static_cast<unsigned>(std::min<std::size_t>(opts.threads, jobs.size()));
  std::vector<std::thread> pool;
  for (unsigned t = 1; t < thread_count; ++t) pool.emplace_back(worker);
  worker();
  for (std::thread& t : pool) t.join();
  const double harness_wall_s =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - harness_start).count();
  const SuiteTiming timing = computeTiming(rows, harness_wall_s, metrics);

  if (!opts.quiet) {
    std::cerr << "suite_runner: " << rows.size() << " missions in "
              << jsonNumber(harness_wall_s, 2) << " s ("
              << jsonNumber(timing.missions_per_sec, 2) << " missions/s)\n";
  }

  if (opts.out_path.empty()) {
    writeJson(std::cout, opts, rows, timing);
  } else {
    std::ofstream out(opts.out_path);
    if (!out) {
      std::cerr << "suite_runner: cannot open " << opts.out_path << "\n";
      return 1;
    }
    writeJson(out, opts, rows, timing);
    if (!opts.quiet) std::cerr << "suite_runner: wrote " << opts.out_path << "\n";
  }

  if (!opts.bench_json_path.empty()) {
    std::ofstream bench(opts.bench_json_path);
    if (!bench) {
      std::cerr << "suite_runner: cannot open " << opts.bench_json_path << "\n";
      return 1;
    }
    writeBenchJson(bench, opts, rows, timing);
    if (!opts.quiet) std::cerr << "suite_runner: wrote " << opts.bench_json_path << "\n";
  }

  // The old "mission ended in an undefined state" smoke check is gone:
  // MissionStatus makes that state unrepresentable.
  return 0;
}
