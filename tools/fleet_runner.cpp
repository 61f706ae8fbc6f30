// fleet_runner — the fleet-scale mission server CLI.
//
// Loads a workload — a scenario catalog file, the built-in demo catalog
// covering every registered generator family, or the paper's evaluation grid
// (--grid) — admits it into a scenario::FleetScheduler, and serves every
// case across a worker pool (one ticket queue over --threads workers) with
// the pooled DecisionEngine memo + per-worker PlannerArenas.
//
// Output contract (see src/scenario/fleet_report.h):
//   --out         deterministic result JSON — byte-identical for any
//                 --threads value on the same workload
//   --bench-json  this run's measurements (missions/s, thread count,
//                 shared-engine memo hit-rate across tenants, stage wall
//                 histograms, per-epoch staleness, per-case walls)
//
// Usage:
//   fleet_runner [--catalog file | --grid smoke|small|paper [--max-envs N]]
//                [--seed N] [--scale F] [--missions N]
//                [--threads N] [--pipeline sync|async]
//                [--config smoke|test|default] [--retries N]
//                [--out results.json] [--bench-json perf.json]
//                [--list-families] [--print-catalog] [--quiet]
//
// Exit code: the number of infrastructure failures (cases still Crashed or
// AbortedWallDeadline after --retries extra attempts), capped at 100 — so 0
// means the whole fleet ran to simulated conclusions and a CI step fails
// exactly when a case is quarantined. IO errors exit 1, usage errors 2
// (ambiguous with 1 or 2 failures; scripts that need the count should read
// the report's "failures" array instead of the exit code).

#include <algorithm>
#include <fstream>
#include <iostream>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "env/suite.h"
#include "obs/span_recorder.h"
#include "runtime/designs.h"
#include "scenario/catalog.h"
#include "scenario/catalog_file.h"
#include "scenario/fleet_report.h"
#include "scenario/fleet_scheduler.h"
#include "store/result_store.h"

namespace {

using namespace roborun;

struct Options {
  std::string catalog_path;  ///< empty = built-in demo catalog
  std::string grid;          ///< evaluation-grid preset; empty = serve a catalog
  env::SuiteKnobs grid_knobs;
  std::size_t max_envs = 0;  ///< grid environments kept; 0 = all
  std::uint64_t seed = 1;    ///< built-in catalog base seed
  double scale = 0.5;        ///< built-in catalog geometric scale
  std::size_t missions = 2;  ///< cases per built-in scenario / seeds per grid cell
  unsigned threads = std::thread::hardware_concurrency();
  runtime::ExecutionMode pipeline = runtime::ExecutionMode::Sync;
  std::string config = "test";
  std::size_t retries = 1;
  std::string out_path;
  std::string bench_json_path;
  std::string trace_out_path;  ///< empty = span tracing off (zero overhead)
  std::string store_dir;  ///< empty = result store disabled
  bool store_readonly = false;
  bool list_families = false;
  bool print_catalog = false;
  bool quiet = false;
};

void usage(std::ostream& os) {
  os << "usage: fleet_runner [--catalog file | --grid smoke|small|paper [--max-envs N]]\n"
        "                    [--seed N] [--scale F] [--missions N]\n"
        "                    [--threads N] [--pipeline sync|async]\n"
        "                    [--config smoke|test|default] [--retries N]\n"
        "                    [--out results.json] [--bench-json perf.json]\n"
        "                    [--trace-out trace.json]\n"
        "                    [--store DIR] [--store-readonly]\n"
        "                    [--list-families] [--print-catalog] [--quiet]\n"
        "\n"
        "Without --catalog, serves the built-in demo catalog (one scenario per\n"
        "registered family; --seed/--scale/--missions shape it). The --out JSON\n"
        "is deterministic: byte-identical for any --threads.\n"
        "\n"
        "--grid serves the paper's evaluation grid instead (env/suite.h: smoke is\n"
        "one short cell, small the shrunken 27-env grid, paper Fig. 8a itself):\n"
        "every env flown by spatial_oblivious then roborun, --missions seeds\n"
        "each (0 expands the grid and runs nothing), one shard per design.\n"
        "--max-envs keeps the first N grid environments.\n"
        "A case that crashes or trips the wall-clock watchdog gets --retries\n"
        "extra attempts (default 1) before landing in the report's failures\n"
        "array; the exit code is the failure count (capped at 100).\n"
        "\n"
        "--threads workers pull cases from one queue, all deciding through one\n"
        "shared engine memo. --pipeline picks the INTRA-MISSION execution mode:\n"
        "sync (the bitwise-replayable anchor, default) or async (the\n"
        "pipelined executor — deterministic, but its mission numbers differ\n"
        "from sync, so the --out document carries the mode). A catalog line\n"
        "can override per scenario with the shared pipeline_async dial.\n"
        "\n"
        "--store DIR enables the content-addressed mission result store: each\n"
        "case is looked up by its exact describeCases() bit pattern before\n"
        "dispatch, and clean results are inserted after the run. A warm store\n"
        "changes only wall-clock speed, never a byte of --out. Hit/miss counts\n"
        "land in --bench-json and the stderr summary; --store-readonly consults\n"
        "the store without writing new records.\n"
        "\n"
        "--trace-out records every stage span the fleet executes (store\n"
        "lookups, retries, and each tenant mission's capture/integrate/\n"
        "govern/plan/smooth/fly stages across all worker lanes) as\n"
        "Chrome trace_event JSON — open it in about:tracing or Perfetto.\n"
        "Tracing is a measurement channel: --out stays byte-identical with\n"
        "or without it.\n";
}

bool parseCount(const char* flag, const char* text, std::size_t& out, std::size_t max) {
  const std::string s(text);
  std::size_t v = 0;
  bool ok = !s.empty() && s.size() <= 9;
  for (const char c : s) {
    if (c < '0' || c > '9') {
      ok = false;
      break;
    }
    v = v * 10 + static_cast<std::size_t>(c - '0');
  }
  if (!ok || v > max) {
    std::cerr << "fleet_runner: " << flag << " needs an integer in [0, " << max
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
        std::cerr << "fleet_runner: " << flag << " needs a value\n";
        return nullptr;
      }
      return argv[++i];
    };
    if (arg == "--catalog") {
      const char* v = next("--catalog");
      if (v == nullptr) return false;
      opts.catalog_path = v;
    } else if (arg == "--seed") {
      const char* v = next("--seed");
      std::size_t seed = 0;
      if (v == nullptr || !parseCount("--seed", v, seed, 100000000)) return false;
      opts.seed = seed;
    } else if (arg == "--scale") {
      const char* v = next("--scale");
      if (v == nullptr) return false;
      std::istringstream ss{std::string(v)};
      if (!(ss >> opts.scale) || !ss.eof() || opts.scale <= 0.0) {
        std::cerr << "fleet_runner: --scale needs a positive number, got '" << v << "'\n";
        return false;
      }
    } else if (arg == "--missions") {
      const char* v = next("--missions");
      if (v == nullptr || !parseCount("--missions", v, opts.missions, 10000)) return false;
    } else if (arg == "--grid") {
      const char* v = next("--grid");
      if (v == nullptr) return false;
      if (!env::parseSuitePreset(v, opts.grid_knobs)) {
        std::cerr << "fleet_runner: --grid must be smoke, small, or paper\n";
        return false;
      }
      opts.grid = v;
    } else if (arg == "--max-envs") {
      const char* v = next("--max-envs");
      if (v == nullptr || !parseCount("--max-envs", v, opts.max_envs, 10000))
        return false;
    } else if (arg == "--threads") {
      const char* v = next("--threads");
      std::size_t threads = 0;
      if (v == nullptr || !parseCount("--threads", v, threads, 4096)) return false;
      opts.threads = static_cast<unsigned>(threads);
    } else if (arg == "--pipeline") {
      const char* v = next("--pipeline");
      if (v == nullptr || !runtime::parseExecutionMode(v, opts.pipeline)) {
        std::cerr << "fleet_runner: --pipeline must be sync or async\n";
        return false;
      }
    } else if (arg == "--config") {
      const char* v = next("--config");
      if (v == nullptr) return false;
      opts.config = v;
    } else if (arg == "--retries") {
      const char* v = next("--retries");
      if (v == nullptr || !parseCount("--retries", v, opts.retries, 16)) return false;
    } else if (arg == "--out") {
      const char* v = next("--out");
      if (v == nullptr) return false;
      opts.out_path = v;
    } else if (arg == "--bench-json") {
      const char* v = next("--bench-json");
      if (v == nullptr) return false;
      opts.bench_json_path = v;
    } else if (arg == "--trace-out") {
      const char* v = next("--trace-out");
      if (v == nullptr) return false;
      opts.trace_out_path = v;
    } else if (arg == "--store") {
      const char* v = next("--store");
      if (v == nullptr) return false;
      opts.store_dir = v;
    } else if (arg == "--store-readonly") {
      opts.store_readonly = true;
    } else if (arg == "--list-families") {
      opts.list_families = true;
    } else if (arg == "--print-catalog") {
      opts.print_catalog = true;
    } else if (arg == "--quiet") {
      opts.quiet = true;
    } else if (arg == "--help" || arg == "-h") {
      usage(std::cout);
      std::exit(0);
    } else {
      std::cerr << "fleet_runner: unknown flag " << arg << "\n";
      usage(std::cerr);
      return false;
    }
  }
  if (opts.config != "smoke" && opts.config != "test" && opts.config != "default") {
    std::cerr << "fleet_runner: --config must be smoke, test, or default\n";
    return false;
  }
  if (!opts.grid.empty() && !opts.catalog_path.empty()) {
    std::cerr << "fleet_runner: --grid and --catalog are mutually exclusive\n";
    return false;
  }
  if (!opts.grid.empty() && opts.print_catalog) {
    std::cerr << "fleet_runner: --print-catalog prints a catalog, not a --grid\n";
    return false;
  }
  if (opts.grid.empty() && opts.max_envs > 0) {
    std::cerr << "fleet_runner: --max-envs needs --grid\n";
    return false;
  }
  if (opts.grid.empty() && opts.missions == 0) {
    std::cerr << "fleet_runner: --missions 0 needs --grid (a grid dry-run)\n";
    usage(std::cerr);
    return false;
  }
  if (opts.store_readonly && opts.store_dir.empty()) {
    std::cerr << "fleet_runner: --store-readonly requires --store DIR\n";
    return false;
  }
  if (opts.threads == 0) opts.threads = 1;
  return true;
}

void listFamilies(std::ostream& os) {
  os << "registered scenario generator families:\n";
  scenario::printFamilies(os);
}

}  // namespace

int main(int argc, char** argv) {
  Options opts;
  if (!parseArgs(argc, argv, opts)) return 2;

  if (opts.list_families) {
    listFamilies(std::cout);
    return 0;
  }

  std::vector<scenario::ScenarioSpec> catalog;
  std::string catalog_label;
  if (!opts.grid.empty()) {
    catalog_label = "grid:" + opts.grid;
  } else if (opts.catalog_path.empty()) {
    catalog = scenario::builtinCatalog(opts.seed, opts.scale, opts.missions);
    catalog_label = "builtin";
  } else {
    const scenario::CatalogParseResult parsed =
        scenario::loadCatalogFile(opts.catalog_path);
    for (const std::string& err : parsed.errors)
      std::cerr << "fleet_runner: " << opts.catalog_path << ": " << err << "\n";
    if (!parsed.ok()) return 2;
    catalog = parsed.scenarios;
    catalog_label = opts.catalog_path;
  }
  if (opts.grid.empty() && catalog.empty()) {
    std::cerr << "fleet_runner: catalog is empty\n";
    return 2;
  }
  if (opts.print_catalog) {
    std::cout << scenario::formatCatalog(catalog);
    return 0;
  }

  runtime::MissionConfig base = opts.config == "default"
                                    ? runtime::defaultMissionConfig()
                                    : (opts.config == "smoke" ? runtime::smokeMissionConfig()
                                                              : runtime::testMissionConfig());
  base.pipeline.execution = opts.pipeline;
  // Every case copies the base config, so each tenant mission reports its
  // epochs' staleness into this one tally (--bench-json's timing block).
  scenario::EpochStaleness epochs;
  scenario::observeEpochStaleness(base, epochs);

  scenario::FleetConfig fleet_config;
  fleet_config.threads = opts.threads;
  fleet_config.retry_limit = opts.retries;

  // The store key is the case's describeCases() bit pattern, which does not
  // cover the base MissionConfig — the engine version stamp carries the
  // --config preset instead, so a smoke-fidelity record can never satisfy a
  // test-fidelity lookup (see store/result_store.h).
  std::optional<store::ResultStore> result_store;
  if (!opts.store_dir.empty()) {
    store::ResultStore::Config store_config;
    store_config.dir = opts.store_dir;
    store_config.version = store::defaultVersionStamp(opts.config);
    store_config.readonly = opts.store_readonly;
    result_store.emplace(store_config);
    fleet_config.store = &*result_store;
  }

  // Span tracing: one recorder for the whole fleet run. Off (the default)
  // costs one null-check per instrumentation site; on, every worker lane's
  // stage spans land in one Chrome trace_event document.
  std::optional<obs::SpanRecorder> recorder;
  if (!opts.trace_out_path.empty()) {
    recorder.emplace();
    fleet_config.spans = &*recorder;
  }

  scenario::FleetScheduler scheduler(base, fleet_config);
  if (!opts.grid.empty()) {
    scheduler.admit(
        scenario::gridCases(opts.grid_knobs, opts.missions, base, opts.max_envs));
  } else if (const std::size_t admitted = scheduler.admitAll(catalog);
             admitted != catalog.size()) {
    std::cerr << "fleet_runner: only " << admitted << "/" << catalog.size()
              << " scenarios admitted\n";
    return 2;
  }

  if (!opts.quiet) {
    std::cerr << "fleet_runner: " << scheduler.cases().size() << " missions in "
              << scheduler.scenarios().size() << " shards (" << catalog_label << ") on "
              << scheduler.workers() << " thread(s), "
              << runtime::executionModeName(opts.pipeline) << " pipeline\n";
  }

  const scenario::FleetResult result = scheduler.run();

  std::size_t failures = 0;
  for (const scenario::FleetRow& row : result.rows)
    failures += runtime::missionStatusIsInfrastructureFailure(row.result.status) ? 1 : 0;

  if (!opts.quiet) {
    std::size_t reached = 0;
    for (const scenario::FleetRow& row : result.rows)
      reached += row.result.reached_goal() ? 1 : 0;
    // The summary reads the same FleetResult fields --bench-json
    // serializes, so the two surfaces report the same numbers.
    std::ostringstream line;
    line.setf(std::ios::fixed);
    line.precision(2);
    line << "fleet_runner: " << result.rows.size() << " missions in " << result.wall_s
         << " s (" << result.missions_per_sec << " missions/s), " << reached
         << " reached goal";
    if (failures > 0) line << ", " << failures << " quarantined";
    line.precision(1);
    line << "; engine memo hit-rate " << 100.0 * result.engine.solverMemoHitRate()
         << "% across tenants";
    if (result.store_enabled) {
      const store::StoreStats& s = result.store;
      line << "; result store " << s.hits() << " hit(s) / " << s.misses << " miss(es) ("
           << 100.0 * s.hitRate() << "%), " << s.inserts << " inserted";
      if (s.corrupt_rejected > 0)
        line << ", " << s.corrupt_rejected << " corrupt record(s) rejected";
    }
    std::cerr << line.str() << "\n";
    for (const scenario::FleetRow& row : result.rows) {
      if (!runtime::missionStatusIsInfrastructureFailure(row.result.status)) continue;
      const std::size_t i = static_cast<std::size_t>(&row - result.rows.data());
      const scenario::MissionCase& c = result.cases[i];
      std::cerr << "fleet_runner: FAILED case " << i << " (" << c.scenario << " / "
                << c.label << "): " << runtime::missionStatusName(row.result.status)
                << " after " << row.attempts << " attempt(s)"
                << (row.error.empty() ? "" : ": " + row.error) << "\n";
    }
  }

  if (opts.out_path.empty()) {
    scenario::writeFleetJson(std::cout, result, catalog_label);
  } else {
    std::ofstream out(opts.out_path);
    if (!out) {
      std::cerr << "fleet_runner: cannot open " << opts.out_path << "\n";
      return 1;
    }
    scenario::writeFleetJson(out, result, catalog_label);
    if (!opts.quiet) std::cerr << "fleet_runner: wrote " << opts.out_path << "\n";
  }
  if (!opts.bench_json_path.empty()) {
    std::ofstream bench(opts.bench_json_path);
    if (!bench) {
      std::cerr << "fleet_runner: cannot open " << opts.bench_json_path << "\n";
      return 1;
    }
    scenario::writeFleetBenchJson(bench, result, catalog_label, epochs);
    if (!opts.quiet) std::cerr << "fleet_runner: wrote " << opts.bench_json_path << "\n";
  }
  if (recorder) {
    std::ofstream trace(opts.trace_out_path, std::ios::binary);
    if (!trace) {
      std::cerr << "fleet_runner: cannot open " << opts.trace_out_path << "\n";
      return 1;
    }
    obs::writeChromeTrace(trace, recorder->spans());
    if (!opts.quiet)
      std::cerr << "fleet_runner: wrote " << opts.trace_out_path << " ("
                << recorder->spanCount() << " spans; open in about:tracing / Perfetto)\n";
  }

  // The old "mission ended in an undefined state" smoke check is gone:
  // MissionStatus makes that state unrepresentable. The exit code now
  // reports infrastructure failures directly (see the header comment).
  return static_cast<int>(std::min<std::size_t>(failures, 100));
}
