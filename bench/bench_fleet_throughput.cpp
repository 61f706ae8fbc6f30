// bench_fleet_throughput — fleet-scale mission serving behind
// BENCH_PERF.json's fleet_throughput section.
//
// Serves the built-in demo catalog (every registered scenario generator
// family) through scenario::FleetScheduler's one dispatch shape (a ticket
// queue over shared-engine workers) at two thread counts:
//
//   async_1          one worker (the serial anchor)
//   async_N          N workers
//
// Both must produce bitwise-identical mission results — the FleetScheduler
// determinism contract. The bench exits nonzero on any divergence, so a
// throughput number can never come from a wrong mission. The engine memo
// hit-rate ACROSS tenants is reported from the async_N run (a measurement:
// which hits land where is scheduling-dependent; the mission results are
// not).
//
// On top of the thread-count variants, a warm-store pair exercises the
// content-addressed result store: a cold run on N workers populates a fresh
// store directory, a warm rerun on one worker must hit on every case,
// and the two runs' deterministic reports are compared byte for byte — the
// bench exits nonzero if a warm report diverges from cold, so a store
// speedup number can never come from a wrong replay.
//
// Usage:
//   bench_fleet_throughput [--smoke] [--json <path>] [--threads N]

#include <algorithm>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "obs/json.h"
#include "runtime/designs.h"
#include "runtime/parse_number.h"
#include "scenario/catalog.h"
#include "scenario/fleet_report.h"
#include "scenario/fleet_scheduler.h"
#include "store/result_store.h"

namespace {

using namespace roborun;
using obs::jsonNumber;

struct Variant {
  const char* name;
  scenario::FleetConfig config;
  scenario::FleetResult result;
};

}  // namespace

int main(int argc, char** argv) {
  const char* const usage =
      "usage: bench_fleet_throughput [--smoke] [--json <path>] [--threads N]\n";
  bool smoke = false;
  std::string json_path;
  unsigned threads = 0;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--smoke") {
      smoke = true;
    } else if (arg == "--json" && i + 1 < argc) {
      json_path = argv[++i];
    } else if (arg == "--threads" && i + 1 < argc) {
      const char* text = argv[++i];
      std::uint64_t n = 0;
      if (!runtime::parseNumber(text, n) || n < 1 || n > 4096) {
        std::cerr << "bench_fleet_throughput: --threads needs an integer in [1, 4096], got '"
                  << text << "'\n"
                  << usage;
        return 2;
      }
      threads = static_cast<unsigned>(n);
    } else {
      std::cout << usage;
      return arg == "--help" || arg == "-h" ? 0 : 2;
    }
  }
  if (threads == 0)
    threads = std::clamp(std::thread::hardware_concurrency(), 2u, 8u);

  // Workload: the whole family registry, at smoke fidelity (throughput is
  // the subject here, not sensing fidelity — same policy as the
  // fleet_runner --grid perf runs).
  const double scale = smoke ? 0.35 : 0.5;
  const std::size_t missions_per_scenario = smoke ? 1 : 3;
  const std::vector<scenario::ScenarioSpec> catalog =
      scenario::builtinCatalog(1, scale, missions_per_scenario);
  const runtime::MissionConfig base = runtime::smokeMissionConfig();

  std::vector<Variant> variants;
  {
    scenario::FleetConfig c;
    c.threads = 1;
    variants.push_back({"async_1", c, {}});
    c.threads = threads;
    variants.push_back({"async_N", c, {}});
  }

  std::size_t total_missions = 0;
  for (Variant& v : variants) {
    scenario::FleetScheduler scheduler(base, v.config);
    if (scheduler.admitAll(catalog) != catalog.size()) {
      std::cerr << "bench_fleet_throughput: catalog admission failed\n";
      return 1;
    }
    v.result = scheduler.run();
    total_missions = v.result.rows.size();
  }

  // Determinism gate: every thread count must have produced bitwise-
  // identical mission results.
  bool identical = true;
  for (std::size_t i = 1; i < variants.size(); ++i) {
    if (!scenario::fleetResultsIdentical(variants[0].result, variants[i].result)) {
      std::cerr << "bench_fleet_throughput: DIVERGENCE between " << variants[0].name
                << " and " << variants[i].name << " mission results\n";
      identical = false;
    }
  }
  // Engine-counter gate: every mission profiles once per epoch, so
  // the fleet-wide profile count (and the total solve count — the hit/miss
  // SPLIT is scheduling-dependent, the sum is not) must agree across thread
  // counts.
  for (const Variant& v : variants) {
    const core::EngineStats& a = variants[0].result.engine;
    const core::EngineStats& b = v.result.engine;
    if (a.profile_builds != b.profile_builds ||
        a.solver_memo_hits + a.solver_memo_misses !=
            b.solver_memo_hits + b.solver_memo_misses) {
      std::cerr << "bench_fleet_throughput: ENGINE COUNTER DIVERGENCE between "
                << variants[0].name << " and " << v.name << "\n";
      identical = false;
    }
  }

  // Warm-store pair: cold populates a fresh store directory on N workers,
  // warm replays from it on one. The warm report must be byte-identical to
  // cold — the store contract is "faster, never different".
  const std::filesystem::path store_dir =
      std::filesystem::temp_directory_path() / "roborun_bench_fleet_store";
  std::error_code store_ec;
  std::filesystem::remove_all(store_dir, store_ec);
  store::ResultStore::Config store_config;
  store_config.dir = store_dir.string();
  store_config.version = store::defaultVersionStamp("smoke");
  store::ResultStore result_store(store_config);

  scenario::FleetResult cold_result, warm_result;
  {
    scenario::FleetConfig c;
    c.threads = threads;
    c.store = &result_store;
    scenario::FleetScheduler cold(base, c);
    if (cold.admitAll(catalog) != catalog.size()) {
      std::cerr << "bench_fleet_throughput: catalog admission failed (cold store run)\n";
      return 1;
    }
    cold_result = cold.run();
    c.threads = 1;
    scenario::FleetScheduler warm(base, c);
    if (warm.admitAll(catalog) != catalog.size()) {
      std::cerr << "bench_fleet_throughput: catalog admission failed (warm store run)\n";
      return 1;
    }
    warm_result = warm.run();
  }
  std::ostringstream cold_report, warm_report;
  scenario::writeFleetJson(cold_report, cold_result, "builtin");
  scenario::writeFleetJson(warm_report, warm_result, "builtin");
  const bool store_identical = cold_report.str() == warm_report.str();
  if (!store_identical) {
    std::cerr << "bench_fleet_throughput: DIVERGENCE between cold-store and "
                 "warm-store deterministic reports\n";
    identical = false;
  }
  std::filesystem::remove_all(store_dir, store_ec);

  const scenario::FleetResult& shared = variants[1].result;  // async_N
  std::cerr << "fleet throughput (" << (smoke ? "smoke" : "full") << ": " << total_missions
            << " missions, " << catalog.size() << " scenarios, " << threads
            << " threads)\n";
  for (const Variant& v : variants) {
    std::cerr << "  " << v.name << ":" << std::string(18 - std::string(v.name).size(), ' ')
              << jsonNumber(v.result.missions_per_sec, 2) << " missions/s  ("
              << jsonNumber(v.result.wall_s, 3) << " s, memo hit-rate "
              << jsonNumber(100.0 * v.result.engine.solverMemoHitRate(), 1) << "%)\n";
  }
  std::cerr << "  warm store:       " << jsonNumber(warm_result.missions_per_sec, 2)
            << " missions/s  (" << jsonNumber(warm_result.wall_s, 3) << " s, hit-rate "
            << jsonNumber(100.0 * warm_result.store.hitRate(), 1) << "%, cold "
            << jsonNumber(cold_result.wall_s, 3) << " s)\n";
  std::cerr << "  warm report byte-identical to cold: " << (store_identical ? "yes" : "NO")
            << "\n";
  std::cerr << "  results identical across variants: " << (identical ? "yes" : "NO") << "\n";

  std::ostringstream json;
  json << "{\n";
  json << "  \"schema\": \"roborun-fleet-throughput-v1\",\n";
  json << "  \"smoke\": " << (smoke ? "true" : "false") << ",\n";
  json << "  \"workload\": {\"scenarios\": " << catalog.size()
       << ", \"families\": " << scenario::families().size()
       << ", \"missions\": " << total_missions << ", \"threads\": " << threads
       << ", \"scale\": " << jsonNumber(scale, 2) << "},\n";
  json << "  \"variants\": {\n";
  for (std::size_t i = 0; i < variants.size(); ++i) {
    const Variant& v = variants[i];
    json << "    \"" << v.name << "\": {\"wall_s\": " << jsonNumber(v.result.wall_s)
         << ", \"missions_per_sec\": " << jsonNumber(v.result.missions_per_sec, 3)
         << ", \"profile_builds\": " << v.result.engine.profile_builds
         << ", \"solver_memo_hit_rate\": "
         << jsonNumber(v.result.engine.solverMemoHitRate(), 4) << "}"
         << (i + 1 < variants.size() ? "," : "") << "\n";
  }
  json << "  },\n";
  json << "  \"engine\": {\"decisions\": " << shared.engine.decisions
       << ", \"solver_memo_hits\": " << shared.engine.solver_memo_hits
       << ", \"solver_memo_misses\": " << shared.engine.solver_memo_misses
       << ", \"solver_memo_hit_rate\": " << jsonNumber(shared.engine.solverMemoHitRate(), 4)
       << ", \"profile_builds\": " << shared.engine.profile_builds << "},\n";
  json << "  \"speedup\": {\"async_N\": "
       << jsonNumber(variants[0].result.wall_s /
                         std::max(variants[1].result.wall_s, 1e-12),
                     3)
       << "},\n";
  json << "  \"store\": {\"cold_wall_s\": " << jsonNumber(cold_result.wall_s)
       << ", \"warm_wall_s\": " << jsonNumber(warm_result.wall_s)
       << ", \"warm_speedup\": "
       << jsonNumber(cold_result.wall_s / std::max(warm_result.wall_s, 1e-12), 3)
       << ", \"warm_hit_rate\": " << jsonNumber(warm_result.store.hitRate(), 4)
       << ", \"warm_hits\": " << warm_result.store.hits()
       << ", \"warm_misses\": " << warm_result.store.misses
       << ", \"cold_inserts\": " << cold_result.store.inserts
       << ", \"report_identical\": " << (store_identical ? "true" : "false") << "},\n";
  json << "  \"results_identical\": " << (identical ? "true" : "false") << "\n";
  json << "}\n";

  if (!json_path.empty()) {
    std::ofstream out(json_path);
    if (!out) {
      std::cerr << "bench_fleet_throughput: cannot open " << json_path << "\n";
      return 1;
    }
    out << json.str();
  } else {
    std::cout << json.str();
  }
  return identical ? 0 : 1;
}
