#include "workloads.h"

#include <algorithm>
#include <filesystem>
#include <stdexcept>

#include "runtime/designs.h"
#include "scenario/catalog.h"
#include "sim/latency_model.h"
#include "store/result_store.h"

namespace perfbench {

using namespace roborun;
using runtime::DesignType;
using runtime::MissionConfig;

namespace {

// Workload sizing: one paper world (both designs) costs about 6 s of host
// time and one built-in fleet catalog at scale 0.5 about 1 s per worker
// on the 4-core reference host, so --seconds 30 flies 5 worlds or 24
// catalogs. The counts depend on --seconds only, never on host speed, so
// two builds always fly identical missions.
constexpr int kPaperSecondsPerWorld = 6;
constexpr int kFleetCatalogsPer5Seconds = 4;

// fleet_smoke: half-scale worlds, and a 90 s simulated cap on every mission.
// Every mission that reaches its goal at this scale does so well inside
// 90 s; the cap only shortens the frozen-pose replan storms, which
// otherwise run to the 2000 s smoke timeout and make the fleet's wall time
// swing 20x between seeds (see README.md).
constexpr double kFleetScale = 0.5;
constexpr double kFleetMaxMissionTime = 90.0;
constexpr unsigned kFleetThreads = 2;

// RoboRun's simulated timeout on paper worlds. Its missions that reach
// the goal do so within 530 s (60 worlds, async A* and sync RRT*); about
// one world in six instead crawls with 20-40x dearer epochs from the start
// and would run to the 9000 s default. The cap ends those at 600 s. The
// oblivious design keeps the default: it flies 2132 s on every world.
constexpr double kPaperRoboRunMaxMissionTime = 600.0;

// Liveness valve on paper worlds: a mission still flying after this
// much host time is aborted (MissionStatus::AbortedWallDeadline) and
// counted as failed. The dearest capped mission seen took 21 s; the valve
// only keeps an unseen pathology from overrunning the run's time limit.
constexpr double kPaperMissionWallValveMs = 30000.0;

std::uint64_t splitmix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

/// The k-th derived seed of a run seed, kept below 2^32 so catalog seeds
/// (base + 100 * family) stay far from wrap-around.
std::uint64_t derivedSeed(std::uint64_t seed, std::size_t k) {
  return splitmix64(seed * 0x100000001b3ULL + k) & 0xffffffffULL;
}

MissionConfig fleetBaseConfig() {
  MissionConfig config = runtime::smokeMissionConfig();
  config.max_mission_time = kFleetMaxMissionTime;
  return config;
}

MissionConfig paperConfig(Kind kind) {
  MissionConfig config = runtime::defaultMissionConfig();
  if (kind == Kind::PipelinedAstar) {
    config.pipeline.execution = runtime::ExecutionMode::Async;
    config.pipeline.planner_mode = runtime::PlannerMode::AStarIncremental;
  }
  config.max_wall_ms = kPaperMissionWallValveMs;
  return config;
}

/// The engine runMission would build privately for `config`, built here so
/// the benchmark can read its counters afterwards. Results are bitwise the
/// same as with the private engine (MissionConfig::shared_engine contract).
std::shared_ptr<core::DecisionEngine> missionEngine(const MissionConfig& config,
                                                    obs::SpanRecorder* spans) {
  core::DecisionEngine::Config engine_config;
  engine_config.knobs = config.knobs;
  engine_config.budgeter = config.budgeter;
  engine_config.profiler = config.profiler;
  engine_config.spans = spans;
  auto engine = core::DecisionEngine::calibrated(
      sim::LatencyModel(config.pipeline.latency), engine_config);
  engine->selectStrategy(config.solver_strategy);
  return engine;
}

void addStats(core::EngineStats& into, const core::EngineStats& s) {
  into.decisions += s.decisions;
  into.solver_memo_hits += s.solver_memo_hits;
  into.solver_memo_misses += s.solver_memo_misses;
  into.strategy_decisions += s.strategy_decisions;
  into.profile_builds += s.profile_builds;
  into.profile_reuses += s.profile_reuses;
  into.profile_wall_ms += s.profile_wall_ms;
  into.budget_wall_ms += s.budget_wall_ms;
  into.solve_wall_ms += s.solve_wall_ms;
}

double msBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

std::unique_ptr<store::ResultStore> openStore(const std::string& dir) {
  store::ResultStore::Config config;
  config.dir = dir;
  // The case description omits fidelity and the timeout, so the stamp
  // names the preset the catalog was flown under.
  config.version = store::defaultVersionStamp("smoke-t90");
  return std::make_unique<store::ResultStore>(config);
}

scenario::FleetResult runFleet(const Inputs& inputs, MissionConfig base,
                               store::ResultStore& result_store,
                               obs::SpanRecorder* spans) {
  scenario::FleetConfig fleet_config;
  fleet_config.threads = kFleetThreads;
  fleet_config.mode = scenario::DispatchMode::Async;
  fleet_config.store = &result_store;
  fleet_config.spans = spans;
  scenario::FleetScheduler scheduler(std::move(base), fleet_config);
  if (scheduler.admitAll(inputs.catalog) != inputs.catalog.size())
    throw std::runtime_error("fleet catalog admission failed");
  return scheduler.run();
}

PassResult runPaperPass(const Inputs& inputs, obs::SpanRecorder* spans) {
  PassResult out;
  EpochClock clock;
  MissionConfig base = paperConfig(inputs.kind);
  base.pipeline.spans = spans;

  const Clock::time_point pass_start = Clock::now();
  for (const env::Environment& world : inputs.worlds) {
    for (const DesignType design : {DesignType::RoboRun, DesignType::SpatialOblivious}) {
      MissionConfig config = base;
      const bool sample = design == DesignType::RoboRun;
      if (sample) config.max_mission_time = kPaperRoboRunMaxMissionTime;
      config.decision_observer = [&clock, sample](std::size_t epoch,
                                                  std::size_t staleness) {
        clock.observe(epoch, staleness, sample);
      };
      MissionRun run;
      run.design = design;
      run.max_mission_time = config.max_mission_time;
      run.start = Clock::now();
      config.shared_engine = missionEngine(config, spans);
      run.result = runtime::runMission(world, design, config);
      run.end = Clock::now();
      run.wall_ms = msBetween(run.start, run.end);
      addStats(out.engine, config.shared_engine->stats());
      out.missions.push_back(std::move(run));
    }
  }
  out.wall_s = msBetween(pass_start, Clock::now()) / 1000.0;
  out.epoch_ms = clock.samplesMs();
  out.observed_epochs = clock.observed();
  out.stale_one = clock.staleOne();
  out.max_staleness = clock.maxStaleness();
  return out;
}

PassResult runFleetPass(const Inputs& inputs, obs::SpanRecorder* spans,
                        const std::string& store_dir) {
  PassResult out;
  EpochClock clock;
  MissionConfig base = fleetBaseConfig();
  // Copied into every case and called concurrently from both workers.
  base.decision_observer = [&clock](std::size_t epoch, std::size_t staleness) {
    clock.observe(epoch, staleness, true);
  };
  std::filesystem::remove_all(store_dir);
  const auto result_store = openStore(store_dir);

  const Clock::time_point pass_start = Clock::now();
  scenario::FleetResult fleet = runFleet(inputs, std::move(base), *result_store, spans);
  out.wall_s = msBetween(pass_start, Clock::now()) / 1000.0;

  for (std::size_t i = 0; i < fleet.rows.size(); ++i) {
    MissionRun run;
    run.design = fleet.cases[i].design;
    run.result = fleet.rows[i].result;
    run.wall_ms = fleet.rows[i].wall_ms;
    run.max_mission_time = fleet.cases[i].config.max_mission_time;
    out.missions.push_back(std::move(run));
  }
  out.mission_threads = fleet.threads;
  out.engine = fleet.engine;
  out.epoch_ms = clock.samplesMs();
  out.observed_epochs = clock.observed();
  out.stale_one = clock.staleOne();
  out.max_staleness = clock.maxStaleness();
  out.fleet = std::move(fleet);
  return out;
}

std::atomic<std::uint64_t> g_next_clock_id{1};

}  // namespace

const std::vector<WorkloadInfo>& workloads() {
  static const std::vector<WorkloadInfo> kWorkloads = {
      {"paper_rrt", Kind::PaperRrt},
      {"pipelined_astar", Kind::PipelinedAstar},
      {"fleet_smoke", Kind::FleetSmoke},
  };
  return kWorkloads;
}

const WorkloadInfo* findWorkload(const std::string& name) {
  for (const WorkloadInfo& w : workloads())
    if (name == w.name) return &w;
  return nullptr;
}

Inputs buildInputs(Kind kind, std::uint64_t seed, int seconds) {
  Inputs inputs;
  inputs.kind = kind;
  if (kind != Kind::FleetSmoke) {
    const std::size_t worlds =
        static_cast<std::size_t>(std::max(1, seconds / kPaperSecondsPerWorld));
    for (std::size_t k = 0; k < worlds; ++k) {
      env::EnvSpec spec;  // paper defaults: density 0.45, spread 80 m, goal 900 m
      spec.seed = derivedSeed(seed, k);
      const Clock::time_point t0 = Clock::now();
      inputs.worlds.push_back(env::generateEnvironment(spec));
      inputs.generate_ms += msBetween(t0, Clock::now());
    }
    return inputs;
  }

  const std::size_t catalogs =
      static_cast<std::size_t>(std::max(1, seconds * kFleetCatalogsPer5Seconds / 5));
  const MissionConfig base = fleetBaseConfig();
  for (std::size_t k = 0; k < catalogs; ++k) {
    for (scenario::ScenarioSpec spec :
         scenario::builtinCatalog(derivedSeed(seed, k), kFleetScale, 2)) {
      spec.name = spec.family + "." + std::to_string(k);  // unique shard per copy
      for (const scenario::MissionCase& c : scenario::expandScenario(spec, base)) {
        ++inputs.fleet_cases;
        if (c.design != DesignType::RoboRun) ++inputs.fleet_non_roborun_cases;
        // The scheduler generates each case's world again when it flies
        // it; generating it here times the env layer on this workload.
        const Clock::time_point t0 = Clock::now();
        const env::Environment world = env::generateEnvironment(c.env);
        inputs.generate_ms += msBetween(t0, Clock::now());
      }
      inputs.catalog.push_back(std::move(spec));
    }
  }
  return inputs;
}

EpochClock::EpochClock() : id_(g_next_clock_id.fetch_add(1)) {}

EpochClock::Lane& EpochClock::lane() {
  // One cached lane per thread, invalidated by clock identity (a new clock
  // may reuse a dead clock's address, never its id).
  thread_local std::uint64_t cached_id = 0;
  thread_local Lane* cached = nullptr;
  if (cached_id != id_) {
    std::lock_guard<std::mutex> lock(mutex_);
    lanes_.push_back(std::make_unique<Lane>());
    cached = lanes_.back().get();
    cached_id = id_;
  }
  return *cached;
}

void EpochClock::observe(std::size_t epoch, std::size_t staleness, bool sample) {
  const Clock::time_point now = Clock::now();
  Lane& l = lane();
  if (sample && epoch > 0) l.ms.push_back(msBetween(l.last, now));
  l.last = now;
  observed_.fetch_add(1);
  if (staleness == 1) stale_one_.fetch_add(1);
  std::size_t seen = max_staleness_.load();
  while (staleness > seen && !max_staleness_.compare_exchange_weak(seen, staleness)) {
  }
}

std::vector<double> EpochClock::samplesMs() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::vector<double> all;
  for (const auto& l : lanes_) all.insert(all.end(), l->ms.begin(), l->ms.end());
  return all;
}

PassResult runPass(const Inputs& inputs, obs::SpanRecorder* spans,
                   const std::string& store_dir) {
  return inputs.kind == Kind::FleetSmoke ? runFleetPass(inputs, spans, store_dir)
                                         : runPaperPass(inputs, spans);
}

scenario::FleetResult warmFleetRerun(const Inputs& inputs, const std::string& store_dir) {
  const auto result_store = openStore(store_dir);
  return runFleet(inputs, fleetBaseConfig(), *result_store, nullptr);
}

}  // namespace perfbench
