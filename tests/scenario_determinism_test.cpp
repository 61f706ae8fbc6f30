// Scenario catalog + fleet scheduler determinism regressions.
//
// Two contracts, extending the determinism_test pattern up a layer:
//
//  * Expansion: the same ScenarioSpec must expand byte-identically on every
//    run and platform — expansion is a pure function of the spec (our own
//    Rng, no clocks, no global state), checked through describeCases()'s
//    exact bit-pattern dump.
//  * Fleet: FleetScheduler results must be bitwise identical for any
//    --threads value, and every fleet case — catalog or evaluation grid —
//    must fly exactly what a direct runMission with a private engine and
//    arena flies: the contract fleet_runner's byte-identical --out JSON
//    rests on.
//
// The fleet cases also check that the --bench-json document prints the
// FleetResult's own engine, store, staleness and wall numbers.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <limits>
#include <locale>
#include <sstream>

#include "env/env_gen.h"
#include "env/suite.h"
#include "geom/stats.h"
#include "obs/json.h"
#include "obs/minijson.h"
#include "runtime/designs.h"
#include "scenario/catalog.h"
#include "scenario/catalog_file.h"
#include "scenario/fleet_report.h"
#include "scenario/fleet_scheduler.h"

namespace {

using namespace roborun;

scenario::ScenarioSpec tinySpec(const std::string& family, std::uint64_t seed) {
  scenario::ScenarioSpec spec;
  spec.family = family;
  spec.seed = seed;
  spec.missions = 2;
  spec.scale = 0.35;  // ~140 m goals: whole missions in tens of milliseconds
  return spec;
}

/// The tier1 fleet workload: two families (one with a dynamic-obstacle
/// schedule), two cases each, smoke fidelity.
std::vector<scenario::ScenarioSpec> tinyCatalog() {
  return {tinySpec("corridor_gradient", 11), tinySpec("swarm_crossing", 23)};
}

/// Flies the tiny catalog; with `staleness`, every epoch's staleness is
/// recorded into it (a measurement: results are identical either way).
scenario::FleetResult runFleet(unsigned threads,
                               scenario::EpochStaleness* staleness = nullptr) {
  runtime::MissionConfig base = runtime::smokeMissionConfig();
  if (staleness != nullptr) scenario::observeEpochStaleness(base, *staleness);
  scenario::FleetConfig config;
  config.threads = threads;
  scenario::FleetScheduler scheduler(base, config);
  EXPECT_EQ(scheduler.admitAll(tinyCatalog()), 2u);
  return scheduler.run();
}

std::string fleetJson(const scenario::FleetResult& result) {
  std::ostringstream os;
  scenario::writeFleetJson(os, result, "catalog");
  return os.str();
}

// --- catalog registry -------------------------------------------------------

TEST(ScenarioCatalogTest, RegistersAtLeastFiveFamilies) {
  ASSERT_GE(scenario::families().size(), 5u);
  for (const scenario::FamilyInfo& f : scenario::families()) {
    EXPECT_EQ(scenario::findFamily(f.name), &f);
    // Every family must expand a default spec into at least one runnable case.
    scenario::ScenarioSpec spec = tinySpec(f.name, 3);
    const auto cases = scenario::expandScenario(spec, runtime::smokeMissionConfig());
    EXPECT_FALSE(cases.empty()) << f.name;
    for (const scenario::MissionCase& c : cases) {
      EXPECT_GT(c.env.goal_distance, 0.0) << f.name;
      EXPECT_NE(c.env.seed, 0u) << f.name;
      EXPECT_NE(c.config.seed, 0u) << f.name;
    }
  }
  EXPECT_EQ(scenario::findFamily("no_such_family"), nullptr);
  EXPECT_THROW(
      scenario::expandScenario(scenario::ScenarioSpec{}, runtime::smokeMissionConfig()),
      std::invalid_argument);
}

TEST(ScenarioCatalogTest, ExpansionIsByteIdenticalAcrossRuns) {
  const runtime::MissionConfig base = runtime::smokeMissionConfig();
  for (const scenario::FamilyInfo& f : scenario::families()) {
    scenario::ScenarioSpec spec = tinySpec(f.name, 77);
    const std::string first = scenario::describeCases(scenario::expandScenario(spec, base));
    const std::string second = scenario::describeCases(scenario::expandScenario(spec, base));
    EXPECT_EQ(first, second) << f.name;
  }
}

TEST(ScenarioCatalogTest, ExpansionIsSeedSensitive) {
  const runtime::MissionConfig base = runtime::smokeMissionConfig();
  for (const scenario::FamilyInfo& f : scenario::families()) {
    const std::string a =
        scenario::describeCases(scenario::expandScenario(tinySpec(f.name, 1), base));
    const std::string b =
        scenario::describeCases(scenario::expandScenario(tinySpec(f.name, 2), base));
    EXPECT_NE(a, b) << f.name;
  }
}

TEST(ScenarioCatalogTest, ParamsOverrideFamilyDefaults) {
  scenario::ScenarioSpec spec = tinySpec("swarm_crossing", 5);
  spec.missions = 1;
  spec.params.push_back({"count", 7.0});
  const auto cases = scenario::expandScenario(spec, runtime::smokeMissionConfig());
  ASSERT_EQ(cases.size(), 1u);
  // A single-case ramp sits at the midpoint between 1 and the peak count.
  EXPECT_EQ(cases[0].config.dynamic_obstacles.size(), 4u);
  // Later entries win (catalog files append overrides).
  spec.params.push_back({"count", 1.0});
  const auto overridden = scenario::expandScenario(spec, runtime::smokeMissionConfig());
  ASSERT_EQ(overridden.size(), 1u);
  EXPECT_EQ(overridden[0].config.dynamic_obstacles.size(), 1u);
}

TEST(ScenarioCatalogTest, DesignSelectionFansOut) {
  scenario::ScenarioSpec spec = tinySpec("clutter_ramp", 9);
  spec.missions = 2;
  spec.designs = scenario::DesignSelection::Both;
  const auto cases = scenario::expandScenario(spec, runtime::smokeMissionConfig());
  ASSERT_EQ(cases.size(), 4u);
  EXPECT_EQ(cases[0].design, runtime::DesignType::SpatialOblivious);
  EXPECT_EQ(cases[1].design, runtime::DesignType::RoboRun);
  // Paired designs fly the exact same world and mission seed.
  EXPECT_EQ(cases[0].env.seed, cases[1].env.seed);
  EXPECT_EQ(cases[0].config.seed, cases[1].config.seed);
}

TEST(ScenarioCatalogTest, BuiltinCatalogCoversEveryFamily) {
  const auto catalog = scenario::builtinCatalog(1, 0.35, 1);
  ASSERT_EQ(catalog.size(), scenario::families().size());
  for (std::size_t i = 0; i < catalog.size(); ++i)
    EXPECT_EQ(catalog[i].family, scenario::families()[i].name);
}

// --- catalog files ----------------------------------------------------------

TEST(CatalogFileTest, ParsesScenarioLines) {
  std::istringstream in(
      "# demo\n"
      "\n"
      "scenario swarm_crossing name=rush seed=9 missions=4 intensity=0.7 "
      "design=both count=8 speed=1.5\n"
      "scenario clutter_ramp scale=0.5  # trailing comment\n");
  const auto parsed = scenario::parseCatalog(in);
  ASSERT_TRUE(parsed.ok()) << (parsed.errors.empty() ? "" : parsed.errors[0]);
  ASSERT_EQ(parsed.scenarios.size(), 2u);
  const scenario::ScenarioSpec& s = parsed.scenarios[0];
  EXPECT_EQ(s.family, "swarm_crossing");
  EXPECT_EQ(s.name, "rush");
  EXPECT_EQ(s.seed, 9u);
  EXPECT_EQ(s.missions, 4u);
  EXPECT_DOUBLE_EQ(s.intensity, 0.7);
  EXPECT_EQ(s.designs, scenario::DesignSelection::Both);
  EXPECT_DOUBLE_EQ(s.param("count", 0.0), 8.0);
  EXPECT_DOUBLE_EQ(s.param("speed", 0.0), 1.5);
  EXPECT_DOUBLE_EQ(parsed.scenarios[1].scale, 0.5);
}

TEST(CatalogFileTest, ReportsErrorsWithLineNumbers) {
  std::istringstream in(
      "scenario bogus_family seed=1\n"
      "mission clutter_ramp\n"
      "scenario clutter_ramp missions=0\n"
      "scenario clutter_ramp seed=ten\n"
      "scenario weather_front floor=low\n");
  const auto parsed = scenario::parseCatalog(in);
  EXPECT_TRUE(parsed.scenarios.empty());
  ASSERT_EQ(parsed.errors.size(), 5u);
  EXPECT_NE(parsed.errors[0].find("line 1"), std::string::npos);
  EXPECT_NE(parsed.errors[0].find("unknown family"), std::string::npos);
  EXPECT_NE(parsed.errors[4].find("line 5"), std::string::npos);
}

TEST(CatalogFileTest, FormatRoundTrips) {
  std::vector<scenario::ScenarioSpec> catalog = {tinySpec("goal_chain", 13)};
  catalog[0].name = "relay";
  catalog[0].designs = scenario::DesignSelection::Both;
  catalog[0].params.push_back({"leg_min", 200.0});
  std::istringstream in(scenario::formatCatalog(catalog));
  const auto parsed = scenario::parseCatalog(in);
  ASSERT_TRUE(parsed.ok());
  ASSERT_EQ(parsed.scenarios.size(), 1u);
  EXPECT_EQ(parsed.scenarios[0].name, "relay");
  EXPECT_EQ(parsed.scenarios[0].seed, 13u);
  EXPECT_EQ(parsed.scenarios[0].designs, scenario::DesignSelection::Both);
  EXPECT_DOUBLE_EQ(parsed.scenarios[0].param("leg_min", 0.0), 200.0);
  const runtime::MissionConfig base = runtime::smokeMissionConfig();
  EXPECT_EQ(scenario::describeCases(scenario::expandScenario(catalog[0], base)),
            scenario::describeCases(scenario::expandScenario(parsed.scenarios[0], base)));
}

TEST(CatalogFileTest, ParsingIsLocaleIndependent) {
  // Dial parsing must never consult LC_NUMERIC: the same catalog has to
  // mean the same missions on a de_DE host. The parser uses
  // std::from_chars, so a comma decimal separator is a parse error in
  // every locale — and a '.' catalog parses identically whatever the
  // global locale says.
  const std::locale original = std::locale();
  bool de_installed = false;
  try {
    std::locale::global(std::locale("de_DE.UTF-8"));
    de_installed = true;
  } catch (const std::runtime_error&) {
    // Locale not installed in this image: the comma-rejection assertions
    // below still pin the locale-independent semantics.
  }
  std::istringstream good("scenario clutter_ramp intensity=0.75 scale=0.5 density=1.25\n");
  const auto parsed = scenario::parseCatalog(good);
  ASSERT_TRUE(parsed.ok()) << (parsed.errors.empty() ? "" : parsed.errors[0]);
  ASSERT_EQ(parsed.scenarios.size(), 1u);
  EXPECT_DOUBLE_EQ(parsed.scenarios[0].intensity, 0.75);
  EXPECT_DOUBLE_EQ(parsed.scenarios[0].scale, 0.5);
  EXPECT_DOUBLE_EQ(parsed.scenarios[0].param("density", 0.0), 1.25);

  std::istringstream comma("scenario clutter_ramp scale=0,5\n");
  const auto rejected = scenario::parseCatalog(comma);
  EXPECT_TRUE(rejected.scenarios.empty());
  ASSERT_EQ(rejected.errors.size(), 1u);
  EXPECT_NE(rejected.errors[0].find("line 1"), std::string::npos);
  if (de_installed) std::locale::global(original);
}

TEST(CatalogFileTest, RejectsNonFiniteDials) {
  // NaN/Inf dials would poison describeCases() byte-identity and shard
  // aggregates downstream; they must die in the parser with the line that
  // wrote them, not get masked by the report writer.
  std::istringstream in(
      "scenario clutter_ramp intensity=nan\n"
      "scenario clutter_ramp scale=inf\n"
      "scenario clutter_ramp density=-inf\n"
      "scenario clutter_ramp density=1e999\n");
  const auto parsed = scenario::parseCatalog(in);
  EXPECT_TRUE(parsed.scenarios.empty());
  ASSERT_EQ(parsed.errors.size(), 4u);
  EXPECT_NE(parsed.errors[0].find("line 1"), std::string::npos);
  EXPECT_NE(parsed.errors[0].find("intensity must be a finite number"), std::string::npos);
  EXPECT_NE(parsed.errors[1].find("line 2"), std::string::npos);
  EXPECT_NE(parsed.errors[2].find("line 3"), std::string::npos);
  EXPECT_NE(parsed.errors[3].find("line 4"), std::string::npos);
}

TEST(CatalogFileTest, FormatRoundTripsAtFullPrecision) {
  // Dials that need more than 6 significant digits (the old default stream
  // precision silently truncated them, so --print-catalog output re-expanded
  // to DIFFERENT missions than the catalog it described).
  std::vector<scenario::ScenarioSpec> catalog = {tinySpec("clutter_ramp", 21)};
  catalog[0].intensity = 1.0 / 3.0;
  catalog[0].scale = 0.1234567890123456;
  catalog[0].params.push_back({"density", 2.0000000000000004});
  const std::string once = scenario::formatCatalog(catalog);
  std::istringstream in(once);
  const auto parsed = scenario::parseCatalog(in);
  ASSERT_TRUE(parsed.ok()) << (parsed.errors.empty() ? "" : parsed.errors[0]);
  ASSERT_EQ(parsed.scenarios.size(), 1u);
  // Exact doubles back, bit for bit...
  EXPECT_EQ(parsed.scenarios[0].intensity, catalog[0].intensity);
  EXPECT_EQ(parsed.scenarios[0].scale, catalog[0].scale);
  EXPECT_EQ(parsed.scenarios[0].param("density", 0.0), 2.0000000000000004);
  // ...so parse -> format -> parse is a byte-identity fixpoint.
  EXPECT_EQ(scenario::formatCatalog(parsed.scenarios), once);
}

TEST(FleetReportTest, NonFiniteMetricsRenderAsNull) {
  // JSON has no NaN/Inf; a poisoned metric must surface as null, never
  // masquerade as a measured 0.
  EXPECT_EQ(obs::jsonNumber(std::numeric_limits<double>::quiet_NaN()), "null");
  EXPECT_EQ(obs::jsonNumber(std::numeric_limits<double>::infinity()), "null");
  EXPECT_EQ(obs::jsonNumber(-std::numeric_limits<double>::infinity()), "null");
  EXPECT_EQ(obs::jsonNumber(1e301), "null");
  EXPECT_EQ(obs::jsonNumber(1.5), "1.500000");
  EXPECT_EQ(obs::jsonNumber(0.6851, 4), "0.6851");
}

// --- fleet determinism ------------------------------------------------------

/// Total Eq. 3 solves on the shared engine. WHICH solves hit the sharded
/// memo is scheduling-dependent, but the total is not.
std::uint64_t solves(const scenario::FleetResult& r) {
  return r.engine.solver_memo_hits + r.engine.solver_memo_misses;
}

/// Shard aggregates add up to the rows they summarize.
void expectShardsConsistentWithRows(const scenario::FleetResult& result) {
  ASSERT_EQ(result.shards.size(), 2u);
  std::size_t missions = 0, decisions = 0;
  for (const scenario::ShardAggregate& s : result.shards) {
    missions += s.missions;
    decisions += s.decisions;
  }
  EXPECT_EQ(missions, result.rows.size());
  std::size_t row_decisions = 0;
  for (const scenario::FleetRow& row : result.rows)
    row_decisions += row.result.decisions();
  EXPECT_EQ(decisions, row_decisions);
}

/// `v` as the bench document prints it, read back.
double printed(double v, int decimals) {
  return std::strtod(obs::jsonNumber(v, decimals).c_str(), nullptr);
}

/// The bench document reports the FleetResult's own fields and the
/// staleness tally, and each stage's p50 is the exact median of the rows'
/// walls. Assumes a fleet flown without a store or retries, so every
/// observed epoch is a counted decision.
void expectBenchJsonMatchesStructs(const scenario::FleetResult& result,
                                   const scenario::EpochStaleness& staleness) {
  std::ostringstream os;
  scenario::writeFleetBenchJson(os, result, "catalog", staleness);
  obs::JsonValue doc;
  std::string error;
  ASSERT_TRUE(obs::parseJson(os.str(), doc, &error)) << error;

  EXPECT_EQ(doc.numberAt("wall_s", -1), printed(result.wall_s, 6));
  EXPECT_EQ(doc.numberAt("missions_per_sec", -1), printed(result.missions_per_sec, 3));

  const obs::JsonValue* engine = doc.find("engine");
  ASSERT_NE(engine, nullptr);
  const core::EngineStats& e = result.engine;
  EXPECT_EQ(engine->numberAt("decisions", -1), e.decisions);
  EXPECT_EQ(engine->numberAt("solver_memo_hits", -1), e.solver_memo_hits);
  EXPECT_EQ(engine->numberAt("solver_memo_misses", -1), e.solver_memo_misses);
  EXPECT_EQ(engine->numberAt("solver_memo_hit_rate", -1), printed(e.solverMemoHitRate(), 4));
  EXPECT_EQ(engine->numberAt("profile_builds", -1), e.profile_builds);

  const obs::JsonValue* store = doc.find("store");
  ASSERT_NE(store, nullptr);
  const store::StoreStats& s = result.store;
  ASSERT_NE(store->find("enabled"), nullptr);
  EXPECT_EQ(store->find("enabled")->boolean, result.store_enabled);
  EXPECT_EQ(store->numberAt("lookups", -1), s.lookups);
  EXPECT_EQ(store->numberAt("hits", -1), s.hits());
  EXPECT_EQ(store->numberAt("misses", -1), s.misses);
  EXPECT_EQ(store->numberAt("hit_rate", -1), printed(s.hitRate(), 4));
  EXPECT_EQ(store->numberAt("inserts", -1), s.inserts);
  EXPECT_EQ(store->numberAt("readonly_skips", -1), s.readonly_skips);
  EXPECT_EQ(store->numberAt("corrupt_rejected", -1), s.corrupt_rejected);

  const obs::JsonValue* timing = doc.find("timing");
  ASSERT_NE(timing, nullptr);
  std::size_t decisions = 0;
  for (const scenario::FleetRow& row : result.rows) decisions += row.result.decisions();
  EXPECT_EQ(timing->numberAt("total_decisions", -1), decisions);
  const obs::JsonValue* age = timing->find("epoch_staleness");
  ASSERT_NE(age, nullptr);
  EXPECT_EQ(age->numberAt("fresh", -1) + age->numberAt("stale_one", -1) +
                age->numberAt("stale_over", -1),
            age->numberAt("epochs", -1));
  EXPECT_EQ(age->numberAt("epochs", -1), decisions);
  EXPECT_EQ(age->numberAt("stale_over", -1), 0.0);
  EXPECT_EQ(age->numberAt("fresh", -1), staleness.fresh());

  const obs::JsonValue* stages = timing->find("stages");
  ASSERT_NE(stages, nullptr);
  std::vector<double> mission_wall, plan_wall, decision_wall;
  for (const scenario::FleetRow& row : result.rows) {
    mission_wall.push_back(row.wall_ms);
    plan_wall.push_back(row.result.planner_wall_ms);
    decision_wall.push_back(row.result.decision_wall_ms);
  }
  const struct {
    const char* name;
    const std::vector<double>& walls;
    int decimals;
  } expected[] = {{"mission_wall_ms", mission_wall, 3},
                  {"plan_wall_ms", plan_wall, 3},
                  {"decision_wall_ms", decision_wall, 4}};
  for (const auto& stage : expected) {
    const obs::JsonValue* block = stages->find(stage.name);
    ASSERT_NE(block, nullptr) << stage.name;
    EXPECT_EQ(block->numberAt("count", -1), result.rows.size()) << stage.name;
    EXPECT_EQ(block->numberAt("p50", -1),
              printed(geom::percentile(stage.walls, 0.5), stage.decimals))
        << stage.name;
  }
}

TEST(FleetSchedulerTest, ResultsIndependentOfThreadCount) {
  const scenario::FleetResult serial = runFleet(1);
  ASSERT_EQ(serial.rows.size(), 4u);
  EXPECT_EQ(serial.threads, 1u);
  ASSERT_GT(serial.rows[0].result.decisions(), 0u);
  EXPECT_GT(serial.engine.profile_builds, 0u);
  const std::string serial_json = fleetJson(serial);
  for (const unsigned threads : {4u, 16u}) {
    // The parallel fleets also record epoch staleness; their workers call
    // the observer concurrently.
    scenario::EpochStaleness staleness;
    const scenario::FleetResult parallel = runFleet(threads, &staleness);
    EXPECT_TRUE(scenario::fleetResultsIdentical(serial, parallel))
        << threads << " threads diverged from serial";
    // The run reports the workers it started: never more than the cases.
    EXPECT_EQ(parallel.threads, std::min(threads, 4u));
    // The deterministic report is byte-stable across thread counts.
    EXPECT_EQ(fleetJson(parallel), serial_json) << threads;
    // The shared engine's profile count is a pure function of the missions
    // flown, so it is independent of thread count.
    EXPECT_EQ(parallel.engine.profile_builds, serial.engine.profile_builds) << threads;
    EXPECT_EQ(solves(parallel), solves(serial)) << threads;
    expectShardsConsistentWithRows(parallel);
    expectBenchJsonMatchesStructs(parallel, staleness);
  }
}

TEST(FleetSchedulerTest, PooledInfrastructureMatchesPrivateMissions) {
  // Every row of the pooled fleet (one shared engine, per-worker arenas)
  // must be exactly what its case flies alone, with the mission's own
  // engine and arena. This covers swarm_crossing's movers, which the grid
  // cases below do not.
  const scenario::FleetResult pooled = runFleet(4);
  // The pooled engine actually served the fleet's governor decisions...
  EXPECT_GT(pooled.engine.decisions, 0u);
  ASSERT_EQ(pooled.rows.size(), 4u);
  // ...without changing a single mission bit.
  for (std::size_t i = 0; i < pooled.rows.size(); ++i) {
    const scenario::MissionCase& c = pooled.cases[i];
    const runtime::MissionResult alone =
        runtime::runMission(env::generateEnvironment(c.env), c.design, c.config);
    EXPECT_TRUE(runtime::missionResultsIdentical(pooled.rows[i].result, alone))
        << c.scenario << " / " << c.label;
  }
}

TEST(FleetSchedulerTest, UnshareableCaseKeepsItsOwnEngine) {
  // A case that changes an engine-relevant setting (here Algorithm 1's
  // waypoint horizon, as paper_report's horizon ablation does) clears
  // engine_shareable: it must govern through its own engine, not through
  // the fleet's, which is calibrated from the base config.
  const runtime::MissionConfig base = runtime::smokeMissionConfig();
  const std::vector<scenario::MissionCase> cases =
      scenario::expandScenario(tinySpec("corridor_gradient", 11), base);
  ASSERT_FALSE(cases.empty());
  scenario::MissionCase unshared = cases.front();
  ASSERT_EQ(unshared.design, runtime::DesignType::RoboRun);
  unshared.config.profiler.waypoint_horizon = 1;
  unshared.engine_shareable = false;

  const env::Environment world = env::generateEnvironment(unshared.env);
  const runtime::MissionResult alone =
      runtime::runMission(world, unshared.design, unshared.config);
  // The horizon changes this mission, so a lent fleet engine would show.
  runtime::MissionConfig base_horizon = unshared.config;
  base_horizon.profiler.waypoint_horizon = base.profiler.waypoint_horizon;
  ASSERT_FALSE(runtime::missionResultsIdentical(
      alone, runtime::runMission(world, unshared.design, base_horizon)));

  scenario::FleetConfig config;
  config.threads = 2;
  scenario::FleetScheduler scheduler(base, config);
  scheduler.admit({unshared});
  const scenario::FleetResult fleet = scheduler.run();
  ASSERT_EQ(fleet.rows.size(), 1u);
  EXPECT_EQ(fleet.threads, 1u);
  EXPECT_TRUE(runtime::missionResultsIdentical(fleet.rows[0].result, alone));
  // The fleet engine decided nothing: the case never borrowed it.
  EXPECT_EQ(fleet.engine.decisions, 0u);
}

TEST(FleetSchedulerTest, GridCasesMatchDirectRunMission) {
  // The evaluation grid served as fleet cases must fly exactly the missions
  // a direct runMission would — private engine and arena, env -> design ->
  // seed order, mission seed base.seed + s — under either pipeline.
  for (const runtime::ExecutionMode pipeline :
       {runtime::ExecutionMode::Sync, runtime::ExecutionMode::Async}) {
    runtime::MissionConfig base = runtime::smokeMissionConfig();
    base.pipeline.execution = pipeline;
    scenario::FleetConfig config;
    config.threads = 2;
    scenario::FleetScheduler scheduler(base, config);
    scheduler.admit(scenario::gridCases(env::smokeSuiteKnobs(), 2, base));
    const scenario::FleetResult fleet = scheduler.run();

    const std::vector<env::EnvSpec> specs =
        env::evaluationSuite(42, env::smokeSuiteKnobs());
    ASSERT_EQ(specs.size(), 1u);
    ASSERT_EQ(fleet.rows.size(), 4u);
    std::size_t i = 0;
    std::size_t reached[2] = {0, 0};
    for (const runtime::DesignType design :
         {runtime::DesignType::SpatialOblivious, runtime::DesignType::RoboRun}) {
      for (std::uint64_t s = 0; s < 2; ++s, ++i) {
        const scenario::MissionCase& c = fleet.cases[i];
        EXPECT_EQ(c.env.seed, specs[0].seed);
        EXPECT_EQ(c.design, design);
        EXPECT_EQ(c.config.seed, base.seed + s);
        runtime::MissionConfig direct = base;
        direct.seed = base.seed + s;
        const runtime::MissionResult expected =
            runtime::runMission(env::generateEnvironment(specs[0]), design, direct);
        EXPECT_TRUE(runtime::missionResultsIdentical(fleet.rows[i].result, expected))
            << runtime::executionModeName(pipeline) << " case " << i;
        reached[i / 2] += expected.reached_goal() ? 1 : 0;
      }
    }
    // One shard per design, in design order.
    ASSERT_EQ(fleet.shards.size(), 2u);
    EXPECT_EQ(fleet.shards[0].scenario, "spatial_oblivious");
    EXPECT_EQ(fleet.shards[1].scenario, "roborun");
    for (std::size_t k = 0; k < 2; ++k) {
      EXPECT_EQ(fleet.shards[k].missions, 2u);
      EXPECT_EQ(fleet.shards[k].reached, reached[k]);
    }
  }
}

TEST(FleetSchedulerTest, DuplicateScenarioNamesGetDistinctShards) {
  // Two unnamed instances of one family are distinct workloads: their
  // shards must not merge (which would cross-contaminate per-scenario
  // aggregates), and the suffixing must be deterministic.
  scenario::FleetScheduler scheduler(runtime::smokeMissionConfig(), scenario::FleetConfig{});
  EXPECT_TRUE(scheduler.admit(tinySpec("clutter_ramp", 1)));
  EXPECT_TRUE(scheduler.admit(tinySpec("clutter_ramp", 2)));
  EXPECT_TRUE(scheduler.admit(tinySpec("clutter_ramp", 3)));
  ASSERT_EQ(scheduler.scenarios().size(), 3u);
  EXPECT_EQ(scheduler.scenarios()[0], "clutter_ramp");
  EXPECT_EQ(scheduler.scenarios()[1], "clutter_ramp#2");
  EXPECT_EQ(scheduler.scenarios()[2], "clutter_ramp#3");
  // Cases carry their shard's key, so rows and aggregates stay separable.
  EXPECT_EQ(scheduler.cases()[0].scenario, "clutter_ramp");
  EXPECT_EQ(scheduler.cases()[2].scenario, "clutter_ramp#2");
  EXPECT_EQ(scheduler.cases()[4].scenario, "clutter_ramp#3");
}

TEST(FleetReportTest, EscapesUserControlledStrings) {
  scenario::ScenarioSpec spec = tinySpec("clutter_ramp", 4);
  spec.missions = 1;
  spec.name = "bad\"name\\with\tweird chars";
  scenario::FleetScheduler scheduler(runtime::smokeMissionConfig(), scenario::FleetConfig{});
  ASSERT_TRUE(scheduler.admit(spec));
  const scenario::FleetResult result = scheduler.run();
  std::ostringstream os;
  scenario::writeFleetJson(os, result, "catalog \"path\" with quotes");
  const std::string doc = os.str();
  EXPECT_NE(doc.find("bad\\\"name\\\\with\\tweird chars"), std::string::npos);
  EXPECT_NE(doc.find("catalog \\\"path\\\" with quotes"), std::string::npos);
  // No raw quote/control bytes survive inside any string literal.
  EXPECT_EQ(doc.find('\t'), std::string::npos);
  EXPECT_EQ(obs::jsonEscape("plain"), "plain");
  EXPECT_EQ(obs::jsonEscape(std::string(1, '\x01')), "\\u0001");
}

}  // namespace
