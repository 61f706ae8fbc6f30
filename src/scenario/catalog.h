// Scenario catalog — the registry of procedural generator families and the
// expansion from ScenarioSpec to concrete, runnable missions.
//
// Each family is a deterministic generator: given a spec (seed + dials) and
// a base MissionConfig (the fidelity preset — sensor rays, planner
// iterations — which scenarios deliberately do NOT own), it emits an
// ordered list of MissionCases. Families ship for the spatial axes the
// paper argues matter:
//
//   corridor_gradient   canyon/corridor narrowing: the world squeezes from
//                       open warehouse to narrow-aisle across the cases
//   clutter_ramp        obstacle-density ramp at fixed geometry
//   swarm_crossing      moving-obstacle swarms over the whole corridor
//                       (env::swarmTraffic schedules)
//   goal_chain          multi-waypoint missions: a chain of legs through
//                       freshly generated spaces, one case per leg
//   weather_front       per-zone visibility collapse + sensor-range
//                       degradation deepening across the cases
//   mixed_stress        clutter + swarm + weather compounding at once
//
// Expansion is pure: no clocks, no global state, our own Rng — the same
// spec expands byte-identically on every run and platform (guarded by
// tests/scenario_determinism_test.cpp).
#pragma once

#include <iosfwd>
#include <string>
#include <vector>

#include "env/suite.h"
#include "runtime/mission.h"
#include "scenario/scenario_spec.h"

namespace roborun::scenario {

/// One concrete mission a scenario expanded into.
struct MissionCase {
  std::string scenario;  ///< owning scenario instance (the fleet's shard key)
  std::string label;     ///< case label within the scenario ("step0", "leg2")
  env::EnvSpec env;
  runtime::DesignType design = runtime::DesignType::RoboRun;
  /// Fully resolved config: mission seed, sensor conditions and the
  /// dynamic-obstacle schedule are baked in; fidelity comes from the base
  /// config the expansion was given.
  runtime::MissionConfig config;
  /// Safe to govern through a fleet-pooled DecisionEngine calibrated from
  /// the base config. Families clear this iff they touch the engine-
  /// relevant config (knobs / budgeter / profiler / pipeline latency).
  bool engine_shareable = true;
};

/// A registered generator family.
struct FamilyInfo {
  const char* name;
  const char* summary;  ///< one line for --list-scenarios / --list-families
  const char* params;   ///< family-specific dials, "key=default ..." ("" = none)
  std::vector<MissionCase> (*expand)(const ScenarioSpec&, const runtime::MissionConfig&);
};

/// Every registered family, in a fixed, documented order.
const std::vector<FamilyInfo>& families();

/// Human-readable registry listing (name, summary, dials, file grammar) —
/// the shared body of `fleet_runner --list-families` and
/// `roborun_cli --list-scenarios`; callers print their own heading.
void printFamilies(std::ostream& os);

/// Registry lookup; nullptr when `name` is not a family.
const FamilyInfo* findFamily(const std::string& name);

/// Expand `spec` through its family's generator. Throws
/// std::invalid_argument on an unknown family (tools validate with
/// findFamily first and report nicely).
std::vector<MissionCase> expandScenario(const ScenarioSpec& spec,
                                        const runtime::MissionConfig& base);

/// The built-in demo catalog: one instance of every registered family,
/// seeded from `base_seed`, with the given geometric scale and per-scenario
/// mission count. This is fleet_runner's default workload and the bench /
/// CI smoke catalog.
std::vector<ScenarioSpec> builtinCatalog(std::uint64_t base_seed = 1, double scale = 1.0,
                                         std::size_t missions = 2);

/// The paper's evaluation grid as fleet cases: the specs of
/// env::evaluationSuite(42, knobs) (the first `max_envs` of them; 0 = all),
/// each flown by SpatialOblivious then RoboRun for `seeds` missions seeded
/// base.seed + s, in env -> design -> seed order. Every case's scenario is
/// its design's name, so a fleet run aggregates one shard per design. Not a
/// catalog family: a family is a procedural generator, the grid is Fig. 8a.
std::vector<MissionCase> gridCases(const env::SuiteKnobs& knobs, std::size_t seeds,
                                   const runtime::MissionConfig& base,
                                   std::size_t max_envs = 0);

/// Canonical, byte-stable description of an expansion: every
/// decision-driving field (env knobs, seeds, sensor conditions, each
/// mover's patrol constants) rendered with exact bit patterns. Two
/// expansions are interchangeable iff their descriptions match — this is
/// the "expands byte-identically" test surface and a convenient debugging
/// dump.
std::string describeCases(const std::vector<MissionCase>& cases);

/// One case's block of describeCases() (same bytes, no "cases N" header) —
/// the per-mission identity the content-addressed result store hashes into
/// its keys (store::ResultStore::keyFor).
std::string describeCase(const MissionCase& c);

}  // namespace roborun::scenario
