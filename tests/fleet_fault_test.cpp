// Fleet fault isolation — the crash-containment contract of
// scenario::FleetScheduler (see fleet_scheduler.h).
//
// The deliberately-throwing tenant is a scenario with fault_poison_epoch
// set: sim::FaultPlan flags that decision epoch and runtime::runMission
// throws std::runtime_error there, deterministically, on every attempt.
// These tests pin that one such tenant
//
//   * never takes down the fleet (run() completes, no exception escapes),
//   * lands as a structured Crashed row at its own case index with the
//     exception text and the exhausted attempt count,
//   * leaves every healthy tenant's results bit-identical to a fleet that
//     never contained the poisoned case,
//   * and keeps the whole report — failures included — byte-identical
//     across thread counts.

#include <gtest/gtest.h>

#include <cstdint>
#include <sstream>
#include <string>
#include <vector>

#include "runtime/designs.h"
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

/// One healthy scenario flying real injected faults, then a poisoned tenant
/// that throws at decision epoch 2, then another healthy scenario — so the
/// crash sits BETWEEN live neighbours at a fixed case index.
std::vector<scenario::ScenarioSpec> chaosCatalog() {
  scenario::ScenarioSpec faulty = tinySpec("clutter_ramp", 7);
  faulty.params.push_back({"fault_blackout_rate", 0.08});
  faulty.params.push_back({"fault_blackout_len", 2.0});
  faulty.params.push_back({"fault_dropout", 0.15});

  scenario::ScenarioSpec poisoned = tinySpec("corridor_gradient", 5);
  poisoned.name = "poisoned";
  poisoned.missions = 1;
  poisoned.params.push_back({"fault_poison_epoch", 2.0});

  scenario::ScenarioSpec healthy = tinySpec("weather_front", 11);
  return {faulty, poisoned, healthy};
}

scenario::FleetResult runFleet(const std::vector<scenario::ScenarioSpec>& catalog,
                               unsigned threads, std::size_t retry_limit = 1) {
  scenario::FleetConfig config;
  config.threads = threads;
  config.retry_limit = retry_limit;
  scenario::FleetScheduler scheduler(runtime::smokeMissionConfig(), config);
  EXPECT_EQ(scheduler.admitAll(catalog), catalog.size());
  return scheduler.run();
}

std::string renderReport(const scenario::FleetResult& result) {
  std::ostringstream os;
  scenario::writeFleetJson(os, result, "chaos");
  return os.str();
}

TEST(FleetFaultTest, PoisonedTenantIsIsolatedAsCrashedRow) {
  const scenario::FleetResult result = runFleet(chaosCatalog(), 2);

  std::size_t crashed = 0;
  for (std::size_t i = 0; i < result.rows.size(); ++i) {
    const scenario::FleetRow& row = result.rows[i];
    if (row.result.status != runtime::MissionStatus::Crashed) {
      EXPECT_TRUE(row.error.empty()) << "healthy row " << i << " carries an error";
      EXPECT_EQ(row.attempts, 1u) << "healthy row " << i << " was retried";
      continue;
    }
    ++crashed;
    EXPECT_EQ(result.cases[i].scenario, "poisoned");
    // The crashed row is structured, not a rethrow: the worker recorded the
    // exception text and a defined (empty) MissionResult.
    EXPECT_NE(row.error.find("poisoned"), std::string::npos) << row.error;
    EXPECT_TRUE(row.result.records.empty());
    EXPECT_EQ(row.result.decisions(), 0u);
  }
  EXPECT_EQ(crashed, 1u);
}

TEST(FleetFaultTest, HealthyTenantsUnperturbedByCrashingNeighbour) {
  // Same catalog minus the poisoned tenant: every healthy mission must be
  // bit-identical whether or not a neighbouring case crashed.
  std::vector<scenario::ScenarioSpec> with = chaosCatalog();
  std::vector<scenario::ScenarioSpec> without = {with[0], with[2]};

  const scenario::FleetResult chaotic = runFleet(with, 3);
  const scenario::FleetResult clean = runFleet(without, 3);

  std::vector<const scenario::FleetRow*> healthy;
  for (std::size_t i = 0; i < chaotic.rows.size(); ++i)
    if (chaotic.cases[i].scenario != "poisoned") healthy.push_back(&chaotic.rows[i]);
  ASSERT_EQ(healthy.size(), clean.rows.size());
  for (std::size_t i = 0; i < clean.rows.size(); ++i) {
    const runtime::MissionResult& a = healthy[i]->result;
    const runtime::MissionResult& b = clean.rows[i].result;
    EXPECT_EQ(a.status, b.status) << "row " << i;
    EXPECT_EQ(a.records.size(), b.records.size()) << "row " << i;
    EXPECT_EQ(a.fault_blackouts, b.fault_blackouts) << "row " << i;
    EXPECT_EQ(a.mission_time, b.mission_time) << "row " << i;
    EXPECT_EQ(a.distance_traveled, b.distance_traveled) << "row " << i;
  }
}

TEST(FleetFaultTest, RetriesAreBoundedAndDeterministic) {
  // A deterministic crash fails every attempt, so the poisoned row consumes
  // exactly 1 + retry_limit runs; healthy rows are never retried.
  const scenario::FleetResult result =
      runFleet(chaosCatalog(), 1, /*retry_limit=*/2);
  for (std::size_t i = 0; i < result.rows.size(); ++i) {
    if (result.cases[i].scenario == "poisoned")
      EXPECT_EQ(result.rows[i].attempts, 3u);
    else
      EXPECT_EQ(result.rows[i].attempts, 1u);
  }
}

TEST(FleetFaultTest, FaultedFleetIdenticalAcrossThreads) {
  const scenario::FleetResult reference = runFleet(chaosCatalog(), 1);
  const std::string reference_json = renderReport(reference);
  for (const unsigned threads : {2u, 4u}) {
    const scenario::FleetResult other = runFleet(chaosCatalog(), threads);
    EXPECT_TRUE(scenario::fleetResultsIdentical(reference, other)) << threads << " threads";
    EXPECT_EQ(reference_json, renderReport(other)) << threads << " threads";
  }
}

TEST(FleetFaultTest, ReportCarriesFailuresSectionAndAggregates) {
  const scenario::FleetResult result = runFleet(chaosCatalog(), 2);
  const std::string json = renderReport(result);

  EXPECT_NE(json.find("\"failures\": ["), std::string::npos);
  EXPECT_NE(json.find("\"status\": \"crashed\""), std::string::npos);
  EXPECT_NE(json.find("poisoned"), std::string::npos);

  std::size_t crashed_total = 0;
  for (const scenario::ShardAggregate& s : result.shards) {
    crashed_total += s.crashed;
    EXPECT_EQ(s.wall_aborted, 0u) << s.scenario;
    if (s.scenario == "poisoned") {
      EXPECT_EQ(s.crashed, 1u);
    }
  }
  EXPECT_EQ(crashed_total, 1u);
}

}  // namespace
