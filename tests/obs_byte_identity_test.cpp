// Tier2 pin of the observability contract's load-bearing half: tracing is
// strictly OUTSIDE the bitwise replay contract. A fleet run's deterministic
// --out document must be byte-identical with a SpanRecorder attached or
// not, for every worker count — a recorder only reads
// steady_clock and appends to its own buffer, never sim state.
//
// (The single-mission flavour of the same contract runs in tier1's
// obs_test; this suite drives the full FleetScheduler surface, where the
// recorder additionally sees store lookups, retries, and case-indexed
// epochs from many worker threads at once.)
#include <gtest/gtest.h>

#include <filesystem>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "obs/span_recorder.h"
#include "runtime/designs.h"
#include "scenario/catalog.h"
#include "scenario/fleet_report.h"
#include "scenario/fleet_scheduler.h"

namespace {

using namespace roborun;

scenario::ScenarioSpec tinySpec(const std::string& family, std::uint64_t seed) {
  scenario::ScenarioSpec spec;
  spec.family = family;
  spec.seed = seed;
  spec.missions = 2;
  spec.scale = 0.35;
  return spec;
}

std::vector<scenario::ScenarioSpec> tinyCatalog() {
  return {tinySpec("corridor_gradient", 11), tinySpec("swarm_crossing", 23)};
}

std::string runFleetJson(unsigned threads, obs::SpanRecorder* spans,
                         store::ResultStore* store = nullptr) {
  scenario::FleetConfig config;
  config.threads = threads;
  config.spans = spans;
  config.store = store;
  scenario::FleetScheduler scheduler(runtime::smokeMissionConfig(), config);
  EXPECT_EQ(scheduler.admitAll(tinyCatalog()), 2u);
  const scenario::FleetResult result = scheduler.run();
  std::ostringstream os;
  scenario::writeFleetJson(os, result, "tiny");
  return os.str();
}

TEST(ObsByteIdentityTest, FleetReportUnchangedByTracingAcrossThreads) {
  const std::string baseline = runFleetJson(1, nullptr);
  for (const unsigned threads : {1u, 4u, 16u}) {
    obs::SpanRecorder recorder;
    const std::string traced = runFleetJson(threads, &recorder);
    EXPECT_EQ(traced, baseline) << "threads=" << threads;
    EXPECT_GT(recorder.spanCount(), 0u);
  }
}

TEST(ObsByteIdentityTest, FleetTraceCarriesCaseEpochsAndStoreLookups) {
  store::ResultStore::Config store_config;
  store_config.dir = testing::TempDir() + "obs_byte_identity_store";
  // A warm store from a previous run would serve every case as a hit and no
  // mission-level span would ever be recorded — start cold every time.
  std::filesystem::remove_all(store_config.dir);
  store_config.version = "test";
  store::ResultStore store(store_config);
  obs::SpanRecorder recorder;
  runFleetJson(4, &recorder, &store);
  std::set<obs::Stage> stages;
  std::set<std::uint64_t> case_epochs;
  for (const obs::SpanRecord& s : recorder.spans()) {
    stages.insert(s.stage);
    if (s.stage == obs::Stage::StoreLookup) case_epochs.insert(s.epoch);
  }
  // Mission-level stages flow through from the tenant pipelines; fleet-level
  // stages are stamped with the case index as their epoch.
  EXPECT_TRUE(stages.count(obs::Stage::Govern));
  EXPECT_TRUE(stages.count(obs::Stage::Integrate));
  EXPECT_TRUE(stages.count(obs::Stage::StoreLookup));
  EXPECT_EQ(case_epochs.size(), 4u);  // two specs x two missions
}

}  // namespace
