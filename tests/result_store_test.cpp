// Content-addressed mission result store — contracts of store::ResultStore
// and store::serializeStoredResult (see src/store/result_store.h):
//
//   * keys are a pure function of (version stamp, case description) —
//     stable across store instances, and the version stamp invalidates
//     every key when bumped;
//   * a store hit is bit-identical to running the mission, so a warm-store
//     fleet emits a byte-identical report to a cold one across thread
//     counts;
//   * corrupt or truncated records are misses, never errors — the fleet
//     falls back to running the mission and re-inserts a clean record;
//   * readonly stores never write files;
//   * infrastructure-failure rows (Crashed) always bypass the store.

#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "runtime/designs.h"
#include "scenario/catalog.h"
#include "scenario/fleet_report.h"
#include "scenario/fleet_scheduler.h"
#include "store/result_store.h"

namespace {

using namespace roborun;
namespace fs = std::filesystem;

/// Fresh scratch directory per test; removed on destruction.
struct ScratchDir {
  fs::path path;
  explicit ScratchDir(const std::string& name)
      : path(fs::temp_directory_path() / ("roborun_result_store_test_" + name)) {
    fs::remove_all(path);
  }
  ~ScratchDir() {
    std::error_code ec;
    fs::remove_all(path, ec);
  }
  std::string str() const { return path.string(); }
};

store::ResultStore makeStore(const ScratchDir& dir, const std::string& version,
                             bool readonly = false) {
  store::ResultStore::Config config;
  config.dir = dir.str();
  config.version = version;
  config.readonly = readonly;
  return store::ResultStore(config);
}

/// A fully-populated synthetic result: every serialized field nonzero /
/// non-default so the serde round-trip test cannot pass by accident.
store::StoredResult syntheticStored() {
  store::StoredResult stored;
  runtime::MissionResult& m = stored.result;
  m.status = runtime::MissionStatus::ReachedGoal;
  m.mission_time = 31.25;
  m.flight_energy = 15321.5;
  m.compute_energy = 12.625;
  m.battery_soc = 0.8125;
  m.distance_traveled = 55.375;
  m.fault_blackouts = 3;
  m.fault_spikes = 2;
  for (int i = 0; i < 5; ++i) {
    runtime::DecisionRecord rec;
    rec.t = 2.5 * i + 0.1;
    rec.position = {5.0 * i, 0.5 * i, 3.0 + i};
    rec.zone = i % 2 == 0 ? env::Zone::A : env::Zone::C;
    rec.velocity = 1.0 + 0.1 * i;
    rec.commanded_velocity = 1.2 + 0.1 * i;
    rec.visibility = 20.0 - i;
    rec.known_free_horizon = 15.0 + i;
    rec.deadline = 3.0;
    rec.latencies.runtime = 0.05;
    rec.latencies.point_cloud = 0.21;
    rec.latencies.octomap = 0.4 + 0.01 * i;
    rec.latencies.bridge = 0.1;
    rec.latencies.planning = i % 2 == 0 ? 0.6 : 0.0;
    rec.latencies.smoothing = 0.05;
    rec.latencies.comm_point_cloud = 0.02;
    rec.latencies.comm_map = 0.03;
    rec.latencies.comm_trajectory = 0.01;
    rec.policy.stage(core::Stage::Perception) = {0.3 * (1 + i), 500.0 * (i + 1)};
    rec.policy.stage(core::Stage::PerceptionToPlanning) = {0.6, 800.0};
    rec.policy.stage(core::Stage::Planning) = {0.65, 900.0};
    rec.policy.deadline = 2.75;
    rec.policy.predicted_latency = 1.5 + 0.125 * i;
    rec.replanned = i % 2 == 0;
    rec.plan_failed = i == 3;
    rec.budget_met = i != 4;
    rec.cpu_utilization = 0.4375;
    m.records.push_back(rec);
  }
  stored.attempts = 2;
  return stored;
}

scenario::ScenarioSpec tinySpec(const std::string& family, std::uint64_t seed) {
  scenario::ScenarioSpec spec;
  spec.family = family;
  spec.seed = seed;
  spec.missions = 2;
  spec.scale = 0.35;  // ~140 m goals: whole missions in tens of milliseconds
  return spec;
}

std::vector<scenario::ScenarioSpec> smallCatalog() {
  return {tinySpec("clutter_ramp", 7), tinySpec("weather_front", 11)};
}

scenario::FleetResult runFleet(const std::vector<scenario::ScenarioSpec>& catalog,
                               unsigned threads, store::ResultStore* store) {
  scenario::FleetConfig config;
  config.threads = threads;
  config.store = store;
  scenario::FleetScheduler scheduler(runtime::smokeMissionConfig(), config);
  EXPECT_EQ(scheduler.admitAll(catalog), catalog.size());
  return scheduler.run();
}

std::string renderReport(const scenario::FleetResult& result) {
  std::ostringstream os;
  scenario::writeFleetJson(os, result, "store");
  return os.str();
}

// ---------------------------------------------------------------------------
// Keys

TEST(StoreKeyTest, KeyIsAPureFunctionOfDescriptionAndStamp) {
  ScratchDir dir("keys");
  const store::ResultStore a = makeStore(dir, "stamp-1");
  const store::ResultStore b = makeStore(dir, "stamp-1");
  const std::string desc = "case bits: 3ff0000000000000 4008000000000000";
  EXPECT_EQ(a.keyFor(desc).hex(), b.keyFor(desc).hex());
  EXPECT_NE(a.keyFor(desc).hex(), a.keyFor(desc + " ").hex());
  const std::string hex = a.keyFor(desc).hex();
  EXPECT_EQ(hex.size(), 32u);
  EXPECT_EQ(hex.find_first_not_of("0123456789abcdef"), std::string::npos);
}

TEST(StoreKeyTest, VersionStampInvalidatesEveryKey) {
  ScratchDir dir("stamp");
  const store::ResultStore v1 = makeStore(dir, store::defaultVersionStamp("test"));
  const store::ResultStore v2 = makeStore(dir, store::defaultVersionStamp("smoke"));
  for (const char* desc : {"case 0", "case 1", "case 2", ""}) {
    EXPECT_NE(v1.keyFor(desc).hex(), v2.keyFor(desc).hex()) << "desc '" << desc << "'";
  }
}

TEST(StoreKeyTest, StampedStoresDoNotServeEachOthersRecords) {
  ScratchDir dir("crossstamp");
  store::ResultStore old_stamp = makeStore(dir, "engine-v1");
  const std::string desc = "the same case description";
  ASSERT_TRUE(old_stamp.insert(old_stamp.keyFor(desc), syntheticStored(), desc.size()));
  store::ResultStore new_stamp = makeStore(dir, "engine-v2");
  EXPECT_FALSE(new_stamp.lookup(new_stamp.keyFor(desc)).has_value());
  EXPECT_EQ(new_stamp.stats().misses, 1u);
}

// ---------------------------------------------------------------------------
// Serde

TEST(SerdeTest, RoundTripIsBitExact) {
  const store::StoredResult original = syntheticStored();
  const std::string bytes = store::serializeStoredResult(original);
  store::StoredResult decoded;
  ASSERT_TRUE(store::deserializeStoredResult(bytes, decoded));
  EXPECT_EQ(decoded.attempts, original.attempts);
  const runtime::MissionResult& a = original.result;
  const runtime::MissionResult& b = decoded.result;
  EXPECT_EQ(b.status, a.status);
  EXPECT_EQ(b.fault_blackouts, a.fault_blackouts);
  EXPECT_EQ(b.fault_spikes, a.fault_spikes);
  EXPECT_DOUBLE_EQ(b.mission_time, a.mission_time);
  EXPECT_DOUBLE_EQ(b.flight_energy, a.flight_energy);
  EXPECT_DOUBLE_EQ(b.compute_energy, a.compute_energy);
  EXPECT_DOUBLE_EQ(b.battery_soc, a.battery_soc);
  EXPECT_DOUBLE_EQ(b.distance_traveled, a.distance_traveled);
  ASSERT_EQ(b.records.size(), a.records.size());
  for (std::size_t i = 0; i < a.records.size(); ++i) {
    const runtime::DecisionRecord& x = a.records[i];
    const runtime::DecisionRecord& y = b.records[i];
    EXPECT_DOUBLE_EQ(y.t, x.t);
    EXPECT_DOUBLE_EQ(y.position.x, x.position.x);
    EXPECT_DOUBLE_EQ(y.position.y, x.position.y);
    EXPECT_DOUBLE_EQ(y.position.z, x.position.z);
    EXPECT_EQ(y.zone, x.zone);
    EXPECT_DOUBLE_EQ(y.velocity, x.velocity);
    EXPECT_DOUBLE_EQ(y.commanded_velocity, x.commanded_velocity);
    EXPECT_DOUBLE_EQ(y.visibility, x.visibility);
    EXPECT_DOUBLE_EQ(y.known_free_horizon, x.known_free_horizon);
    EXPECT_DOUBLE_EQ(y.deadline, x.deadline);
    EXPECT_DOUBLE_EQ(y.latencies.total(), x.latencies.total());
    EXPECT_DOUBLE_EQ(y.latencies.comm(), x.latencies.comm());
    for (std::size_t s = 0; s < core::kNumStages; ++s) {
      EXPECT_DOUBLE_EQ(y.policy.stages[s].precision, x.policy.stages[s].precision);
      EXPECT_DOUBLE_EQ(y.policy.stages[s].volume, x.policy.stages[s].volume);
    }
    EXPECT_DOUBLE_EQ(y.policy.deadline, x.policy.deadline);
    EXPECT_DOUBLE_EQ(y.policy.predicted_latency, x.policy.predicted_latency);
    EXPECT_EQ(y.replanned, x.replanned);
    EXPECT_EQ(y.plan_failed, x.plan_failed);
    EXPECT_EQ(y.budget_met, x.budget_met);
    EXPECT_DOUBLE_EQ(y.cpu_utilization, x.cpu_utilization);
  }
  // Wall-clock measurements are deliberately outside the stored surface: a
  // served result reports them as 0 (they describe one historical run).
  EXPECT_DOUBLE_EQ(b.planner_wall_ms, 0.0);
  EXPECT_DOUBLE_EQ(b.decision_wall_ms, 0.0);
}

TEST(SerdeTest, RejectsStructurallyCorruptPayloads) {
  const std::string bytes = store::serializeStoredResult(syntheticStored());
  store::StoredResult out;
  // Truncation at every prefix length must fail the decode, never crash.
  for (std::size_t len = 0; len < bytes.size(); ++len)
    EXPECT_FALSE(store::deserializeStoredResult(bytes.substr(0, len), out))
        << "decoded a " << len << "-byte truncation";
  // Trailing garbage.
  EXPECT_FALSE(store::deserializeStoredResult(bytes + "x", out));
  // Bad magic / unknown version.
  std::string bad_magic = bytes;
  bad_magic[0] = 'X';
  EXPECT_FALSE(store::deserializeStoredResult(bad_magic, out));
  std::string bad_version = bytes;
  bad_version[4] = static_cast<char>(0x7f);
  EXPECT_FALSE(store::deserializeStoredResult(bad_version, out));
}

// ---------------------------------------------------------------------------
// Store mechanics

TEST(ResultStoreTest, InsertThenLookupServesMemoryThenDisk) {
  ScratchDir dir("mechanics");
  const std::string desc = "one case";
  const store::StoredResult value = syntheticStored();
  {
    store::ResultStore writer = makeStore(dir, "v");
    const store::StoreKey key = writer.keyFor(desc);
    EXPECT_FALSE(writer.lookup(key).has_value());
    ASSERT_TRUE(writer.insert(key, value, desc.size()));
    const auto hit = writer.lookup(key);
    ASSERT_TRUE(hit.has_value());
    EXPECT_EQ(hit->attempts, value.attempts);
    EXPECT_EQ(hit->result.records.size(), value.result.records.size());
    const store::StoreStats s = writer.stats();
    EXPECT_EQ(s.lookups, 2u);
    EXPECT_EQ(s.misses, 1u);
    EXPECT_EQ(s.hits_memory, 1u);  // the LRU front, no file I/O
    EXPECT_EQ(s.inserts, 1u);
  }
  // A fresh store instance on the same directory decodes the record file.
  store::ResultStore reader = makeStore(dir, "v");
  const auto hit = reader.lookup(reader.keyFor(desc));
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(hit->result.status, value.result.status);
  EXPECT_DOUBLE_EQ(hit->result.mission_time, value.result.mission_time);
  EXPECT_EQ(reader.stats().hits_disk, 1u);
}

TEST(ResultStoreTest, CorruptRecordsAreMissesNeverErrors) {
  ScratchDir dir("corrupt");
  const std::string desc = "a case";
  store::StoreKey key;
  {
    store::ResultStore writer = makeStore(dir, "v");
    key = writer.keyFor(desc);
    ASSERT_TRUE(writer.insert(key, syntheticStored(), desc.size()));
  }
  const fs::path record = fs::path(dir.str()) / (key.hex() + ".result");
  const fs::path narinfo = fs::path(dir.str()) / (key.hex() + ".narinfo");
  ASSERT_TRUE(fs::exists(record));

  // Flip a payload byte: the checksum (or decode) rejects it.
  {
    std::fstream f(record, std::ios::in | std::ios::out | std::ios::binary);
    f.seekp(16);
    f.put('\xab');
  }
  store::ResultStore flipped = makeStore(dir, "v");
  EXPECT_FALSE(flipped.lookup(key).has_value());
  EXPECT_EQ(flipped.stats().corrupt_rejected, 1u);
  EXPECT_EQ(flipped.stats().misses, 1u);

  // Truncate the payload: length mismatch against the narinfo.
  fs::resize_file(record, 8);
  store::ResultStore truncated = makeStore(dir, "v");
  EXPECT_FALSE(truncated.lookup(key).has_value());
  EXPECT_EQ(truncated.stats().corrupt_rejected, 1u);

  // Garbage narinfo metadata.
  {
    std::ofstream f(narinfo, std::ios::trunc);
    f << "StoreVersion: banana\n";
  }
  store::ResultStore bad_meta = makeStore(dir, "v");
  EXPECT_FALSE(bad_meta.lookup(key).has_value());
  EXPECT_EQ(bad_meta.stats().corrupt_rejected, 1u);

  // A clean insert overwrites the damage.
  ASSERT_TRUE(bad_meta.insert(key, syntheticStored(), desc.size()));
  store::ResultStore healed = makeStore(dir, "v");
  EXPECT_TRUE(healed.lookup(key).has_value());
}

TEST(ResultStoreTest, ReadonlyStoreNeverWritesFiles) {
  ScratchDir dir("readonly");
  store::ResultStore ro = makeStore(dir, "v", /*readonly=*/true);
  const store::StoreKey key = ro.keyFor("case");
  EXPECT_TRUE(ro.insert(key, syntheticStored()));  // not an I/O failure
  EXPECT_EQ(ro.stats().readonly_skips, 1u);
  EXPECT_EQ(ro.stats().inserts, 0u);
  EXPECT_FALSE(fs::exists(dir.path));  // not even the directory is created
  // The in-process LRU front still serves the repeat (readonly promises
  // "never write files", not "never remember").
  EXPECT_TRUE(ro.lookup(key).has_value());
  // A fresh readonly store sees nothing on disk.
  store::ResultStore fresh = makeStore(dir, "v", /*readonly=*/true);
  EXPECT_FALSE(fresh.lookup(key).has_value());
}

// ---------------------------------------------------------------------------
// Fleet integration

TEST(FleetStoreTest, WarmReportIsByteIdenticalAcrossThreads) {
  ScratchDir dir("fleet_warm");
  const auto catalog = smallCatalog();
  store::ResultStore store = makeStore(dir, store::defaultVersionStamp("smoke"));

  const scenario::FleetResult cold =
      runFleet(catalog, 2, &store);
  const std::string cold_report = renderReport(cold);
  EXPECT_EQ(cold.store.misses, cold.rows.size());
  EXPECT_EQ(cold.store.inserts, cold.rows.size());

  // The pinned contract: threads 1/4/16 all replay the cold report byte
  // for byte from the store.
  for (const unsigned threads : {1u, 4u, 16u}) {
    const scenario::FleetResult warm = runFleet(catalog, threads, &store);
    EXPECT_EQ(warm.store.hits(), warm.rows.size()) << threads << " threads";
    EXPECT_EQ(renderReport(warm), cold_report) << threads << " threads";
  }
}

TEST(FleetStoreTest, CorruptRecordFallsBackToRunningTheMission) {
  ScratchDir dir("fleet_corrupt");
  const auto catalog = smallCatalog();
  store::ResultStore store = makeStore(dir, store::defaultVersionStamp("smoke"));
  const std::string cold_report =
      renderReport(runFleet(catalog, 2, &store));

  // Damage one record file, then warm-run through a fresh store instance
  // (the first store still holds every result in its LRU front).
  fs::path victim;
  for (const auto& entry : fs::directory_iterator(dir.path))
    if (entry.path().extension() == ".result") victim = entry.path();
  ASSERT_FALSE(victim.empty());
  {
    std::fstream f(victim, std::ios::in | std::ios::out | std::ios::binary);
    f.seekp(12);
    f.put('\xcd');
  }
  store::ResultStore reopened = makeStore(dir, store::defaultVersionStamp("smoke"));
  const scenario::FleetResult warm =
      runFleet(catalog, 2, &reopened);
  // The damaged case re-ran and was re-inserted; the report is still byte-
  // identical to cold — corruption costs time, never correctness.
  EXPECT_EQ(warm.store.corrupt_rejected, 1u);
  EXPECT_EQ(warm.store.misses, 1u);
  EXPECT_EQ(warm.store.hits(), warm.rows.size() - 1);
  EXPECT_EQ(warm.store.inserts, 1u);
  EXPECT_EQ(renderReport(warm), cold_report);
}

TEST(FleetStoreTest, InfrastructureFailureRowsBypassTheStore) {
  // A poisoned tenant (deterministic throw at decision epoch 2 — the
  // fleet_fault_test rig) lands as a Crashed row. Crashed describes this
  // run's infrastructure, not the mission, so it must never be cached: the
  // warm run re-attempts it while every healthy case hits.
  ScratchDir dir("fleet_poison");
  scenario::ScenarioSpec poisoned = tinySpec("corridor_gradient", 5);
  poisoned.name = "poisoned";
  poisoned.missions = 1;
  poisoned.params.push_back({"fault_poison_epoch", 2.0});
  const std::vector<scenario::ScenarioSpec> catalog = {tinySpec("clutter_ramp", 7),
                                                       poisoned};

  store::ResultStore store = makeStore(dir, store::defaultVersionStamp("smoke"));
  const scenario::FleetResult cold =
      runFleet(catalog, 2, &store);
  std::size_t crashed = 0;
  for (const scenario::FleetRow& row : cold.rows)
    crashed += row.result.status == runtime::MissionStatus::Crashed ? 1 : 0;
  ASSERT_EQ(crashed, 1u);
  EXPECT_EQ(cold.store.inserts, cold.rows.size() - 1);

  const scenario::FleetResult warm =
      runFleet(catalog, 2, &store);
  EXPECT_EQ(warm.store.hits(), warm.rows.size() - 1);
  EXPECT_EQ(warm.store.misses, 1u);  // the poisoned case re-ran (and re-crashed)
  EXPECT_EQ(warm.store.inserts, 0u);
  EXPECT_EQ(renderReport(warm), renderReport(cold));
}

}  // namespace
