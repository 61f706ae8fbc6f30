#include "scenario/fleet_report.h"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <ostream>

#include "geom/stats.h"
#include "obs/json.h"

namespace roborun::scenario {

using obs::jsonEscape;
using obs::jsonNumber;

void EpochStaleness::record(std::size_t age) {
  if (age == 0) {
    fresh_.fetch_add(1, std::memory_order_relaxed);
  } else if (age == 1) {
    stale_one_.fetch_add(1, std::memory_order_relaxed);
  } else {
    std::lock_guard<std::mutex> lock(over_mu_);
    over_.push_back(age);
  }
}

std::uint64_t EpochStaleness::staleOver() const {
  std::lock_guard<std::mutex> lock(over_mu_);
  return over_.size();
}

double EpochStaleness::mean() const {
  const std::uint64_t n = epochs();
  if (n == 0) return 0.0;
  std::lock_guard<std::mutex> lock(over_mu_);
  const std::uint64_t sum =
      std::accumulate(over_.begin(), over_.end(), staleOne());
  return static_cast<double>(sum) / static_cast<double>(n);
}

double EpochStaleness::p95() const {
  const std::uint64_t n = epochs();
  if (n == 0) return 0.0;
  // Nearest rank: the smallest age whose cumulative count covers 95%.
  const std::uint64_t rank = std::clamp<std::uint64_t>(
      static_cast<std::uint64_t>(std::ceil(0.95 * static_cast<double>(n))), 1, n);
  if (rank <= fresh()) return 0.0;
  if (rank <= fresh() + staleOne()) return 1.0;
  std::lock_guard<std::mutex> lock(over_mu_);
  std::vector<std::size_t> sorted = over_;
  std::sort(sorted.begin(), sorted.end());
  return static_cast<double>(sorted[rank - fresh() - staleOne() - 1]);
}

void observeEpochStaleness(runtime::MissionConfig& config, EpochStaleness& staleness) {
  config.decision_observer = [&staleness](std::size_t, std::size_t age) {
    staleness.record(age);
  };
}

void writeFleetJson(std::ostream& os, const FleetResult& result,
                    const std::string& catalog_label) {
  os << "{\n";
  os << "  \"schema\": \"roborun-fleet-v3\",\n";
  os << "  \"catalog\": \"" << jsonEscape(catalog_label) << "\",\n";
  // The intra-mission execution mode is a deterministic, result-shaping
  // config (unlike --threads, which this document must be invariant
  // to), so it belongs in the replayable report: the base mode here, each
  // case's effective mode on its row (the pipeline_async dial can differ).
  os << "  \"pipeline\": \"" << runtime::executionModeName(result.pipeline) << "\",\n";
  os << "  \"scenarios\": " << result.shards.size() << ",\n";
  os << "  \"missions\": " << result.rows.size() << ",\n";
  os << "  \"shards\": [\n";
  for (std::size_t i = 0; i < result.shards.size(); ++i) {
    const ShardAggregate& s = result.shards[i];
    const double n = s.missions == 0 ? 1.0 : static_cast<double>(s.missions);
    os << "    {\"scenario\": \"" << jsonEscape(s.scenario) << "\", \"missions\": " << s.missions
       << ", \"reached_goal\": " << s.reached << ", \"collided\": " << s.collided
       << ", \"timed_out\": " << s.timed_out
       << ", \"battery_depleted\": " << s.battery_depleted
       << ", \"wall_aborted\": " << s.wall_aborted
       << ", \"crashed\": " << s.crashed
       << ", \"decisions\": " << s.decisions << ", \"replans\": " << s.replans
       << ", \"mean_mission_time\": " << jsonNumber(s.mission_time / n)
       << ", \"mean_velocity\": " << jsonNumber(s.mean_velocity)
       << ", \"total_distance\": " << jsonNumber(s.distance)
       << ", \"total_flight_energy\": " << jsonNumber(s.flight_energy)
       << ", \"total_compute_energy\": " << jsonNumber(s.compute_energy) << "}"
       << (i + 1 < result.shards.size() ? "," : "") << "\n";
  }
  os << "  ],\n";
  os << "  \"rows\": [\n";
  for (std::size_t i = 0; i < result.rows.size(); ++i) {
    const MissionCase& c = result.cases[i];
    const runtime::MissionResult& r = result.rows[i].result;
    os << "    {\"scenario\": \"" << jsonEscape(c.scenario) << "\", \"case\": \"" << jsonEscape(c.label)
       << "\", \"env\": \"" << c.env.label() << "\", \"design\": \""
       << runtime::designName(c.design) << "\", \"mission_seed\": " << c.config.seed
       << ", \"movers\": " << c.config.dynamic_obstacles.size()
       << ", \"pipeline\": \"" << runtime::executionModeName(c.config.pipeline.execution)
       << "\""
       << ", \"status\": \"" << runtime::missionStatusName(r.status) << "\""
       << ", \"reached_goal\": " << (r.reached_goal() ? "true" : "false")
       << ", \"collided\": " << (r.collided() ? "true" : "false")
       << ", \"timed_out\": " << (r.timed_out() ? "true" : "false")
       << ", \"battery_depleted\": " << (r.battery_depleted() ? "true" : "false")
       << ", \"mission_time\": " << jsonNumber(r.mission_time)
       << ", \"distance\": " << jsonNumber(r.distance_traveled)
       << ", \"avg_velocity\": " << jsonNumber(r.averageVelocity())
       << ", \"median_latency\": " << jsonNumber(r.medianLatency())
       << ", \"flight_energy\": " << jsonNumber(r.flight_energy)
       << ", \"compute_energy\": " << jsonNumber(r.compute_energy)
       << ", \"decisions\": " << r.decisions() << ", \"replans\": " << r.replans()
       << ", \"attempts\": " << result.rows[i].attempts << "}"
       << (i + 1 < result.rows.size() ? "," : "") << "\n";
  }
  os << "  ],\n";
  // Infrastructure failures (Crashed / AbortedWallDeadline after all
  // retries), in case-index order — the quarantine list a fleet operator
  // acts on. Deterministic like the rest of the document: which cases fail,
  // their final status, attempt counts and error strings are all replayable.
  std::vector<std::size_t> failed;
  for (std::size_t i = 0; i < result.rows.size(); ++i)
    if (runtime::missionStatusIsInfrastructureFailure(result.rows[i].result.status))
      failed.push_back(i);
  os << "  \"failures\": [\n";
  for (std::size_t k = 0; k < failed.size(); ++k) {
    const std::size_t i = failed[k];
    const MissionCase& c = result.cases[i];
    const FleetRow& row = result.rows[i];
    os << "    {\"case\": " << i << ", \"scenario\": \"" << jsonEscape(c.scenario)
       << "\", \"label\": \"" << jsonEscape(c.label) << "\", \"design\": \""
       << runtime::designName(c.design) << "\", \"mission_seed\": " << c.config.seed
       << ", \"status\": \"" << runtime::missionStatusName(row.result.status) << "\""
       << ", \"attempts\": " << row.attempts
       << ", \"error\": \"" << jsonEscape(row.error) << "\"}"
       << (k + 1 < failed.size() ? "," : "") << "\n";
  }
  os << "  ]\n";
  os << "}\n";
}

namespace {

/// One per-case wall series as {count, mean, p50, p95, p99, max, sum}: the
/// shape every stage-wall consumer (dashboards, trend diffing) reads. The
/// percentiles are geom::percentile's, exact over the recorded walls.
void writeStage(std::ostream& os, const std::vector<double>& walls, int decimals) {
  const double sum = std::accumulate(walls.begin(), walls.end(), 0.0);
  const bool empty = walls.empty();
  const double mean = empty ? 0.0 : sum / static_cast<double>(walls.size());
  const auto pct = [&](double p) { return empty ? 0.0 : geom::percentile(walls, p); };
  os << "{\"count\": " << walls.size() << ", \"mean\": " << jsonNumber(mean, decimals)
     << ", \"p50\": " << jsonNumber(pct(0.50), decimals)
     << ", \"p95\": " << jsonNumber(pct(0.95), decimals)
     << ", \"p99\": " << jsonNumber(pct(0.99), decimals)
     << ", \"max\": " << jsonNumber(empty ? 0.0 : geom::maxOf(walls), decimals)
     << ", \"sum\": " << jsonNumber(sum, decimals) << "}";
}

}  // namespace

void writeFleetBenchJson(std::ostream& os, const FleetResult& result,
                         const std::string& catalog_label,
                         const EpochStaleness& epochs) {
  const core::EngineStats& engine = result.engine;
  const store::StoreStats& store = result.store;
  std::vector<double> mission_wall, plan_wall, decision_wall;
  std::uint64_t decisions = 0;
  for (const FleetRow& row : result.rows) {
    mission_wall.push_back(row.wall_ms);
    plan_wall.push_back(row.result.planner_wall_ms);
    decision_wall.push_back(row.result.decision_wall_ms);
    decisions += row.result.decisions();
  }
  os << "{\n";
  os << "  \"schema\": \"roborun-fleet-throughput-v2\",\n";
  os << "  \"catalog\": \"" << jsonEscape(catalog_label) << "\",\n";
  os << "  \"threads\": " << result.threads << ",\n";
  os << "  \"pipeline\": \"" << runtime::executionModeName(result.pipeline) << "\",\n";
  os << "  \"scenarios\": " << result.shards.size() << ",\n";
  os << "  \"missions\": " << result.rows.size() << ",\n";
  os << "  \"wall_s\": " << jsonNumber(result.wall_s) << ",\n";
  os << "  \"missions_per_sec\": " << jsonNumber(result.missions_per_sec, 3) << ",\n";
  os << "  \"engine\": {\n";
  os << "    \"decisions\": " << engine.decisions << ",\n";
  os << "    \"profile_builds\": " << engine.profile_builds << "\n";
  os << "  },\n";
  // Store traffic is a MEASUREMENT (which lookups hit depends on what some
  // earlier run inserted), so it lives here and never in the result
  // document — the --out report stays byte-identical warm or cold.
  os << "  \"store\": {\n";
  os << "    \"enabled\": " << (result.store_enabled ? "true" : "false") << ",\n";
  os << "    \"lookups\": " << store.lookups << ",\n";
  os << "    \"hits\": " << store.hits() << ",\n";
  os << "    \"misses\": " << store.misses << ",\n";
  os << "    \"hit_rate\": " << jsonNumber(store.hitRate(), 4) << ",\n";
  os << "    \"inserts\": " << store.inserts << ",\n";
  os << "    \"readonly_skips\": " << store.readonly_skips << ",\n";
  os << "    \"corrupt_rejected\": " << store.corrupt_rejected << "\n";
  os << "  },\n";
  // Governor throughput in mission: decisions over the summed governor
  // wall of every case (0 when nothing decided, never NaN).
  const double decision_s =
      std::accumulate(decision_wall.begin(), decision_wall.end(), 0.0) / 1000.0;
  os << "  \"timing\": {\n";
  os << "    \"total_decisions\": " << decisions << ",\n";
  os << "    \"decisions_per_sec\": "
     << jsonNumber(decision_s > 0.0 ? static_cast<double>(decisions) / decision_s : 0.0, 1)
     << ",\n";
  os << "    \"stages\": {\n";
  os << "      \"mission_wall_ms\": ";
  writeStage(os, mission_wall, 3);
  os << ",\n      \"plan_wall_ms\": ";
  writeStage(os, plan_wall, 3);
  os << ",\n      \"decision_wall_ms\": ";
  writeStage(os, decision_wall, 4);
  os << "\n    },\n";
  // The async executor's bounded-staleness contract, per epoch: fresh or
  // stale by one; stale_over would be a violation.
  os << "    \"epoch_staleness\": {\"epochs\": " << epochs.epochs()
     << ", \"fresh\": " << epochs.fresh()
     << ", \"stale_one\": " << epochs.staleOne()
     << ", \"stale_over\": " << epochs.staleOver()
     << ", \"mean\": " << jsonNumber(epochs.mean(), 4)
     << ", \"p95\": " << jsonNumber(epochs.p95(), 4) << "},\n";
  os << "    \"cases\": [\n";
  for (std::size_t i = 0; i < result.rows.size(); ++i) {
    const FleetRow& row = result.rows[i];
    os << "      {\"case\": " << i << ", \"wall_ms\": " << jsonNumber(row.wall_ms, 3)
       << ", \"plan_wall_ms\": " << jsonNumber(row.result.planner_wall_ms, 3)
       << ", \"decision_wall_ms\": " << jsonNumber(row.result.decision_wall_ms, 3) << "}"
       << (i + 1 < result.rows.size() ? "," : "") << "\n";
  }
  os << "    ]\n";
  os << "  }\n";
  os << "}\n";
}

}  // namespace roborun::scenario
