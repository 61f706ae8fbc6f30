#include "scenario/fleet_report.h"

#include <ostream>
#include <vector>

#include "obs/json.h"

namespace roborun::scenario {

using obs::jsonEscape;
using obs::jsonNumber;

void observeEpochStaleness(runtime::MissionConfig& config,
                           obs::MetricsRegistry& registry) {
  // Resolved once: workers then record through lock-free relaxed atomics.
  obs::Histogram* staleness = &registry.histogram("epoch_staleness");
  obs::Counter* fresh = &registry.counter("epoch_staleness_fresh");
  obs::Counter* stale_one = &registry.counter("epoch_staleness_stale_one");
  obs::Counter* stale_over = &registry.counter("epoch_staleness_stale_over");
  config.decision_observer = [=](std::size_t, std::size_t age) {
    staleness->record(static_cast<double>(age));
    (age == 0 ? fresh : age == 1 ? stale_one : stale_over)->add();
  };
}

obs::MetricsSnapshot fleetMetricsSnapshot(const FleetResult& result,
                                          const obs::MetricsSnapshot& epochs) {
  obs::MetricsRegistry registry;
  core::exportStats(result.engine, registry, "engine");
  store::exportStats(result.store, registry, "store");
  registry.gauge("fleet.wall_s").set(result.wall_s);
  registry.gauge("fleet.missions_per_sec").set(result.missions_per_sec);
  registry.counter("fleet.missions").add(result.rows.size());
  obs::Histogram& mission_wall = registry.histogram("fleet.mission_wall_ms");
  obs::Histogram& plan_wall = registry.histogram("fleet.plan_wall_ms");
  obs::Histogram& decision_wall = registry.histogram("fleet.decision_wall_ms");
  obs::Counter& decisions = registry.counter("fleet.decisions");
  for (const FleetRow& row : result.rows) {
    mission_wall.record(row.wall_ms);
    plan_wall.record(row.result.planner_wall_ms);
    decision_wall.record(row.result.decision_wall_ms);
    decisions.add(row.result.decisions());
  }
  obs::MetricsSnapshot snapshot = registry.snapshot();
  snapshot.counters.insert(epochs.counters.begin(), epochs.counters.end());
  snapshot.gauges.insert(epochs.gauges.begin(), epochs.gauges.end());
  snapshot.histograms.insert(epochs.histograms.begin(), epochs.histograms.end());
  return snapshot;
}

void writeFleetJson(std::ostream& os, const FleetResult& result,
                    const std::string& catalog_label) {
  os << "{\n";
  os << "  \"schema\": \"roborun-fleet-v3\",\n";
  os << "  \"catalog\": \"" << jsonEscape(catalog_label) << "\",\n";
  // The intra-mission execution mode is a deterministic, result-shaping
  // config (unlike --threads/--mode, which this document must be invariant
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

obs::HistogramSummary histogramOr(const obs::MetricsSnapshot& m,
                                  const std::string& name) {
  const auto it = m.histograms.find(name);
  return it == m.histograms.end() ? obs::HistogramSummary{} : it->second;
}

/// One wall histogram as {count, mean, p50, p95, p99, max, sum}: the shape
/// every stage-wall consumer (dashboards, trend diffing) reads. Percentiles
/// are bucket-quantized (obs/metrics_registry.h).
void writeStage(std::ostream& os, const obs::HistogramSummary& h, int decimals) {
  os << "{\"count\": " << h.count << ", \"mean\": " << jsonNumber(h.mean(), decimals)
     << ", \"p50\": " << jsonNumber(h.p50, decimals)
     << ", \"p95\": " << jsonNumber(h.p95, decimals)
     << ", \"p99\": " << jsonNumber(h.p99, decimals)
     << ", \"max\": " << jsonNumber(h.max, decimals)
     << ", \"sum\": " << jsonNumber(h.sum, decimals) << "}";
}

}  // namespace

void writeFleetBenchJson(std::ostream& os, const FleetResult& result,
                         const std::string& catalog_label,
                         const obs::MetricsSnapshot& epochs) {
  // Every engine/store number below reads from the SAME adapted snapshot
  // fleet_runner's stderr summary prints — one measurement source, two
  // renderings, no drift.
  const obs::MetricsSnapshot m = fleetMetricsSnapshot(result, epochs);
  auto c = [&](const char* name) { return m.counterOr(name, 0); };
  os << "{\n";
  os << "  \"schema\": \"roborun-fleet-throughput-v1\",\n";
  os << "  \"catalog\": \"" << jsonEscape(catalog_label) << "\",\n";
  os << "  \"threads\": " << result.threads << ",\n";
  os << "  \"mode\": \"" << dispatchModeName(result.mode) << "\",\n";
  os << "  \"pipeline\": \"" << runtime::executionModeName(result.pipeline) << "\",\n";
  os << "  \"scenarios\": " << result.shards.size() << ",\n";
  os << "  \"missions\": " << result.rows.size() << ",\n";
  os << "  \"wall_s\": " << jsonNumber(m.gaugeOr("fleet.wall_s", 0.0)) << ",\n";
  os << "  \"missions_per_sec\": "
     << jsonNumber(m.gaugeOr("fleet.missions_per_sec", 0.0), 3) << ",\n";
  os << "  \"engine\": {\n";
  os << "    \"shared\": " << (result.engine_shared ? "true" : "false") << ",\n";
  os << "    \"decisions\": " << c("engine.decisions") << ",\n";
  os << "    \"solver_memo_hits\": " << c("engine.solver_memo_hits") << ",\n";
  os << "    \"solver_memo_misses\": " << c("engine.solver_memo_misses") << ",\n";
  os << "    \"solver_memo_hit_rate\": "
     << jsonNumber(m.gaugeOr("engine.solver_memo_hit_rate", 0.0), 4) << ",\n";
  os << "    \"profile_builds\": " << c("engine.profile_builds") << "\n";
  os << "  },\n";
  // Store traffic is a MEASUREMENT (which lookups hit depends on what some
  // earlier run inserted), so it lives here and never in the result
  // document — the --out report stays byte-identical warm or cold.
  os << "  \"store\": {\n";
  os << "    \"enabled\": " << (result.store_enabled ? "true" : "false") << ",\n";
  os << "    \"lookups\": " << c("store.lookups") << ",\n";
  os << "    \"hits\": " << c("store.hits") << ",\n";
  os << "    \"hits_memory\": " << c("store.hits_memory") << ",\n";
  os << "    \"hits_disk\": " << c("store.hits_disk") << ",\n";
  os << "    \"misses\": " << c("store.misses") << ",\n";
  os << "    \"hit_rate\": " << jsonNumber(m.gaugeOr("store.hit_rate", 0.0), 4) << ",\n";
  os << "    \"inserts\": " << c("store.inserts") << ",\n";
  os << "    \"readonly_skips\": " << c("store.readonly_skips") << ",\n";
  os << "    \"corrupt_rejected\": " << c("store.corrupt_rejected") << "\n";
  os << "  },\n";
  // Governor throughput in mission: decisions over the summed governor
  // wall of every case (0 when nothing decided, never NaN).
  const obs::HistogramSummary decision_wall = histogramOr(m, "fleet.decision_wall_ms");
  const obs::HistogramSummary age = histogramOr(m, "epoch_staleness");
  const double decision_s = decision_wall.sum / 1000.0;
  const double decisions = static_cast<double>(c("fleet.decisions"));
  os << "  \"timing\": {\n";
  os << "    \"total_decisions\": " << c("fleet.decisions") << ",\n";
  os << "    \"decisions_per_sec\": "
     << jsonNumber(decision_s > 0.0 ? decisions / decision_s : 0.0, 1)
     << ",\n";
  os << "    \"stages\": {\n";
  os << "      \"mission_wall_ms\": ";
  writeStage(os, histogramOr(m, "fleet.mission_wall_ms"), 3);
  os << ",\n      \"plan_wall_ms\": ";
  writeStage(os, histogramOr(m, "fleet.plan_wall_ms"), 3);
  os << ",\n      \"decision_wall_ms\": ";
  writeStage(os, decision_wall, 4);
  os << "\n    },\n";
  // The async executor's bounded-staleness contract, per epoch: fresh or
  // stale by one; stale_over would be a violation.
  os << "    \"epoch_staleness\": {\"epochs\": " << age.count
     << ", \"fresh\": " << c("epoch_staleness_fresh")
     << ", \"stale_one\": " << c("epoch_staleness_stale_one")
     << ", \"stale_over\": " << c("epoch_staleness_stale_over")
     << ", \"mean\": " << jsonNumber(age.mean(), 4)
     << ", \"p95\": " << jsonNumber(age.p95, 4) << "},\n";
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
