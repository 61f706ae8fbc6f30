// Fleet JSON reports — shared by fleet_runner, bench_fleet_throughput and
// the CTest smokes.
//
// Two documents with two contracts:
//
//   writeFleetJson       the RESULT document: only deterministic fields
//                        (case identity, mission metrics, shard
//                        aggregates). Byte-identical for any --threads
//                        value and either dispatch mode on the same
//                        catalog — diff it freely.
//   writeFleetBenchJson  the MEASUREMENT document: wall times, missions/s,
//                        dispatch shape, shared-engine counters (memo
//                        hit-rate across tenants), the mission / plan /
//                        decision wall histograms, the epoch staleness
//                        split and every case's walls. Varies run to run,
//                        like every wall field in this repo.
#pragma once

#include <iosfwd>
#include <string>

#include "obs/metrics_registry.h"
#include "scenario/fleet_scheduler.h"

namespace roborun::scenario {

/// Record every epoch's map-snapshot staleness into `registry` through
/// `config`'s decision_observer: the "epoch_staleness" histogram plus the
/// "epoch_staleness_fresh" / "_stale_one" / "_stale_over" counters. Always
/// fresh under the sync pipeline; async bounds it by one, so a stale_over
/// count is a contract violation. A measurement: results are identical with
/// or without the observer (runtime/mission.h). `registry` must outlive
/// every mission flown with `config` or a copy of it.
void observeEpochStaleness(runtime::MissionConfig& config,
                           obs::MetricsRegistry& registry);

/// The fleet run's measurement side, adapted into the observability
/// snapshot: engine counters under "engine.*", store traffic under
/// "store.*", "fleet.*" gauges (wall_s, missions_per_sec), the
/// "fleet.decisions" counter and per-case wall histograms
/// ("fleet.mission_wall_ms", "fleet.plan_wall_ms", "fleet.decision_wall_ms"),
/// merged with `epochs` (observeEpochStaleness's registry, when the run
/// installed it). This is the ONE source both writeFleetBenchJson and
/// fleet_runner's stderr summary read, so the two surfaces can never drift
/// apart again.
obs::MetricsSnapshot fleetMetricsSnapshot(const FleetResult& result,
                                          const obs::MetricsSnapshot& epochs = {});

void writeFleetJson(std::ostream& os, const FleetResult& result,
                    const std::string& catalog_label);

void writeFleetBenchJson(std::ostream& os, const FleetResult& result,
                         const std::string& catalog_label,
                         const obs::MetricsSnapshot& epochs);

}  // namespace roborun::scenario
