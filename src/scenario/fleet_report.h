// Fleet JSON reports — written by fleet_runner, and rendered by the tests
// that pin their contracts.
//
// Two documents with two contracts:
//
//   writeFleetJson       the RESULT document: only deterministic fields
//                        (case identity, mission metrics, shard
//                        aggregates). Byte-identical for any --threads
//                        value on the same catalog — diff it freely.
//   writeFleetBenchJson  the MEASUREMENT document: wall times, missions/s,
//                        thread count, the FleetResult's engine and store
//                        counters, exact p50/p95/p99 of the per-case
//                        mission / plan / decision walls, the epoch
//                        staleness split and every case's walls. Varies
//                        run to run, like every wall field in this repo.
#pragma once

#include <atomic>
#include <cstdint>
#include <iosfwd>
#include <mutex>
#include <string>
#include <vector>

#include "scenario/fleet_scheduler.h"

namespace roborun::scenario {

/// Every epoch's map-snapshot staleness over a fleet run. Fleet workers
/// record concurrently: fresh and stale-by-one epochs are relaxed atomic
/// counts, and ages over one (a violation of the async executor's bound)
/// are kept under a lock, so mean() and p95() are exact.
class EpochStaleness {
 public:
  void record(std::size_t age);

  std::uint64_t fresh() const { return fresh_.load(std::memory_order_relaxed); }
  std::uint64_t staleOne() const { return stale_one_.load(std::memory_order_relaxed); }
  std::uint64_t staleOver() const;
  std::uint64_t epochs() const { return fresh() + staleOne() + staleOver(); }
  /// Mean age; 0 when no epoch was recorded.
  double mean() const;
  /// Nearest-rank 95th percentile age; 0 when no epoch was recorded.
  double p95() const;

 private:
  std::atomic<std::uint64_t> fresh_{0};
  std::atomic<std::uint64_t> stale_one_{0};
  mutable std::mutex over_mu_;
  std::vector<std::size_t> over_;  ///< every age > 1, in arrival order
};

/// Record every epoch's staleness into `staleness` through `config`'s
/// decision_observer. Always fresh under the sync pipeline; async bounds it
/// by one, so a stale_over count is a contract violation. A measurement:
/// results are identical with or without the observer (runtime/mission.h).
/// `staleness` must outlive every mission flown with `config` or a copy of
/// it.
void observeEpochStaleness(runtime::MissionConfig& config, EpochStaleness& staleness);

void writeFleetJson(std::ostream& os, const FleetResult& result,
                    const std::string& catalog_label);

void writeFleetBenchJson(std::ostream& os, const FleetResult& result,
                         const std::string& catalog_label,
                         const EpochStaleness& epochs);

}  // namespace roborun::scenario
