// Content-addressed mission result store — the "substituter" model, after
// Nix's binary cache.
//
// Every MissionCase is a deterministic bit pattern (scenario::describeCases
// dumps it exactly) and every MissionResult is bitwise reproducible under
// the fleet's replay contract, so a fleet serving heavy repeat traffic
// (the same scenario family + seed + dials re-run by millions of users)
// can short-circuit a repeated case to a store lookup instead of a full
// mission:
//
//   key    = 128-bit FNV-1a/splitmix hash of (the case's exact
//            describeCases() bit pattern, an engine/config version stamp)
//   value  = serialized MissionResult + the fleet row's deterministic
//            attempt count (mission_serde.h) — everything the
//            deterministic fleet report row is derived from
//
// Layout on disk, one record per key plus narinfo-style metadata:
//
//   <dir>/<keyhex>.narinfo   text metadata: store schema version, key
//                            provenance (the version stamp and the byte
//                            length of the case description that produced
//                            the key), payload byte length + FNV checksum
//   <dir>/<keyhex>.result    the binary payload
//
// The record files are the store's only tier: every lookup reads them, so
// a result inserted earlier in the same process is served from disk too.
//
// Contracts:
//   * a store hit is bit-identical to running the mission, so a warm-store
//     fleet run emits a byte-identical --out report to a cold one at any
//     thread count (a hit does not depend on dispatch order; pinned by
//     result_store_test at 1, 4 and 16 threads);
//   * bumping the version stamp changes every key — the invalidation
//     discipline for engine/config changes that alter mission results;
//   * a corrupt or truncated record is NEVER an error: lookup reports a
//     miss (counted in StoreStats::corrupt_rejected), the fleet re-runs
//     the mission, and a clean insert overwrites the bad record;
//   * only missions that ran to a simulated conclusion are cached —
//     infrastructure failures (Crashed / AbortedWallDeadline) describe one
//     run's infrastructure, not the mission, and always bypass the store.
//
// Thread safety: all public methods are internally locked; fleet workers
// share one instance.
#pragma once

#include <cstdint>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>
#include <unordered_set>

#include "store/mission_serde.h"

namespace roborun::store {

/// Store schema version, written to every narinfo record. Distinct from
/// the caller's version stamp: this guards the store's own file layout,
/// the stamp guards the meaning of the cached results.
inline constexpr int kStoreSchemaVersion = 1;

/// The engine-version half of the default key stamp. Bump whenever an
/// engine/runtime change alters any mission's deterministic result — every
/// key changes, so stale results can never be served.
inline constexpr const char* kEngineVersionStamp = "roborun-engine-v9";

/// The conventional stamp for a store keyed against a named base-config
/// preset ("smoke", "test", "default"): the case description does not
/// cover fidelity settings (sensor rays, planner iterations, timeouts come
/// from the base config), so the preset name must be part of the key.
std::string defaultVersionStamp(const std::string& config_label);

/// 128-bit content-address key.
struct StoreKey {
  std::uint64_t hi = 0;
  std::uint64_t lo = 0;

  bool operator==(const StoreKey& o) const { return hi == o.hi && lo == o.lo; }
  /// 32 lowercase hex chars — the on-disk record name.
  std::string hex() const;
};

/// Store traffic counters, read directly by fleet reports and benches (a
/// plain struct is the whole stats API).
struct StoreStats {
  std::uint64_t lookups = 0;        ///< every lookup is a hit or a miss
  std::uint64_t misses = 0;         ///< no record (or rejected record)
  std::uint64_t inserts = 0;        ///< records written to disk
  std::uint64_t reinserts = 0;      ///< key already stored; write skipped
  std::uint64_t readonly_skips = 0; ///< insert blocked by readonly mode
  std::uint64_t insert_failures = 0;///< I/O errors while writing
  std::uint64_t corrupt_rejected = 0;  ///< bad narinfo/payload treated as miss

  /// Lookups decoded from a record file.
  std::uint64_t hits() const { return lookups - misses; }
  double hitRate() const {
    return lookups == 0 ? 0.0 : static_cast<double>(hits()) / static_cast<double>(lookups);
  }
  /// this - since, field-wise (for per-run deltas of a long-lived store).
  StoreStats minus(const StoreStats& since) const;
};

class ResultStore {
 public:
  struct Config {
    std::string dir;           ///< record directory (created on demand)
    std::string version;       ///< engine/config version stamp (keys it)
    bool readonly = false;     ///< serve lookups, never write records
  };

  explicit ResultStore(Config config);

  /// Content address of a case description under this store's version
  /// stamp. Pure function of (stamp, description) — stable across runs,
  /// processes and platforms.
  StoreKey keyFor(const std::string& case_description) const;

  /// Fetch a stored result. nullopt = miss (absent, corrupt, or
  /// truncated record — never throws).
  std::optional<StoredResult> lookup(const StoreKey& key);

  /// Persist a result. A readonly store skips the write (counted in
  /// StoreStats::readonly_skips), so a later lookup of the key misses
  /// unless a record was already on disk.
  /// Returns false only on I/O failure.
  bool insert(const StoreKey& key, const StoredResult& value,
              std::size_t case_description_bytes = 0);

  StoreStats stats() const;
  const Config& config() const { return config_; }

 private:
  bool readRecord(const StoreKey& key, StoredResult& out);
  std::string recordPath(const StoreKey& key) const;
  std::string narinfoPath(const StoreKey& key) const;

  Config config_;
  mutable std::mutex mutex_;
  StoreStats stats_;
  struct KeyHash {
    std::size_t operator()(const StoreKey& k) const {
      return static_cast<std::size_t>(k.hi ^ (k.lo * 0x9e3779b97f4a7c15ULL));
    }
  };
  // Keys whose on-disk record this instance rejected as corrupt: the one
  // case where insert overwrites an existing record instead of trusting
  // first-writer-wins (content-addressing makes healthy records immutable,
  // corrupt ones must be repairable).
  std::unordered_set<StoreKey, KeyHash> repair_;
};

}  // namespace roborun::store
