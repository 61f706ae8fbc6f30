#include "store/result_store.h"

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "runtime/parse_number.h"

namespace roborun::store {

namespace {

/// FNV-1a 64 over arbitrary bytes, from a caller-chosen basis so the key's
/// two lanes are independent hashes of the same data.
std::uint64_t fnv1a64(std::string_view data, std::uint64_t basis) {
  std::uint64_t h = basis;
  for (const char c : data) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001b3ULL;
  }
  return h;
}

constexpr std::uint64_t kFnvBasis = 0xcbf29ce484222325ULL;

/// splitmix64 finalizer — scrambles the FNV lanes so near-identical inputs
/// (one dial bit apart) land far apart in key space.
std::uint64_t mix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

}  // namespace

std::string defaultVersionStamp(const std::string& config_label) {
  return std::string(kEngineVersionStamp) + "/config=" + config_label;
}

std::string StoreKey::hex() const {
  char buf[33];
  std::snprintf(buf, sizeof(buf), "%016llx%016llx",
                static_cast<unsigned long long>(hi), static_cast<unsigned long long>(lo));
  return std::string(buf, 32);
}

StoreStats StoreStats::minus(const StoreStats& since) const {
  StoreStats d;
  d.lookups = lookups - since.lookups;
  d.misses = misses - since.misses;
  d.inserts = inserts - since.inserts;
  d.reinserts = reinserts - since.reinserts;
  d.readonly_skips = readonly_skips - since.readonly_skips;
  d.insert_failures = insert_failures - since.insert_failures;
  d.corrupt_rejected = corrupt_rejected - since.corrupt_rejected;
  return d;
}

ResultStore::ResultStore(Config config) : config_(std::move(config)) {}

StoreKey ResultStore::keyFor(const std::string& case_description) const {
  // The version stamp is hashed WITH the description (not concatenated
  // around it) so "stamp ab"+"c" and "stamp a"+"bc" cannot collide.
  const std::uint64_t stamp_lo = fnv1a64(config_.version, kFnvBasis);
  const std::uint64_t stamp_hi = fnv1a64(config_.version, kFnvBasis ^ 0x5bd1e995ULL);
  StoreKey key;
  key.lo = mix64(fnv1a64(case_description, stamp_lo));
  key.hi = mix64(fnv1a64(case_description, mix64(stamp_hi)));
  return key;
}

std::string ResultStore::recordPath(const StoreKey& key) const {
  return config_.dir + "/" + key.hex() + ".result";
}

std::string ResultStore::narinfoPath(const StoreKey& key) const {
  return config_.dir + "/" + key.hex() + ".narinfo";
}

bool ResultStore::readRecord(const StoreKey& key, StoredResult& out) {
  // caller holds mutex_. Any structural problem — unreadable/malformed
  // narinfo, length or checksum mismatch, undecodable payload — is counted
  // as corruption and reported as a miss; the store never throws.
  std::ifstream info(narinfoPath(key));
  if (!info) return false;  // plain absence, not corruption

  std::uint64_t schema = 0, result_bytes = 0, result_hash = 0;
  bool saw_schema = false, saw_bytes = false, saw_hash = false;
  std::string line;
  bool malformed = false;
  while (std::getline(info, line)) {
    const std::size_t colon = line.find(": ");
    if (colon == std::string::npos) {
      if (!line.empty()) malformed = true;
      continue;
    }
    const std::string field = line.substr(0, colon);
    const std::string value = line.substr(colon + 2);
    if (field == "StoreVersion") {
      saw_schema = runtime::parseNumber(value, schema);
      malformed |= !saw_schema;
    } else if (field == "ResultBytes") {
      saw_bytes = runtime::parseNumber(value, result_bytes);
      malformed |= !saw_bytes;
    } else if (field == "ResultHash") {
      std::uint64_t parsed = 0;
      const auto [ptr, ec] =
          std::from_chars(value.data(), value.data() + value.size(), parsed, 16);
      saw_hash = ec == std::errc{} && ptr == value.data() + value.size();
      malformed |= !saw_hash;
      result_hash = parsed;
    }
    // Key / Version / CaseBytes are provenance for humans and audits;
    // lookups don't depend on them. Unknown fields are ignored so newer
    // writers stay readable.
  }
  if (malformed || !saw_schema || !saw_bytes || !saw_hash ||
      schema != static_cast<std::uint64_t>(kStoreSchemaVersion)) {
    ++stats_.corrupt_rejected;
    repair_.insert(key);
    return false;
  }

  std::ifstream record(recordPath(key), std::ios::binary);
  if (!record) {
    ++stats_.corrupt_rejected;  // narinfo without its payload
    repair_.insert(key);
    return false;
  }
  std::ostringstream buf;
  buf << record.rdbuf();
  const std::string bytes = buf.str();
  if (bytes.size() != result_bytes || fnv1a64(bytes, kFnvBasis) != result_hash ||
      !deserializeStoredResult(bytes, out)) {
    ++stats_.corrupt_rejected;
    repair_.insert(key);
    return false;
  }
  return true;
}

std::optional<StoredResult> ResultStore::lookup(const StoreKey& key) {
  std::lock_guard<std::mutex> lock(mutex_);
  ++stats_.lookups;
  StoredResult value;
  if (readRecord(key, value)) return value;
  ++stats_.misses;
  return std::nullopt;
}

bool ResultStore::insert(const StoreKey& key, const StoredResult& value,
                         std::size_t case_description_bytes) {
  std::lock_guard<std::mutex> lock(mutex_);
  if (config_.readonly) {
    ++stats_.readonly_skips;
    return true;
  }
  std::error_code ec;
  // Content-addressed: an existing record for this key holds the same
  // bytes, so first-writer-wins keeps concurrent fleets cheap — UNLESS
  // this instance rejected the record as corrupt, in which case the fresh
  // result repairs it in place.
  const bool repairing = repair_.erase(key) > 0;
  if (!repairing && std::filesystem::exists(narinfoPath(key), ec)) {
    ++stats_.reinserts;
    return true;
  }
  std::filesystem::create_directories(config_.dir, ec);  // best effort

  const std::string bytes = serializeStoredResult(value);
  // Write payload then metadata, each through a same-directory temp file +
  // atomic rename: a reader never observes a half-written record, and a
  // narinfo only becomes visible once its payload is complete.
  const auto atomicWrite = [&](const std::string& path, const std::string& data,
                               bool binary) {
    const std::string tmp = path + ".tmp";
    {
      std::ofstream out(tmp, binary ? std::ios::binary : std::ios::out);
      if (!out || !(out << data)) return false;
      out.flush();
      if (!out) return false;
    }
    std::error_code rename_ec;
    std::filesystem::rename(tmp, path, rename_ec);
    if (rename_ec) {
      std::filesystem::remove(tmp, rename_ec);
      return false;
    }
    return true;
  };

  std::ostringstream info;
  info << "StoreVersion: " << kStoreSchemaVersion << "\n";
  info << "Key: " << key.hex() << "\n";
  info << "Version: " << config_.version << "\n";
  info << "CaseBytes: " << case_description_bytes << "\n";
  info << "ResultBytes: " << bytes.size() << "\n";
  char hash_hex[17];
  std::snprintf(hash_hex, sizeof(hash_hex), "%016llx",
                static_cast<unsigned long long>(fnv1a64(bytes, kFnvBasis)));
  info << "ResultHash: " << hash_hex << "\n";

  if (!atomicWrite(recordPath(key), bytes, true) ||
      !atomicWrite(narinfoPath(key), info.str(), false)) {
    ++stats_.insert_failures;
    return false;
  }
  ++stats_.inserts;
  return true;
}

StoreStats ResultStore::stats() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return stats_;
}

}  // namespace roborun::store
