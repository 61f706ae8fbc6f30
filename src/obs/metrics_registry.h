// The metrics half of the observability spine: named counters, gauges
// and fixed-bucket log-scale histograms behind one snapshot/delta API.
//
// Design point — "lock-cheap": the registry's name→metric map is guarded
// by a mutex, but instrumented code resolves a metric ONCE and then
// updates it through lock-free relaxed atomics. A histogram record is
// two relaxed fetch_adds plus (rarely) a min/max CAS; a counter add is
// one. Nothing here synchronizes-with the code being measured, and
// nothing here is on any deterministic path: metrics are measurements,
// strictly outside the bitwise replay contract.
//
// The histogram is the aggregation primitive that replaces the
// hand-rolled mean-only timing fields the batch harnesses used to carry.
// Buckets are log-spaced (8 per decade over 12 decades,
// [1e-6, 1e6) in whatever unit the caller records — ms for every wall
// histogram in the tree) with explicit underflow/overflow buckets.
// Percentiles are EXACT in rank (nearest-rank over the recorded counts)
// and bucket-quantized in value: percentile() returns the upper edge of
// the bucket holding the ranked sample, clamped into the exactly-tracked
// [min, max] — so p50/p95/p99 are reproducible functions of the recorded
// multiset, never of insertion order or thread interleaving, and the
// quantization error is bounded by one bucket ratio (10^(1/8) ≈ 1.334x).
#pragma once

#include <atomic>
#include <cstdint>
#include <limits>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

namespace roborun::obs {

class Counter {
 public:
  void add(std::uint64_t n = 1) { value_.fetch_add(n, std::memory_order_relaxed); }
  std::uint64_t value() const { return value_.load(std::memory_order_relaxed); }

 private:
  std::atomic<std::uint64_t> value_{0};
};

class Gauge {
 public:
  void set(double v) { value_.store(v, std::memory_order_relaxed); }
  double value() const { return value_.load(std::memory_order_relaxed); }

 private:
  std::atomic<double> value_{0.0};
};

/// Everything a histogram knows, detached from the atomics: the snapshot
/// form used by reports and by delta math.
struct HistogramSummary {
  std::uint64_t count = 0;
  double sum = 0.0;
  double min = 0.0;  // exact for live summaries; bucket edges after delta()
  double max = 0.0;
  double p50 = 0.0;
  double p95 = 0.0;
  double p99 = 0.0;
  std::vector<std::uint64_t> buckets;

  double mean() const { return count == 0 ? 0.0 : sum / static_cast<double>(count); }
};

class Histogram {
 public:
  static constexpr int kBucketsPerDecade = 8;
  static constexpr int kDecades = 12;
  static constexpr double kLo = 1e-6;
  /// Index 0 is the underflow bucket (v < kLo), indexes 1..96 the log
  /// ladder, the last index the overflow bucket (v >= kLo * 10^12).
  static constexpr int kBuckets = kBucketsPerDecade * kDecades + 2;

  /// Lower-inclusive bucket assignment: bucket i (1..96) holds
  /// [edge(i-1), edge(i)) with edge(i) = kLo * 10^(i/8).
  static int bucketIndex(double v);
  /// The upper edge of bucket i (the value percentiles quantize to).
  static double bucketUpperEdge(int i);

  void record(double v);
  std::uint64_t count() const { return count_.load(std::memory_order_relaxed); }

  /// Rank-exact, bucket-quantized percentile of everything recorded so
  /// far (p in [0, 100]); 0 when empty. See the header comment for the
  /// exactness contract.
  double percentile(double p) const;

  HistogramSummary summary() const;

 private:
  std::atomic<std::uint64_t> buckets_[kBuckets] = {};
  std::atomic<std::uint64_t> count_{0};
  std::atomic<double> sum_{0.0};
  std::atomic<double> min_{std::numeric_limits<double>::infinity()};
  std::atomic<double> max_{-std::numeric_limits<double>::infinity()};
};

/// Percentile over a detached bucket array with an explicit value clamp —
/// the shared kernel behind Histogram::percentile and delta summaries.
double bucketPercentile(const std::vector<std::uint64_t>& buckets,
                        std::uint64_t count, double p, double min_clamp,
                        double max_clamp);

/// A point-in-time copy of a registry (or of adapted legacy stat structs —
/// see core::exportStats / store::exportStats). Ordered maps so any
/// serialization of a snapshot is deterministic in iteration order.
struct MetricsSnapshot {
  std::map<std::string, std::uint64_t> counters;
  std::map<std::string, double> gauges;
  std::map<std::string, HistogramSummary> histograms;

  std::uint64_t counterOr(std::string_view name, std::uint64_t fallback) const;
  double gaugeOr(std::string_view name, double fallback) const;

  /// What happened between `earlier` and this snapshot: counters and
  /// histogram buckets/count/sum subtract (clamped at zero — a metric
  /// absent earlier counts as zero), histogram percentiles are recomputed
  /// from the delta buckets (min/max degrade to bucket edges: the exact
  /// extrema of just the delta window were never stored), and gauges are
  /// taken from this (later) snapshot — a gauge is a level, not a flow.
  MetricsSnapshot delta(const MetricsSnapshot& earlier) const;
};

class MetricsRegistry {
 public:
  /// Resolve (creating on first use) a named metric. Resolution takes the
  /// registry mutex; hold the returned reference and update through it —
  /// references stay valid for the registry's lifetime.
  Counter& counter(std::string_view name);
  Gauge& gauge(std::string_view name);
  Histogram& histogram(std::string_view name);

  MetricsSnapshot snapshot() const;

 private:
  mutable std::mutex mu_;
  std::map<std::string, std::unique_ptr<Counter>, std::less<>> counters_;
  std::map<std::string, std::unique_ptr<Gauge>, std::less<>> gauges_;
  std::map<std::string, std::unique_ptr<Histogram>, std::less<>> histograms_;
};

}  // namespace roborun::obs
