// Epoch-stamped span tracing — the observability spine's timeline half.
//
// A SpanRecorder collects begin/end intervals tagged with a FIXED stage
// taxonomy (the nine stages every mission-running surface in the tree
// decomposes into). Each span is stamped with:
//
//   lane   — a small process-wide thread id (the Chrome `tid`), assigned
//            lazily the first time a thread records; the async pipeline's
//            worker shows up as its own lane, which is what makes the
//            integrate/plan overlap *visible* in about:tracing.
//   epoch  — the decision epoch the instrumented code was serving, taken
//            from a thread-local set by the mission loop (main lane) or
//            by the EpochExecutor's worker (from the submitted task), so
//            a span records which sweep's work it timed even when that
//            work ran one epoch ahead on another thread.
//
// The overhead contract: every instrumentation site holds a raw
// `SpanRecorder*` and checks it for null BEFORE reading any clock,
// touching any atomic or writing any thread-local. Off means off — the
// hot path pays one predictable branch per site and nothing else.
// Recording is mutex-appended; tracing is a diagnostic mode, not a fast
// path, and a mutex keeps begin/end ids stable across threads.
//
// Spans are strictly OUTSIDE the bitwise replay contract: a recorder
// only ever reads steady_clock and appends to its own buffer, never
// touching sim state, so every deterministic report is byte-identical
// with tracing on or off (pinned by the tier2 byte-identity suite).
#pragma once

#include <cstdint>
#include <iosfwd>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

namespace roborun::obs {

/// The fixed stage taxonomy. Append, never renumber: stage names are part
/// of the trace format.
enum class Stage : std::uint8_t {
  Capture = 0,      // sensor frame capture + degradation
  Integrate = 1,    // octree sweep integration + planner-map bridge
  Publish = 2,      // perception snapshot made visible to govern + plan
  Govern = 3,       // governor decision (engine sub-stages via detail)
  Plan = 4,         // plan stage: validity check + replan when dirty
  Smooth = 5,       // path smoothing inside a replan
  Fly = 6,          // flight substeps to the next decision epoch
  StoreLookup = 7,  // fleet result-store consultation
  Retry = 8,        // fleet infrastructure-failure retry attempt
};

inline constexpr std::size_t kStageCount = 9;

const char* stageName(Stage stage);
bool parseStage(std::string_view name, Stage& out);

struct SpanRecord {
  Stage stage = Stage::Capture;
  std::uint32_t lane = 0;      // process-wide thread lane (Chrome tid)
  std::uint64_t epoch = 0;     // decision epoch the span served
  std::int64_t start_ns = 0;   // relative to the recorder's construction
  std::int64_t end_ns = 0;
  std::string detail;          // optional refinement ("profile", case label…)
};

class SpanRecorder {
 public:
  /// Sentinel id returned by begin() and accepted by end() — allows a
  /// ScopedSpan over a null recorder to stay a pure no-op.
  static constexpr std::size_t kNoSpan = static_cast<std::size_t>(-1);

  SpanRecorder();
  ~SpanRecorder();  // out-of-line: Impl is complete only in the .cpp

  /// Stamp subsequent spans recorded from the calling thread with this
  /// decision epoch. Thread-local and process-wide (shared by every
  /// recorder), so nested instrumented layers agree on the epoch without
  /// threading it through every signature.
  static void setEpoch(std::uint64_t epoch);
  static std::uint64_t currentEpoch();

  /// The calling thread's lane id (assigned on first use, starting at 1).
  static std::uint32_t currentLane();

  /// Open a span; returns its id for end(). Never call on a null
  /// recorder — instrumentation sites guard with ScopedSpan instead.
  std::size_t begin(Stage stage, std::string detail = {});
  void end(std::size_t id);

  std::size_t spanCount() const;
  /// Snapshot of all spans in begin order (an unfinished span has
  /// end_ns == start_ns).
  std::vector<SpanRecord> spans() const;

 private:
  struct Impl;
  // Out-of-line state keeps <mutex>/<chrono> out of every instrumented
  // header; the pointer is immutable after construction.
  std::unique_ptr<Impl> impl_;
};

/// RAII instrumentation guard: a null recorder costs one branch at
/// construction and one at destruction — no clock, no lock, no atomics.
class ScopedSpan {
 public:
  ScopedSpan(SpanRecorder* recorder, Stage stage)
      : recorder_(recorder),
        id_(recorder ? recorder->begin(stage) : SpanRecorder::kNoSpan) {}
  ScopedSpan(SpanRecorder* recorder, Stage stage, std::string detail)
      : recorder_(recorder),
        id_(recorder ? recorder->begin(stage, std::move(detail))
                     : SpanRecorder::kNoSpan) {}
  ~ScopedSpan() {
    if (recorder_) recorder_->end(id_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  SpanRecorder* recorder_;
  std::size_t id_;
};

/// Serialize spans as Chrome `trace_event` JSON (the about:tracing /
/// Perfetto "JSON Array with metadata" flavour): one complete ("ph":"X")
/// event per span, ts/dur in microseconds, lane as tid, epoch and detail
/// in args.
void writeChromeTrace(std::ostream& os, const std::vector<SpanRecord>& spans);

/// Parse a trace written by writeChromeTrace back into spans (events with
/// unknown stage names are skipped). Returns false and sets `error` on a
/// malformed document.
bool readChromeTrace(std::string_view text, std::vector<SpanRecord>& out,
                     std::string* error);

}  // namespace roborun::obs
