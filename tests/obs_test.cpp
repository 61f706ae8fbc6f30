// Observability spine unit suite: span recorder semantics, Chrome trace
// round-trip and the minijson reader — plus one real async mission traced
// end to end (the *Async* cases also run under the TSan lane, which
// is what pins "recording from the worker lane is race-free").
#include <gtest/gtest.h>

#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "env/env_gen.h"
#include "obs/json.h"
#include "obs/minijson.h"
#include "obs/span_recorder.h"
#include "runtime/designs.h"
#include "runtime/mission.h"
#include "runtime/trace.h"

namespace roborun::obs {
namespace {

// --- stage taxonomy --------------------------------------------------------

TEST(StageTaxonomyTest, NamesRoundTripThroughParse) {
  for (std::size_t i = 0; i < kStageCount; ++i) {
    const Stage stage = static_cast<Stage>(i);
    Stage parsed;
    ASSERT_TRUE(parseStage(stageName(stage), parsed)) << stageName(stage);
    EXPECT_EQ(parsed, stage);
  }
  Stage out;
  EXPECT_FALSE(parseStage("warp_drive", out));
  EXPECT_FALSE(parseStage("", out));
}

// --- span recorder ---------------------------------------------------------

TEST(SpanRecorderTest, RecordsOrderedStampedSpans) {
  SpanRecorder recorder;
  SpanRecorder::setEpoch(42);
  const std::size_t outer = recorder.begin(Stage::Govern, "profile");
  const std::size_t inner = recorder.begin(Stage::Plan);
  recorder.end(inner);
  recorder.end(outer);
  SpanRecorder::setEpoch(0);

  ASSERT_EQ(recorder.spanCount(), 2u);
  const std::vector<SpanRecord> spans = recorder.spans();
  EXPECT_EQ(spans[0].stage, Stage::Govern);
  EXPECT_EQ(spans[0].detail, "profile");
  EXPECT_EQ(spans[1].stage, Stage::Plan);
  for (const SpanRecord& s : spans) {
    EXPECT_EQ(s.epoch, 42u);
    EXPECT_GT(s.lane, 0u);
    EXPECT_GE(s.end_ns, s.start_ns);
  }
  // Begin order is id order; the inner span cannot start before the outer.
  EXPECT_GE(spans[1].start_ns, spans[0].start_ns);
  EXPECT_LE(spans[1].end_ns, spans[0].end_ns);
}

TEST(SpanRecorderTest, EndIgnoresInvalidIds) {
  SpanRecorder recorder;
  recorder.end(SpanRecorder::kNoSpan);
  recorder.end(999);
  EXPECT_EQ(recorder.spanCount(), 0u);
}

TEST(SpanRecorderTest, ScopedSpanOnNullRecorderIsANoOp) {
  // The zero-overhead-when-off contract's API face: this must not touch
  // any recorder, clock, or thread-local.
  ScopedSpan guard(nullptr, Stage::Capture);
  ScopedSpan detailed(nullptr, Stage::Govern, "budget");
}

TEST(SpanRecorderTest, ScopedSpanClosesItsSpan) {
  SpanRecorder recorder;
  {
    ScopedSpan guard(&recorder, Stage::Fly, "substep");
  }
  const std::vector<SpanRecord> spans = recorder.spans();
  ASSERT_EQ(spans.size(), 1u);
  EXPECT_EQ(spans[0].stage, Stage::Fly);
  EXPECT_EQ(spans[0].detail, "substep");
  EXPECT_GE(spans[0].end_ns, spans[0].start_ns);
}

// --- Chrome trace round-trip -----------------------------------------------

TEST(ChromeTraceTest, WriteReadRoundTripPreservesSpans) {
  SpanRecorder recorder;
  SpanRecorder::setEpoch(7);
  recorder.end(recorder.begin(Stage::Capture));
  recorder.end(recorder.begin(Stage::Integrate, "sweep \"quoted\""));
  SpanRecorder::setEpoch(0);

  std::ostringstream os;
  writeChromeTrace(os, recorder.spans());
  std::vector<SpanRecord> loaded;
  std::string error;
  ASSERT_TRUE(readChromeTrace(os.str(), loaded, &error)) << error;
  ASSERT_EQ(loaded.size(), 2u);
  EXPECT_EQ(loaded[0].stage, Stage::Capture);
  EXPECT_EQ(loaded[1].stage, Stage::Integrate);
  EXPECT_EQ(loaded[1].detail, "sweep \"quoted\"");
  EXPECT_EQ(loaded[0].epoch, 7u);
  EXPECT_EQ(loaded[0].lane, recorder.spans()[0].lane);
  // ns → µs serialization keeps sub-microsecond spans representable (3
  // decimals), so round-tripped timestamps agree to the nanosecond.
  EXPECT_EQ(loaded[0].start_ns, recorder.spans()[0].start_ns);
}

TEST(ChromeTraceTest, SkipsForeignEventsAndRejectsMalformed) {
  std::vector<SpanRecord> loaded;
  std::string error;
  // Foreign event names (other tools' traces, metadata events) are skipped.
  ASSERT_TRUE(readChromeTrace(
      R"({"traceEvents": [
            {"name": "process_name", "ph": "M", "ts": 0},
            {"name": "govern", "tid": 3, "ts": 1.5, "dur": 2,
             "args": {"epoch": 9, "detail": "solve"}}]})",
      loaded, &error))
      << error;
  ASSERT_EQ(loaded.size(), 1u);
  EXPECT_EQ(loaded[0].stage, Stage::Govern);
  EXPECT_EQ(loaded[0].lane, 3u);
  EXPECT_EQ(loaded[0].epoch, 9u);
  EXPECT_EQ(loaded[0].detail, "solve");
  EXPECT_EQ(loaded[0].start_ns, 1500);
  EXPECT_EQ(loaded[0].end_ns, 3500);

  EXPECT_FALSE(readChromeTrace("{\"traceEvents\": 5}", loaded, &error));
  EXPECT_FALSE(error.empty());
  EXPECT_FALSE(readChromeTrace("{\"traceEvents\": [", loaded, &error));
  EXPECT_FALSE(readChromeTrace("", loaded, &error));
}

// --- minijson --------------------------------------------------------------

TEST(MiniJsonTest, ParsesTheFullValueGrammar) {
  JsonValue doc;
  std::string error;
  ASSERT_TRUE(parseJson(
      R"({"a": 1.5e2, "b": [true, false, null, "x\u0041\n"], "a": 2})", doc,
      &error))
      << error;
  EXPECT_DOUBLE_EQ(doc.numberAt("a", 0.0), 150.0);  // duplicate: first wins
  const JsonValue* b = doc.find("b");
  ASSERT_NE(b, nullptr);
  ASSERT_EQ(b->array.size(), 4u);
  EXPECT_TRUE(b->array[0].boolean);
  EXPECT_EQ(b->array[2].type, JsonValue::Type::Null);
  EXPECT_EQ(b->array[3].string, "xA\n");
  EXPECT_EQ(doc.stringAt("missing", "fallback"), "fallback");
  EXPECT_DOUBLE_EQ(doc.numberAt("b", -1.0), -1.0);  // wrong type → fallback
}

TEST(MiniJsonTest, MalformedDocumentsFailCleanly) {
  JsonValue doc;
  std::string error;
  for (const char* bad :
       {"{", "[1,]", "{\"a\" 1}", "{]", "\"\\q\"", "nul", "1 2", "{\"a\":}"}) {
    EXPECT_FALSE(parseJson(bad, doc, &error)) << bad;
    EXPECT_FALSE(error.empty()) << bad;
  }
}

// --- traced async mission (TSan-covered via the *Async* filter) ------------

env::EnvSpec shortSpec(std::uint64_t seed) {
  env::EnvSpec spec;
  spec.obstacle_density = 0.45;
  spec.obstacle_spread = 22.0;
  spec.goal_distance = 140.0;
  spec.seed = seed;
  return spec;
}

TEST(TracedMissionTest, AsyncMissionRecordsWorkerLaneSpans) {
  const env::Environment environment = env::generateEnvironment(shortSpec(11));
  runtime::MissionConfig config = runtime::smokeMissionConfig();
  config.pipeline.execution = runtime::ExecutionMode::Async;
  SpanRecorder recorder;
  config.pipeline.spans = &recorder;
  const runtime::MissionResult mission =
      runtime::runMission(environment, runtime::DesignType::RoboRun, config);
  ASSERT_FALSE(mission.records.empty());

  const std::vector<SpanRecord> spans = recorder.spans();
  ASSERT_FALSE(spans.empty());
  std::set<std::uint32_t> lanes;
  std::set<std::uint32_t> integrate_lanes;
  std::uint32_t govern_lane = 0;
  std::set<std::string> govern_details;
  std::uint64_t max_epoch = 0;
  std::set<Stage> stages;
  for (const SpanRecord& s : spans) {
    EXPECT_GE(s.end_ns, s.start_ns);
    EXPECT_GT(s.lane, 0u);
    lanes.insert(s.lane);
    stages.insert(s.stage);
    max_epoch = std::max(max_epoch, s.epoch);
    if (s.stage == Stage::Integrate) integrate_lanes.insert(s.lane);
    if (s.stage == Stage::Govern) {
      if (s.detail.empty()) govern_lane = s.lane;
      else govern_details.insert(s.detail);
    }
  }
  // The pipelined executor runs integration one epoch ahead on its own
  // worker thread: the trace must show at least two lanes, with integrate
  // spans on a lane that is not the mission loop's (govern's) lane.
  EXPECT_GE(lanes.size(), 2u);
  ASSERT_NE(govern_lane, 0u);
  bool integrate_off_main = false;
  for (std::uint32_t lane : integrate_lanes)
    if (lane != govern_lane) integrate_off_main = true;
  EXPECT_TRUE(integrate_off_main);

  for (Stage expected : {Stage::Capture, Stage::Integrate, Stage::Govern, Stage::Plan,
                         Stage::Fly})
    EXPECT_TRUE(stages.count(expected)) << stageName(expected);
  // Publish is a reserved trace code that no stage records any more.
  EXPECT_FALSE(stages.count(Stage::Publish));
  // Engine sub-spans ride the Govern stage as details.
  EXPECT_TRUE(govern_details.count("profile"));
  EXPECT_TRUE(govern_details.count("budget"));
  EXPECT_TRUE(govern_details.count("solve"));
  EXPECT_EQ(max_epoch + 1, mission.records.size());
}

TEST(TracedMissionTest, AsyncResultByteIdenticalWithTracingOnOrOff) {
  // The other half of the contract the fleet-level tier2 suite pins at
  // scale: a recorder must never perturb the simulation.
  const env::Environment environment = env::generateEnvironment(shortSpec(11));
  runtime::MissionConfig config = runtime::smokeMissionConfig();
  config.pipeline.execution = runtime::ExecutionMode::Async;
  const runtime::MissionResult untraced =
      runtime::runMission(environment, runtime::DesignType::RoboRun, config);
  SpanRecorder recorder;
  config.pipeline.spans = &recorder;
  const runtime::MissionResult traced =
      runtime::runMission(environment, runtime::DesignType::RoboRun, config);
  EXPECT_GT(recorder.spanCount(), 0u);

  std::ostringstream a, b;
  runtime::writeTrace(untraced, a);
  runtime::writeTrace(traced, b);
  EXPECT_EQ(a.str(), b.str());
}

}  // namespace
}  // namespace roborun::obs
