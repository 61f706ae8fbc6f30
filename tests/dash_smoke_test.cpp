// Dashboard smoke: renderPerfDashboard must produce a well-formed,
// self-contained SVG from the COMMITTED BENCH_PERF.json (the exact
// invocation CI's artifact step runs), from synthetic traces, and from
// nothing at all. inspectSvg is itself under test: it is the assertion
// surface the roborun_dash exit code rests on.
#include <gtest/gtest.h>

#include <fstream>
#include <sstream>
#include <string>

#include "obs/minijson.h"
#include "obs/span_recorder.h"
#include "viz/dashboard.h"

#ifndef ROBORUN_SOURCE_DIR
#error "dash_smoke_test needs ROBORUN_SOURCE_DIR (set in tests/CMakeLists.txt)"
#endif

namespace roborun::viz {
namespace {

obs::SpanRecord makeSpan(obs::Stage stage, std::uint32_t lane,
                         std::uint64_t epoch, std::int64_t start_us,
                         std::int64_t dur_us, std::string detail = {}) {
  obs::SpanRecord s;
  s.stage = stage;
  s.lane = lane;
  s.epoch = epoch;
  s.start_ns = start_us * 1000;
  s.end_ns = (start_us + dur_us) * 1000;
  s.detail = std::move(detail);
  return s;
}

/// Two lanes with integrate (worker) overlapping plan (main) — the async
/// pipeline's signature shape.
DashboardTrace syntheticTrace() {
  DashboardTrace trace;
  trace.label = "synthetic";
  for (std::uint64_t epoch = 0; epoch < 8; ++epoch) {
    const std::int64_t base = static_cast<std::int64_t>(epoch) * 1000;
    trace.spans.push_back(makeSpan(obs::Stage::Capture, 1, epoch, base, 80));
    trace.spans.push_back(makeSpan(obs::Stage::Govern, 1, epoch, base + 100, 60));
    trace.spans.push_back(
        makeSpan(obs::Stage::Govern, 1, epoch, base + 110, 20, "solve"));
    trace.spans.push_back(makeSpan(obs::Stage::Plan, 1, epoch, base + 200, 400));
    trace.spans.push_back(
        makeSpan(obs::Stage::Integrate, 2, epoch + 1, base + 250, 500));
    trace.spans.push_back(makeSpan(obs::Stage::Fly, 1, epoch, base + 700, 200));
  }
  return trace;
}

TEST(DashSmokeTest, CommittedBenchRecordRendersWellFormed) {
  const std::string path = std::string(ROBORUN_SOURCE_DIR) + "/BENCH_PERF.json";
  std::ifstream in(path, std::ios::binary);
  ASSERT_TRUE(in) << path;
  std::ostringstream buffer;
  buffer << in.rdbuf();

  obs::JsonValue bench;
  std::string error;
  ASSERT_TRUE(obs::parseJson(buffer.str(), bench, &error)) << error;

  const std::string svg = renderPerfDashboard(&bench, {});
  const SvgStats stats = inspectSvg(svg);
  EXPECT_TRUE(stats.well_formed);
  EXPECT_GT(stats.width, 600);
  EXPECT_GT(stats.height, 300);
  EXPECT_GE(stats.svg_elements, 2u);  // root + at least one nested chart
  EXPECT_GT(stats.rects, 10u);        // tiles + bars
  EXPECT_GT(stats.texts, 20u);
  // The hit-rate tile reads straight from the committed record.
  EXPECT_NE(svg.find("result store warm hit rate"), std::string::npos);
}

TEST(DashSmokeTest, SyntheticTracesRenderTimelineAndLatencyPanels) {
  const std::string svg = renderPerfDashboard(nullptr, {syntheticTrace()});
  const SvgStats stats = inspectSvg(svg);
  EXPECT_TRUE(stats.well_formed);
  EXPECT_NE(svg.find("Stage timeline"), std::string::npos);
  EXPECT_NE(svg.find("Stage latency"), std::string::npos);
  EXPECT_NE(svg.find("lane 1"), std::string::npos);
  EXPECT_NE(svg.find("lane 2"), std::string::npos);  // worker lane drawn
  // Legend names the stages in ink, never color alone.
  for (const char* name : {"capture", "govern", "plan", "integrate", "fly"})
    EXPECT_NE(svg.find(name), std::string::npos) << name;
}

TEST(DashSmokeTest, NoInputsStillRendersAnExplainedDocument) {
  const std::string svg = renderPerfDashboard(nullptr, {});
  EXPECT_TRUE(inspectSvg(svg).well_formed);
  EXPECT_NE(svg.find("No inputs"), std::string::npos);
}

TEST(DashSmokeTest, InspectSvgCatchesStructuralDamage) {
  const std::string good = renderPerfDashboard(nullptr, {syntheticTrace()});
  ASSERT_TRUE(inspectSvg(good).well_formed);
  EXPECT_FALSE(inspectSvg("").well_formed);
  EXPECT_FALSE(inspectSvg("<svg width='5' height='5'>").well_formed);
  EXPECT_FALSE(inspectSvg(good.substr(0, good.size() / 2)).well_formed);
  // A NaN leaking into any coordinate is malformed by fiat.
  std::string poisoned = good;
  poisoned.replace(poisoned.find("<rect"), 5, "<rect x='nan'");
  EXPECT_FALSE(inspectSvg(poisoned).well_formed);
}

}  // namespace
}  // namespace roborun::viz
