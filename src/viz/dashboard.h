// Self-contained SVG performance dashboard.
//
// Composes the repo's two observability artifacts — the tracked
// BENCH_PERF.json trend record and recorded Chrome span traces — into one
// standalone SVG document: stat tiles (store warm hit rate, headline
// speedups), trend bar charts from the bench sections, per-trace
// stage timeline lanes (the async integrate/plan overlap is visible as
// overlapping rects on different lanes), per-stage latency summaries
// (exact p50/p95/p99 through geom::percentile, as fleet reports compute
// them), and a decision-path wall per epoch line chart.
//
// Panels that have no input are skipped, not faked: a dashboard can be
// rendered from the bench record alone (CI's dash smoke), from traces
// alone, or from both. Everything renders through viz::SvgPlot /
// viz::SvgBarChart plus custom timeline/tile drawing; no external
// plotting toolchain, fonts, or scripts — the output opens in any
// browser.
#pragma once

#include <string>
#include <string_view>
#include <vector>

#include "obs/minijson.h"
#include "obs/span_recorder.h"

namespace roborun::viz {

/// One recorded span trace, labeled for its panel captions ("sync",
/// "async", a mission name…).
struct DashboardTrace {
  std::string label;
  std::vector<obs::SpanRecord> spans;
};

struct DashboardOptions {
  int width = 1240;         ///< total document width, px
  double window_ms = 250.0; ///< timeline panels show at most this much wall time
};

/// Render the dashboard. `bench` is a parsed BENCH_PERF.json document or
/// nullptr; `traces` may be empty. Returns a complete standalone SVG
/// document (never empty — a dashboard with no inputs still renders its
/// header and an explanatory note).
std::string renderPerfDashboard(const obs::JsonValue* bench,
                                const std::vector<DashboardTrace>& traces,
                                const DashboardOptions& options = {});

/// Structural summary of an SVG document — what the dash smoke test
/// asserts on (well-formedness without an XML parser dependency).
struct SvgStats {
  bool well_formed = false;  ///< starts with <svg, tags balance, ends with </svg>
  int width = 0;             ///< root width attribute (0 if unparseable)
  int height = 0;
  std::size_t svg_elements = 0;  ///< <svg> opens, root included
  std::size_t rects = 0;
  std::size_t texts = 0;
  std::size_t lines = 0;  ///< <line> + <polyline>
};

SvgStats inspectSvg(std::string_view svg);

}  // namespace roborun::viz
