#include "viz/dashboard.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <map>
#include <set>
#include <sstream>
#include <vector>

#include "geom/stats.h"
#include "viz/svg_plot.h"

namespace roborun::viz {

namespace {

using obs::JsonValue;
using obs::SpanRecord;
using obs::Stage;

// Stage → color, in the palette's validated adjacency order: the mission
// stages appear on a timeline in taxonomy order (capture → … → fly), so
// temporal neighbours are palette neighbours, which is exactly the pair
// set the palette was validated on. Retry wears neutral ink on purpose:
// it is the exceptional path, not a series, and must not steal a hue.
constexpr const char* kStageColors[obs::kStageCount] = {
    "#2a78d6",  // capture
    "#eb6834",  // integrate
    "#1baf7a",  // publish
    "#eda100",  // govern
    "#e87ba4",  // plan
    "#008300",  // smooth
    "#4a3aa7",  // fly
    "#e34948",  // store_lookup
    "#52514e",  // retry
};

constexpr const char* kSurface = "#fcfcfb";
constexpr const char* kInk = "#0b0b0b";
constexpr const char* kInkSecondary = "#52514e";
constexpr const char* kTileFill = "#f2f1ee";

std::string fmtValue(double v, int precision = 3) {
  std::ostringstream os;
  os.precision(precision);
  os << v;
  return os.str();
}

/// Integer value of `name='N'` in the first tag of an SVG document
/// (enough for documents this module and svg_plot produce).
int rootIntAttr(std::string_view doc, std::string_view name) {
  const std::size_t tag_end = doc.find('>');
  std::string needle;
  needle.append(name).append("='");
  const std::size_t at = doc.find(needle);
  if (at == std::string_view::npos || at > tag_end) return 0;
  int value = 0;
  for (std::size_t i = at + needle.size(); i < doc.size(); ++i) {
    const char c = doc[i];
    if (c < '0' || c > '9') break;
    value = value * 10 + (c - '0');
  }
  return value;
}

/// Accumulates panels top-to-bottom; wraps them in the root <svg> at the
/// end (total height is known only then).
struct Compositor {
  explicit Compositor(int width) : width(width) {}

  int width;
  double y = 0.0;
  std::ostringstream body;

  /// Nest a complete SVG document (SvgPlot / SvgBarChart output) at the
  /// current cursor, centered, and advance past its height.
  void embed(const std::string& doc) {
    const int h = rootIntAttr(doc, "height");
    const int w = rootIntAttr(doc, "width");
    const double x = std::max(0.0, (width - w) / 2.0);
    const std::size_t tag = doc.find("<svg");
    if (tag == std::string::npos) return;
    body << doc.substr(0, tag + 4) << " x='" << x << "' y='" << y << "'"
         << doc.substr(tag + 4);
    y += h + 16;
  }

  void text(double x, double ty, const std::string& s, int size,
            const char* fill, const char* anchor = "start",
            bool bold = false) {
    body << "<text x='" << x << "' y='" << ty << "' font-size='" << size
         << "' fill='" << fill << "' text-anchor='" << anchor << "'";
    if (bold) body << " font-weight='bold'";
    body << ">" << xmlEscape(s) << "</text>\n";
  }

  std::string finish(const std::string& title, const std::string& subtitle) {
    const int height = static_cast<int>(y) + 16;
    std::ostringstream doc;
    doc << "<svg xmlns='http://www.w3.org/2000/svg' width='" << width
        << "' height='" << height << "' font-family='sans-serif' font-size='12'>\n";
    doc << "<rect width='100%' height='100%' fill='" << kSurface << "'/>\n";
    doc << "<text x='24' y='34' font-size='20' font-weight='bold' fill='" << kInk
        << "'>" << xmlEscape(title) << "</text>\n";
    doc << "<text x='24' y='52' font-size='12' fill='" << kInkSecondary << "'>"
        << xmlEscape(subtitle) << "</text>\n";
    doc << body.str();
    doc << "</svg>\n";
    return doc.str();
  }
};

// ---------------------------------------------------------------- tiles --

struct Tile {
  std::string value;
  std::string caption;
};

/// Chain a numberAt lookup through a slash-separated path.
bool benchNumber(const JsonValue& bench, std::string_view path, double& out) {
  const JsonValue* node = &bench;
  std::size_t pos = 0;
  while (true) {
    const std::size_t slash = path.find('/', pos);
    const std::string_view key =
        path.substr(pos, slash == std::string_view::npos ? path.size() - pos
                                                         : slash - pos);
    node = node->find(key);
    if (!node) return false;
    if (slash == std::string_view::npos) break;
    pos = slash + 1;
  }
  if (node->type != JsonValue::Type::Number) return false;
  out = node->number;
  return true;
}

void addTiles(Compositor& c, const JsonValue& bench) {
  std::vector<Tile> tiles;
  double v = 0.0;
  if (benchNumber(bench, "fleet_throughput/store_warm/store/hit_rate", v))
    tiles.push_back({fmtValue(v * 100.0, 3) + "%", "result store warm hit rate"});
  if (benchNumber(bench, "mission_latency/speedup_wall", v))
    tiles.push_back({fmtValue(v, 3) + "x", "async mission wall speedup"});
  if (benchNumber(bench, "mission_suite/decisions_per_sec", v))
    tiles.push_back({fmtValue(v / 1000.0, 3) + "k/s", "suite decision throughput"});
  if (tiles.empty()) return;

  const double pad = 24.0;
  const double gap = 12.0;
  const double w =
      (c.width - 2 * pad - gap * (tiles.size() - 1)) / tiles.size();
  const double h = 74.0;
  for (std::size_t i = 0; i < tiles.size(); ++i) {
    const double x = pad + i * (w + gap);
    c.body << "<rect x='" << x << "' y='" << c.y << "' width='" << w
           << "' height='" << h << "' rx='6' fill='" << kTileFill
           << "' stroke='#ddd'/>\n";
    c.text(x + w / 2, c.y + 34, tiles[i].value, 21, kInk, "middle", true);
    c.text(x + w / 2, c.y + 56, tiles[i].caption, 11, kInkSecondary, "middle");
  }
  c.y += h + 20;
}

// --------------------------------------------------------- bench charts --

void addSpeedupBars(Compositor& c, const JsonValue& bench) {
  static constexpr struct {
    const char* path;
    const char* label;
  } kTrends[] = {
      {"perception_throughput/speedup/pooled_per_cell", "pooled sweep"},
      {"perception_throughput/speedup/pooled_batched", "batched sweep"},
      {"perception_throughput/speedup/collect_occupied", "collect occupied"},
      {"planning_throughput/speedup/pooled_astar", "pooled A*"},
      {"planning_throughput/rrt_arena/speedup", "RRT arena"},
      {"governor_throughput/speedup/engine_enumerate", "governor enumerate"},
      {"mission_latency/speedup_wall", "async mission"},
  };
  PlotOptions opts;
  opts.width = c.width - 48;
  opts.height = 280;
  SvgBarChart chart("Subsystem speedups vs frozen references", "speedup (x)",
                    {"speedup"}, opts);
  std::size_t added = 0;
  for (const auto& t : kTrends) {
    double v = 0.0;
    if (!benchNumber(bench, t.path, v)) continue;
    chart.addGroup({t.label, {v}});
    ++added;
  }
  if (added > 0) c.embed(chart.render());
}

void addEpochQuantiles(Compositor& c, const JsonValue& bench) {
  const JsonValue* latency = bench.find("mission_latency");
  const JsonValue* modes = latency ? latency->find("modes") : nullptr;
  if (!modes) return;
  PlotOptions opts;
  opts.width = c.width - 48;
  opts.height = 260;
  SvgBarChart chart("Per-epoch decision wall by execution mode",
                    "epoch wall (ms)", {"sync", "async"}, opts);
  for (const char* q : {"epoch_ms_p50", "epoch_ms_p95", "epoch_ms_max"}) {
    BarGroup group;
    group.label = q + 9;  // strip the "epoch_ms_" prefix for the axis label
    for (const char* mode : {"sync", "async"}) {
      const JsonValue* m = modes->find(mode);
      group.values.push_back(m ? m->numberAt(q, 0.0) : 0.0);
    }
    chart.addGroup(std::move(group));
  }
  c.embed(chart.render());
}

// ------------------------------------------------------- trace timeline --

void addTimeline(Compositor& c, const DashboardTrace& trace,
                 const DashboardOptions& options) {
  if (trace.spans.empty()) return;
  std::int64_t t0 = trace.spans.front().start_ns;
  std::int64_t t_end = 0;
  for (const SpanRecord& s : trace.spans) {
    t0 = std::min(t0, s.start_ns);
    t_end = std::max(t_end, s.end_ns);
  }
  const std::int64_t window_ns =
      static_cast<std::int64_t>(options.window_ms * 1e6);
  const std::int64_t t1 = std::min(t_end, t0 + window_ns);

  // Lane rows in lane-id order: the mission loop grabs the first id, so
  // the main lane sorts to the top and the async worker(s) below it.
  std::set<std::uint32_t> lane_set;
  std::set<Stage> stages_present;
  for (const SpanRecord& s : trace.spans) {
    if (s.start_ns > t1 || s.end_ns < t0) continue;
    lane_set.insert(s.lane);
    stages_present.insert(s.stage);
  }
  std::map<std::uint32_t, std::size_t> lane_row;
  for (std::uint32_t lane : lane_set) lane_row.emplace(lane, lane_row.size());
  if (lane_row.empty()) return;

  const double pad = 24.0;
  const double gutter = 72.0;  // lane labels
  const double lane_h = 26.0;
  const double plot_w = c.width - 2 * pad - gutter;
  const double top = c.y + 26.0;
  const auto px = [&](std::int64_t t_ns) {
    return pad + gutter +
           static_cast<double>(t_ns - t0) / static_cast<double>(t1 - t0) * plot_w;
  };

  c.text(pad, c.y + 12, "Stage timeline — " + trace.label, 14, kInk, "start",
         true);
  c.text(c.width - pad, c.y + 12,
         "first " + fmtValue((t1 - t0) / 1e6, 4) + " ms of " +
             fmtValue((t_end - t0) / 1e6, 4) + " ms, " +
             fmtValue(static_cast<double>(trace.spans.size()), 6) + " spans",
         11, kInkSecondary, "end");

  for (const auto& [lane, row] : lane_row) {
    const double ly = top + row * lane_h;
    c.body << "<rect x='" << pad + gutter << "' y='" << ly << "' width='"
           << plot_w << "' height='" << lane_h - 4 << "' fill='#f2f1ee'/>\n";
    c.text(pad, ly + lane_h / 2 + 2, "lane " + std::to_string(lane), 11,
           kInkSecondary);
  }
  for (const SpanRecord& s : trace.spans) {
    if (s.start_ns > t1 || s.end_ns < t0) continue;
    const double x = px(std::max(s.start_ns, t0));
    const double xe = px(std::min(s.end_ns, t1));
    const double w = std::max(0.8, xe - x);
    const double ly = top + lane_row[s.lane] * lane_h;
    c.body << "<rect x='" << x << "' y='" << ly + 2 << "' width='" << w
           << "' height='" << lane_h - 8 << "' fill='"
           << kStageColors[static_cast<std::size_t>(s.stage)] << "'>";
    // Native SVG hover tooltip: stage, epoch, duration.
    c.body << "<title>" << obs::stageName(s.stage);
    if (!s.detail.empty()) c.body << " (" << xmlEscape(s.detail) << ")";
    c.body << " epoch " << s.epoch << ", "
           << fmtValue((s.end_ns - s.start_ns) / 1e6, 4) << " ms</title>";
    c.body << "</rect>\n";
  }

  // Time axis (ms from window start).
  const double axis_y = top + lane_row.size() * lane_h + 4;
  const double span_ms = (t1 - t0) / 1e6;
  const double step = span_ms > 100 ? 50.0 : span_ms > 20 ? 10.0 : 2.0;
  for (double t = 0.0; t <= span_ms + 1e-9; t += step) {
    const double x = pad + gutter + t / span_ms * plot_w;
    c.body << "<line x1='" << x << "' y1='" << top << "' x2='" << x << "' y2='"
           << axis_y << "' stroke='#ddd'/>\n";
    c.text(x, axis_y + 14, fmtValue(t, 4) + " ms", 10, kInkSecondary, "middle");
  }

  // Legend: only stages actually on screen, labeled in ink next to their
  // swatch (identity is never color-alone).
  double lx = pad + gutter;
  const double legend_y = axis_y + 28;
  for (Stage stage : stages_present) {
    c.body << "<rect x='" << lx << "' y='" << legend_y - 9
           << "' width='11' height='11' fill='"
           << kStageColors[static_cast<std::size_t>(stage)] << "'/>\n";
    const std::string name = obs::stageName(stage);
    c.text(lx + 15, legend_y, name, 11, kInk);
    lx += 15 + 7.0 * name.size() + 18;
  }
  c.y = legend_y + 22;
}

// ------------------------------------------------- stage latency summary --

void addStageLatency(Compositor& c, const DashboardTrace& trace) {
  if (trace.spans.empty()) return;
  // Each stage's span durations in ms, summarized by geom::percentile —
  // exact quantiles, the same ones `fleet_runner --bench-json` reports.
  std::map<Stage, std::vector<double>> durations;
  for (const SpanRecord& s : trace.spans)
    durations[s.stage].push_back(static_cast<double>(s.end_ns - s.start_ns) / 1e6);

  struct Quantiles {
    double p50, p95, p99;
    std::size_t count;
  };
  double lo = 1e9, hi = 1e-9;
  std::map<Stage, Quantiles> summaries;
  for (const auto& [stage, ms] : durations) {
    const Quantiles q{geom::percentile(ms, 0.50), geom::percentile(ms, 0.95),
                      geom::percentile(ms, 0.99), ms.size()};
    lo = std::min(lo, std::max(1e-5, q.p50));
    hi = std::max(hi, std::max(1e-5, q.p99));
    summaries.emplace(stage, q);
  }
  if (hi <= lo) hi = lo * 10.0;

  const double pad = 24.0;
  const double gutter = 100.0;
  const double row_h = 22.0;
  const double plot_w = c.width - 2 * pad - gutter - 330.0;  // room for labels
  const double top = c.y + 24.0;
  const double log_lo = std::log10(lo), log_hi = std::log10(hi);
  const auto px = [&](double v) {
    const double lv = std::log10(std::max(v, 1e-5));
    return pad + gutter +
           std::clamp((lv - log_lo) / (log_hi - log_lo), 0.0, 1.0) * plot_w;
  };

  c.text(pad, c.y + 12,
         "Stage latency — " + trace.label + " (log scale; p50 | p95 bar | p99)",
         14, kInk, "start", true);

  std::size_t row = 0;
  for (const auto& [stage, sum] : summaries) {
    const double ry = top + row * row_h;
    const char* color = kStageColors[static_cast<std::size_t>(stage)];
    c.text(pad, ry + 12, obs::stageName(stage), 11, kInk);
    // Bar spans p50→p95; whisker line to p99; every value also printed.
    c.body << "<rect x='" << px(sum.p50) << "' y='" << ry + 4 << "' width='"
           << std::max(1.0, px(sum.p95) - px(sum.p50)) << "' height='8' fill='"
           << color << "'/>\n";
    c.body << "<line x1='" << px(sum.p95) << "' y1='" << ry + 8 << "' x2='"
           << px(sum.p99) << "' y2='" << ry + 8 << "' stroke='" << color
           << "' stroke-width='2'/>\n";
    c.text(pad + gutter + plot_w + 12, ry + 12,
           fmtValue(sum.p50, 3) + " / " + fmtValue(sum.p95, 3) + " / " +
               fmtValue(sum.p99, 3) + " ms  (n=" +
               std::to_string(sum.count) + ")",
           10, kInkSecondary);
    ++row;
  }
  c.y = top + row * row_h + 12;
}

// --------------------------------------------- decision wall per epoch --

void addEpochSeries(Compositor& c, const std::vector<DashboardTrace>& traces) {
  PlotOptions opts;
  opts.width = c.width - 48;
  opts.height = 300;
  opts.log_y = true;
  SvgPlot plot("Decision-path wall per epoch (govern + plan)", "epoch",
               "wall (ms, log)", opts);
  for (const DashboardTrace& trace : traces) {
    std::map<std::uint64_t, double> per_epoch;
    for (const SpanRecord& s : trace.spans)
      if (s.stage == Stage::Govern || s.stage == Stage::Plan)
        if (s.detail.empty())  // top-level spans only, not engine sub-spans
          per_epoch[s.epoch] += static_cast<double>(s.end_ns - s.start_ns) / 1e6;
    Series series;
    series.label = trace.label;
    for (const auto& [epoch, ms] : per_epoch) {
      series.x.push_back(static_cast<double>(epoch));
      series.y.push_back(ms);
    }
    if (!series.x.empty()) plot.addSeries(std::move(series));
  }
  if (plot.seriesCount() > 0) c.embed(plot.render());
}

}  // namespace

std::string renderPerfDashboard(const JsonValue* bench,
                                const std::vector<DashboardTrace>& traces,
                                const DashboardOptions& options) {
  Compositor c(std::max(options.width, 640));
  c.y = 70.0;

  std::string subtitle;
  if (bench) {
    subtitle = "bench record " + bench->stringAt("recorded", "(undated)");
    if (const JsonValue* host = bench->find("host")) {
      subtitle += " — " + host->stringAt("cpu", "unknown cpu") + ", " +
                  host->stringAt("build_type", "unknown build");
    }
  } else {
    subtitle = "no bench record loaded";
  }
  if (!traces.empty())
    subtitle += " — " + std::to_string(traces.size()) + " trace(s)";

  if (bench) {
    addTiles(c, *bench);
    addSpeedupBars(c, *bench);
    addEpochQuantiles(c, *bench);
  }
  for (const DashboardTrace& trace : traces) addTimeline(c, trace, options);
  for (const DashboardTrace& trace : traces) addStageLatency(c, trace);
  if (!traces.empty()) addEpochSeries(c, traces);

  if (!bench && traces.empty())
    c.text(24, c.y + 8,
           "No inputs: pass a BENCH_PERF.json and/or recorded span traces.", 12,
           kInkSecondary);

  return c.finish("RoboRun performance dashboard", subtitle);
}

SvgStats inspectSvg(std::string_view svg) {
  SvgStats stats;
  const auto count = [&](std::string_view needle) {
    std::size_t n = 0, pos = 0;
    while ((pos = svg.find(needle, pos)) != std::string_view::npos) {
      ++n;
      pos += needle.size();
    }
    return n;
  };
  stats.svg_elements = count("<svg");
  stats.rects = count("<rect");
  stats.texts = count("<text");
  stats.lines = count("<line") + count("<polyline");

  std::size_t first = svg.find_first_not_of(" \t\r\n");
  std::size_t last = svg.find_last_not_of(" \t\r\n");
  const bool delimited = first != std::string_view::npos &&
                         svg.compare(first, 4, "<svg") == 0 &&
                         last >= 5 && svg.compare(last - 5, 6, "</svg>") == 0;
  stats.well_formed = delimited && stats.svg_elements > 0 &&
                      stats.svg_elements == count("</svg>") &&
                      stats.texts == count("</text>") &&
                      svg.find("nan") == std::string_view::npos &&
                      svg.find("inf") == std::string_view::npos;
  stats.width = rootIntAttr(svg, "width");
  stats.height = rootIntAttr(svg, "height");
  return stats;
}

}  // namespace roborun::viz
