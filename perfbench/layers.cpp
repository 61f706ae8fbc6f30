#include "layers.h"

#include <algorithm>
#include <cstdint>

namespace perfbench {

using roborun::obs::SpanRecord;
using roborun::obs::Stage;

namespace {

struct Node {
  const SpanRecord* span;
  Layer layer;
  double self_ns;
  long mission = -1;  ///< index into PassResult::missions, -1 = none
  bool on_mission_lane = false;
};

Layer layerOf(const SpanRecord& s) {
  switch (s.stage) {
    case Stage::Capture: return Layer::Capture;
    case Stage::Integrate: return Layer::Integrate;
    case Stage::Publish: return Layer::Publish;
    case Stage::Govern:
      if (s.detail == "profile") return Layer::Profile;
      if (s.detail == "budget") return Layer::Budget;
      if (s.detail == "solve") return Layer::Solve;
      return Layer::Govern;
    case Stage::Plan: return Layer::Plan;
    case Stage::Smooth: return Layer::Smooth;
    case Stage::Fly: return Layer::Fly;
    case Stage::StoreLookup: return Layer::StoreLookup;
    case Stage::Retry: return Layer::Retry;
  }
  return Layer::Retry;
}

std::int64_t nsSince(Clock::time_point origin, Clock::time_point t) {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(t - origin).count();
}

/// Subtract each span's nested children from its self time, per lane.
/// `lane` is sorted by (start asc, end desc), so a parent precedes its
/// children and a stack of open spans finds each span's parent.
std::size_t nestSelfTimes(std::vector<Node>& lane) {
  std::size_t improper = 0;
  std::vector<Node*> open;
  for (Node& n : lane) {
    while (!open.empty() && open.back()->span->end_ns <= n.span->start_ns)
      open.pop_back();
    if (!open.empty()) {
      if (n.span->end_ns <= open.back()->span->end_ns)
        open.back()->self_ns -= static_cast<double>(n.span->end_ns - n.span->start_ns);
      else
        ++improper;
    }
    open.push_back(&n);
  }
  return improper;
}

/// Length of the union of the intervals of `nodes`.
double unionNs(std::vector<const Node*> nodes) {
  std::sort(nodes.begin(), nodes.end(), [](const Node* a, const Node* b) {
    return a->span->start_ns < b->span->start_ns;
  });
  double total = 0.0;
  std::int64_t cur_start = 0, cur_end = 0;
  bool open = false;
  for (const Node* n : nodes) {
    if (open && n->span->start_ns <= cur_end) {
      cur_end = std::max(cur_end, n->span->end_ns);
      continue;
    }
    if (open) total += static_cast<double>(cur_end - cur_start);
    cur_start = n->span->start_ns;
    cur_end = n->span->end_ns;
    open = true;
  }
  if (open) total += static_cast<double>(cur_end - cur_start);
  return total;
}

}  // namespace

const char* layerMetricName(Layer layer) {
  switch (layer) {
    case Layer::Capture: return "sim.capture_ms";
    case Layer::Integrate: return "perception.integrate_ms";
    case Layer::Publish: return "miniros.publish_ms";
    case Layer::Govern: return "core.govern_ms";
    case Layer::Profile: return "core.profile_ms";
    case Layer::Budget: return "core.budget_ms";
    case Layer::Solve: return "core.solve_ms";
    case Layer::Plan: return "planning.plan_ms";
    case Layer::Smooth: return "planning.smooth_ms";
    case Layer::Fly: return "sim.fly_ms";
    case Layer::StoreLookup: return "store.lookup_ms";
    case Layer::Retry: return "scenario.retry_ms";
  }
  return "?";
}

double percentile(std::vector<double> values, double p) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double idx = p * static_cast<double>(values.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(idx);
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  return values[lo] + (values[hi] - values[lo]) * (idx - static_cast<double>(lo));
}

LayerAnalysis analyzeSpans(const PassResult& pass, const std::vector<SpanRecord>& spans,
                           Clock::time_point origin, std::uint32_t mission_lane) {
  LayerAnalysis out;
  out.missions.resize(pass.missions.size());

  std::map<std::uint32_t, std::vector<Node>> lanes;
  for (const SpanRecord& s : spans)
    lanes[s.lane].push_back(
        {&s, layerOf(s), static_cast<double>(s.end_ns - s.start_ns), -1, false});

  // Paper missions ran back to back on one thread: a span belongs to the
  // mission whose timed window contains its start.
  std::vector<std::int64_t> window_start, window_end;
  if (!pass.fleet) {
    for (const MissionRun& m : pass.missions) {
      window_start.push_back(nsSince(origin, m.start));
      window_end.push_back(nsSince(origin, m.end));
    }
  }

  for (auto& [lane_id, lane] : lanes) {
    std::sort(lane.begin(), lane.end(), [](const Node& a, const Node& b) {
      if (a.span->start_ns != b.span->start_ns)
        return a.span->start_ns < b.span->start_ns;
      return a.span->end_ns > b.span->end_ns;
    });
    out.improper_nesting += nestSelfTimes(lane);

    long current = -1;  // fleet: the case whose store lookup opened this stretch
    for (Node& n : lane) {
      if (pass.fleet) {
        if (n.layer == Layer::StoreLookup) {
          current = static_cast<long>(n.span->epoch);
          continue;  // the lookup precedes FleetRow::wall_ms
        }
        n.mission = current;
        n.on_mission_lane = true;
      } else {
        const auto it = std::upper_bound(window_start.begin(), window_start.end(),
                                         n.span->start_ns);
        const long idx = static_cast<long>(it - window_start.begin()) - 1;
        if (idx >= 0 && n.span->start_ns < window_end[static_cast<std::size_t>(idx)]) {
          n.mission = idx;
          n.on_mission_lane = lane_id == mission_lane;
        }
      }
    }
  }

  // Totals, per-span distributions and per-mission accounting.
  std::vector<std::vector<const Node*>> mission_nodes(pass.missions.size());
  std::vector<std::vector<const Node*>> worker_nodes(pass.missions.size());
  for (const auto& [lane_id, lane] : lanes) {
    for (const Node& n : lane) {
      const std::size_t b = static_cast<std::size_t>(n.layer);
      out.total_self_ms[b] += n.self_ns / 1e6;
      if (n.layer == Layer::Integrate) out.integrate_self_ms.push_back(n.self_ns / 1e6);
      if (n.layer == Layer::Plan) out.plan_self_ms.push_back(n.self_ns / 1e6);
      if (n.mission < 0 || static_cast<std::size_t>(n.mission) >= pass.missions.size())
        continue;
      const std::size_t m = static_cast<std::size_t>(n.mission);
      if (n.on_mission_lane) {
        out.missions[m].self_ms[b] += n.self_ns / 1e6;
        mission_nodes[m].push_back(&n);
      } else {
        worker_nodes[m].push_back(&n);
      }
    }
  }
  for (std::size_t m = 0; m < pass.missions.size(); ++m) {
    MissionAccount& a = out.missions[m];
    a.wall_ms = pass.missions[m].wall_ms;
    a.matched = !mission_nodes[m].empty();
    double self = 0.0;
    for (const double v : a.self_ms) self += v;
    a.unaccounted_ms = a.wall_ms - unionNs(mission_nodes[m]) / 1e6;
    a.remainder_ms = a.wall_ms - self - a.unaccounted_ms;
    a.worker_ms = unionNs(worker_nodes[m]) / 1e6;
  }
  return out;
}

}  // namespace perfbench
