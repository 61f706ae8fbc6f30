// perfbench per-layer analysis of a traced pass.
//
// Self time: a span's duration minus the part of it covered by the spans
// nested inside it on the same lane. The engine's profile/budget/solve
// sub-spans reuse obs::Stage::Govern inside the mission loop's own Govern
// span, so summing raw durations counts governing twice; nesting per lane
// does not.
//
// Accounting: each mission's wall (the benchmark's timer around
// runMission, or FleetRow::wall_ms) is split into the self times of the
// stage spans on the lane that flew it plus `unaccounted`, the part of the
// wall no span covers (measured as interval gaps, independently of the
// self times). The remainder wall - self - unaccounted is zero when the
// spans nest properly; the benchmark prints it and fails when it is not.
// Under the async pipeline the integrate spans run on the epoch
// executor's worker lane, overlapping the mission lane; they are reported
// as worker time, outside the mission lane's sum.
#pragma once

#include <map>
#include <string>
#include <vector>

#include "obs/span_recorder.h"
#include "workloads.h"

namespace perfbench {

/// A named layer bucket of self time: a stage, or a Govern sub-stage.
enum class Layer {
  Capture,
  Integrate,
  Publish,
  Govern,
  Profile,
  Budget,
  Solve,
  Plan,
  Smooth,
  Fly,
  StoreLookup,
  Retry,
};
inline constexpr std::size_t kLayerCount = 12;

/// The per-layer metric name for a bucket ("perception.integrate_ms", ...).
const char* layerMetricName(Layer layer);

struct MissionAccount {
  double wall_ms = 0.0;
  double self_ms[kLayerCount] = {};  ///< mission-lane self time per bucket
  double unaccounted_ms = 0.0;
  double remainder_ms = 0.0;
  double worker_ms = 0.0;  ///< busy time on other lanes (async integrate)
  bool matched = false;    ///< the mission's lane window was found in the trace
};

struct LayerAnalysis {
  double total_self_ms[kLayerCount] = {};  ///< every lane, whole pass
  std::vector<double> integrate_self_ms;   ///< per span, for the p99
  std::vector<double> plan_self_ms;
  std::vector<MissionAccount> missions;    ///< index-aligned with PassResult::missions
  std::size_t improper_nesting = 0;        ///< spans overlapping a sibling's end
};

/// Analyse a traced pass. `origin` is the steady-clock instant the
/// recorder measured its span times from, `mission_lane` the lane of the
/// thread that ran the paper missions (fleet missions are located by
/// their store-lookup spans instead).
LayerAnalysis analyzeSpans(const PassResult& pass,
                           const std::vector<roborun::obs::SpanRecord>& spans,
                           Clock::time_point origin, std::uint32_t mission_lane);

double percentile(std::vector<double> values, double p);

}  // namespace perfbench
