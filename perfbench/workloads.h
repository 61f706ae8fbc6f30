// perfbench workloads: building the seeded inputs and flying one pass of
// missions through the library's public API.
//
// A pass is one complete flight of a workload's missions, either with
// tracing off (the end-to-end numbers) or with an obs::SpanRecorder
// threaded through PipelineConfig::spans / FleetConfig::spans (the
// per-layer numbers). Nothing here instruments src/: the benchmark only
// times its own calls and reads the spans the library already records.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "core/decision_engine.h"
#include "env/env_gen.h"
#include "obs/span_recorder.h"
#include "runtime/mission.h"
#include "scenario/fleet_scheduler.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

enum class Kind { PaperRrt, PipelinedAstar, FleetSmoke };

struct WorkloadInfo {
  const char* name;
  Kind kind;
};

/// The registered workloads. BENCHMARK.json lists the last two; paper_rrt
/// runs by hand only (README.md says why).
const std::vector<WorkloadInfo>& workloads();
const WorkloadInfo* findWorkload(const std::string& name);

/// The seeded inputs of one run: paper-fidelity worlds for paper_rrt and
/// pipelined_astar, or the fleet catalog for fleet_smoke. Built from (seed,
/// seconds) alone, so the same arguments always give the same missions.
struct Inputs {
  Kind kind = Kind::PaperRrt;
  std::vector<roborun::env::Environment> worlds;           ///< paper worlds
  std::vector<roborun::scenario::ScenarioSpec> catalog;    ///< fleet_smoke
  std::size_t fleet_cases = 0;
  std::size_t fleet_non_roborun_cases = 0;
  double generate_ms = 0.0;  ///< benchmark-timed env::generateEnvironment calls
};

/// Build the inputs. `seconds` sizes the workload (worlds or catalogs)
/// so that one untraced pass takes about that long on a 4-core host.
Inputs buildInputs(Kind kind, std::uint64_t seed, int seconds);

/// One mission as the benchmark saw it.
struct MissionRun {
  roborun::runtime::DesignType design = roborun::runtime::DesignType::RoboRun;
  roborun::runtime::MissionResult result;
  double wall_ms = 0.0;         ///< benchmark timer (paper) / FleetRow::wall_ms (fleet)
  double max_mission_time = 0.0;  ///< the simulated timeout it flew under
  Clock::time_point start{};    ///< paper worlds only: the timed window
  Clock::time_point end{};
};

/// Epoch latency samples collected through MissionConfig::decision_observer
/// — safe to call from concurrent fleet workers: each thread keeps its own
/// last-timestamp and sample vector, and a mission's first epoch (epoch 0)
/// only starts that thread's clock.
class EpochClock {
 public:
  EpochClock();
  void observe(std::size_t epoch, std::size_t staleness, bool sample);
  std::vector<double> samplesMs() const;  ///< every thread's samples, merged
  std::size_t observed() const { return observed_.load(); }
  std::size_t staleOne() const { return stale_one_.load(); }
  std::size_t maxStaleness() const { return max_staleness_.load(); }

 private:
  struct Lane {
    Clock::time_point last{};
    std::vector<double> ms;
  };
  Lane& lane();

  std::uint64_t id_;
  mutable std::mutex mutex_;
  std::vector<std::unique_ptr<Lane>> lanes_;
  std::atomic<std::size_t> observed_{0};
  std::atomic<std::size_t> stale_one_{0};
  std::atomic<std::size_t> max_staleness_{0};
};

struct PassResult {
  double wall_s = 0.0;              ///< host time to fly every mission of the pass
  std::vector<MissionRun> missions; ///< flight order (paper) / case order (fleet)
  std::vector<double> epoch_ms;     ///< RoboRun epoch latencies, first epochs dropped
  std::size_t observed_epochs = 0;
  std::size_t stale_one = 0;
  std::size_t max_staleness = 0;
  unsigned mission_threads = 1;     ///< threads flying missions (fleet workers)
  roborun::core::EngineStats engine;  ///< summed over every engine of the pass
  std::optional<roborun::scenario::FleetResult> fleet;
};

/// Fly one pass. `spans` null = tracing off. fleet_smoke serves its cases
/// through a cold result store in `store_dir` (emptied first, left behind
/// for warmFleetRerun; the caller removes it).
PassResult runPass(const Inputs& inputs, roborun::obs::SpanRecorder* spans,
                   const std::string& store_dir);

/// Serve the fleet catalog again from the store a pass left in `store_dir`
/// (every case should hit); the store check compares it to the pass.
roborun::scenario::FleetResult warmFleetRerun(const Inputs& inputs,
                                              const std::string& store_dir);

}  // namespace perfbench
