// Intra-mission pipelined executor: overlaps the perception half of one
// sensor sweep (octree ray integration + bridge rebuild) with the
// governing, planning, and flying of the current decision interval.
//
// One worker thread, two snapshot slots selected by epoch parity. The
// mission loop's async dance per epoch N (>= 1):
//
//   sense N -> await()+publish sweep N-1 -> govern (octree holds sweeps
//   0..N-1, exactly what sync's govern sees) -> submit(N) -> plan on the
//   published snapshot of sweep N-1 (at most one sweep stale) -> fly,
//   while the worker integrates sweep N.
//
// Epoch 0 is the pipeline fill: submit(0) then await immediately, so the
// first decision plans on fresh data just like sync. Double buffering is
// what makes the overlap safe: at epoch N the caller reads slot (N-1)%2
// for the whole planning/flying interval AFTER submitting sweep N, which
// the worker writes into slot N%2 — the worker reclaims a slot only two
// submits later, by which time the caller has moved on.
//
// Ownership split while a sweep is in flight (submit -> await): the worker
// owns only the pipeline's octree, through NavigationPipeline::
// integrateSweep; the caller owns everything else (engine, follower,
// planner arena, RNG, goal override). The worker never touches the
// caller's side — the inputs it needs from it (planned path, recovery
// flag) are captured by value at submit().
//
// Errors thrown by the worker are stashed and rethrown from await() on the
// caller's thread (mission fault semantics stay intact: a poisoned or
// crashing perception stage surfaces as the mission's exception). The
// destructor drains any in-flight sweep and joins.
#pragma once

#include <condition_variable>
#include <cstdint>
#include <exception>
#include <mutex>
#include <thread>
#include <vector>

#include "runtime/pipeline.h"
#include "sim/sensor.h"

namespace roborun::runtime {

class EpochExecutor {
 public:
  /// A published sweep: the epoch it integrated and its perception products.
  struct Snapshot {
    std::uint64_t epoch = 0;
    PerceptionOutcome perception;
  };

  explicit EpochExecutor(NavigationPipeline& pipeline);
  ~EpochExecutor();

  EpochExecutor(const EpochExecutor&) = delete;
  EpochExecutor& operator=(const EpochExecutor&) = delete;

  /// Hand sweep `epoch` to the worker. Captures the pipeline's current
  /// planned path by value on the calling thread, then returns
  /// immediately. Exactly one sweep may be in flight: submitting while
  /// pending() throws std::logic_error.
  void submit(std::uint64_t epoch, const sim::SensorFrame& frame, const geom::Vec3& position,
              const core::PipelinePolicy& policy, bool recovery_inflation);

  /// True when a submitted sweep has not been awaited yet.
  bool pending() const;

  /// Block until the in-flight sweep is integrated, then return its slot.
  /// The reference stays valid until the slot is reused (two submits
  /// later). Rethrows anything the worker threw; throws std::logic_error
  /// when nothing is pending.
  const Snapshot& await();

 private:
  void workerLoop();

  struct Task {
    sim::SensorFrame frame;
    geom::Vec3 position;
    core::PipelinePolicy policy;
    std::vector<geom::Vec3> traj_positions;
    bool recovery_inflation = false;
    std::uint64_t epoch = 0;
  };

  NavigationPipeline& pipeline_;

  mutable std::mutex mutex_;
  std::condition_variable cv_;
  Task task_;
  bool task_ready_ = false;    ///< task_ handed over, worker not started/done
  bool result_ready_ = false;  ///< worker finished the in-flight sweep
  bool in_flight_ = false;     ///< submit() called, await() not yet
  bool shutdown_ = false;
  std::exception_ptr error_;
  std::uint64_t result_epoch_ = 0;
  Snapshot slots_[2];
  std::thread worker_;
};

}  // namespace roborun::runtime
