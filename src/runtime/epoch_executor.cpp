#include "runtime/epoch_executor.h"

#include <stdexcept>
#include <utility>

#include "obs/span_recorder.h"

namespace roborun::runtime {

EpochExecutor::EpochExecutor(NavigationPipeline& pipeline)
    : pipeline_(pipeline), worker_([this] { workerLoop(); }) {}

EpochExecutor::~EpochExecutor() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    shutdown_ = true;
  }
  cv_.notify_all();
  worker_.join();
}

void EpochExecutor::submit(std::uint64_t epoch, const sim::SensorFrame& frame,
                           const geom::Vec3& position, const core::PipelinePolicy& policy,
                           bool recovery_inflation) {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (in_flight_)
      throw std::logic_error("EpochExecutor::submit: a sweep is already in flight");
    task_.frame = frame;
    task_.position = position;
    task_.policy = policy;
    task_.traj_positions = pipeline_.follower().trajectory().positions();
    task_.recovery_inflation = recovery_inflation;
    task_.epoch = epoch;
    task_ready_ = true;
    in_flight_ = true;
    result_ready_ = false;
    error_ = nullptr;
  }
  cv_.notify_all();
}

bool EpochExecutor::pending() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return in_flight_;
}

const EpochExecutor::Snapshot& EpochExecutor::await() {
  std::unique_lock<std::mutex> lock(mutex_);
  if (!in_flight_)
    throw std::logic_error("EpochExecutor::await: no sweep in flight");
  cv_.wait(lock, [this] { return result_ready_; });
  in_flight_ = false;
  result_ready_ = false;
  if (error_) {
    std::exception_ptr err = std::exchange(error_, nullptr);
    std::rethrow_exception(err);
  }
  return slots_[result_epoch_ % 2];
}

void EpochExecutor::workerLoop() {
  for (;;) {
    Task task;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      cv_.wait(lock, [this] { return task_ready_ || shutdown_; });
      if (!task_ready_ && shutdown_) return;
      task = std::move(task_);
      task_ready_ = false;
    }
    Snapshot& slot = slots_[task.epoch % 2];
    std::exception_ptr error;
    try {
      // Stamp this worker lane with the sweep's epoch so the integrate
      // span integrateSweep records (and anything nested under it) says
      // which sweep it served — the worker runs one epoch ahead of the
      // main lane, which is exactly the overlap the trace should show.
      if (pipeline_.config().spans) obs::SpanRecorder::setEpoch(task.epoch);
      slot.epoch = task.epoch;
      slot.perception = pipeline_.integrateSweep(task.frame, task.position, task.policy,
                                                 task.traj_positions, task.recovery_inflation);
    } catch (...) {
      error = std::current_exception();
    }
    {
      std::lock_guard<std::mutex> lock(mutex_);
      result_epoch_ = task.epoch;
      result_ready_ = true;
      error_ = error;
    }
    cv_.notify_all();
  }
}

}  // namespace roborun::runtime
