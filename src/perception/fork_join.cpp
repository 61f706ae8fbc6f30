#include "perception/fork_join.h"

#include <algorithm>
#include <condition_variable>
#include <deque>
#include <mutex>
#include <thread>
#include <vector>

namespace roborun::perception {

namespace {

struct Job {
  void (*run)(const void*, std::size_t);
  const void* body;
  std::size_t tasks;
  std::size_t next = 0;  ///< first unclaimed index
  std::size_t pending;   ///< indices not yet finished
};

class Pool {
 public:
  explicit Pool(std::size_t helpers) {
    for (std::size_t i = 0; i < helpers; ++i) threads_.emplace_back([this] { helperLoop(); });
  }
  ~Pool() {
    {
      std::lock_guard lock(mutex_);
      stop_ = true;
    }
    work_cv_.notify_all();
    for (std::thread& t : threads_) t.join();
  }

  std::size_t helpers() const { return threads_.size(); }

  void run(Job& job) {
    std::unique_lock lock(mutex_);
    queue_.push_back(&job);
    work_cv_.notify_all();
    while (job.next < job.tasks) runOne(job, lock);
    done_cv_.wait(lock, [&] { return job.pending == 0; });
  }

 private:
  /// Claim and run the next index of `job`; `lock` is held on entry and on
  /// return. A job leaves the queue once its last index is claimed, and
  /// nothing touches it after its last index finishes, so the caller may
  /// destroy it as soon as pending reaches zero.
  void runOne(Job& job, std::unique_lock<std::mutex>& lock) {
    const std::size_t index = job.next++;
    if (job.next == job.tasks) queue_.erase(std::find(queue_.begin(), queue_.end(), &job));
    lock.unlock();
    job.run(job.body, index);
    lock.lock();
    if (--job.pending == 0) done_cv_.notify_all();
  }

  void helperLoop() {
    std::unique_lock lock(mutex_);
    for (;;) {
      work_cv_.wait(lock, [&] { return stop_ || !queue_.empty(); });
      if (stop_) return;
      runOne(*queue_.front(), lock);
    }
  }

  std::mutex mutex_;
  std::condition_variable work_cv_;  ///< a job was queued, or stop
  std::condition_variable done_cv_;  ///< some job finished its last index
  std::deque<Job*> queue_;           ///< jobs with unclaimed indices
  bool stop_ = false;
  std::vector<std::thread> threads_;
};

Pool& pool() {
  static Pool instance(std::thread::hardware_concurrency() / 2);
  return instance;
}

}  // namespace

std::size_t forkJoinHelpers() { return pool().helpers(); }

namespace detail {

void forkJoin(std::size_t tasks, void (*run)(const void*, std::size_t), const void* body) {
  if (tasks == 0) return;
  Job job{run, body, tasks, 0, tasks};
  pool().run(job);
}

}  // namespace detail

}  // namespace roborun::perception
