// Fork-join over a small process-wide thread pool, for the read-only phases
// of a sweep (per-ray threat keys and live-window classification).
//
// The pool is started on first use with hardware_concurrency()/2 helper
// threads and lives until exit. forkJoin() publishes a job of `tasks`
// indices; the pool's helpers and the calling thread claim indices one at a
// time, and the call returns once every index has run. Because the caller
// always works its own job, a call completes even when every helper is
// busy with another caller's job: concurrent callers (say, FleetScheduler
// workers each integrating a sweep) share the helpers but cannot deadlock.
#pragma once

#include <cstddef>

namespace roborun::perception {

/// Number of helper threads in the pool (hardware_concurrency()/2; zero on a
/// host reporting fewer than two hardware threads, where every job runs on
/// its caller).
std::size_t forkJoinHelpers();

namespace detail {
void forkJoin(std::size_t tasks, void (*run)(const void* body, std::size_t index),
              const void* body);
}  // namespace detail

/// Run body(i) for every i in [0, tasks), on the pool's helpers and the
/// calling thread, in no particular order; returns when all have run.
/// `body` must not throw, and must be safe to call concurrently.
template <typename Body>
void forkJoin(std::size_t tasks, const Body& body) {
  detail::forkJoin(
      tasks,
      [](const void* b, std::size_t i) { (*static_cast<const Body*>(b))(i); }, &body);
}

}  // namespace roborun::perception
