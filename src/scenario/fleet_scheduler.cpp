#include "scenario/fleet_scheduler.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <exception>
#include <memory>
#include <thread>
#include <utility>

#include "env/env_gen.h"
#include "planning/planner_arena.h"
#include "sim/latency_model.h"

namespace roborun::scenario {

bool fleetResultsIdentical(const FleetResult& a, const FleetResult& b) {
  if (a.cases.size() != b.cases.size() || a.rows.size() != b.rows.size()) return false;
  if (describeCases(a.cases) != describeCases(b.cases)) return false;
  for (std::size_t i = 0; i < a.rows.size(); ++i) {
    if (a.rows[i].error != b.rows[i].error ||
        a.rows[i].attempts != b.rows[i].attempts)
      return false;
    // The per-result comparison lives with MissionResult itself
    // (runtime::missionResultsIdentical) so the bench and the pipeline
    // equivalence suites pin the exact same field set.
    if (!runtime::missionResultsIdentical(a.rows[i].result, b.rows[i].result))
      return false;
  }
  return true;
}

FleetScheduler::FleetScheduler(runtime::MissionConfig base, FleetConfig config)
    : base_(std::move(base)), config_(config) {
  if (config_.threads == 0) config_.threads = 1;
}

bool FleetScheduler::admit(const ScenarioSpec& spec) {
  if (findFamily(spec.family) == nullptr) return false;
  admit(expandScenario(spec, base_));
  return true;
}

void FleetScheduler::admit(std::vector<MissionCase> cases) {
  auto taken = [&](const std::string& key) {
    return std::find(scenario_order_.begin(), scenario_order_.end(), key) !=
           scenario_order_.end();
  };
  // Batch scenario name -> the shard it was admitted as.
  std::vector<std::pair<std::string, std::string>> shards;
  for (MissionCase& c : cases) {
    auto it = std::find_if(shards.begin(), shards.end(),
                           [&](const auto& s) { return s.first == c.scenario; });
    if (it == shards.end()) {
      std::string shard = c.scenario;
      if (taken(shard)) {
        // Appends, not a `s + "#" + std::to_string(n)` chain — the rvalue
        // operator+ path trips GCC 12's -Wrestrict false positive (GCC bug
        // 105651).
        std::size_t n = 2;
        auto suffixed = [&](std::size_t k) {
          std::string s = c.scenario;
          s += '#';
          s += std::to_string(k);
          return s;
        };
        while (taken(suffixed(n))) ++n;
        shard = suffixed(n);
      }
      scenario_order_.push_back(shard);
      it = shards.emplace(shards.end(), c.scenario, std::move(shard));
    }
    c.scenario = it->second;
    cases_.push_back(std::move(c));
  }
}

std::size_t FleetScheduler::admitAll(const std::vector<ScenarioSpec>& specs) {
  std::size_t admitted = 0;
  for (const ScenarioSpec& spec : specs)
    if (admit(spec)) ++admitted;
  return admitted;
}

unsigned FleetScheduler::workers() const {
  return static_cast<unsigned>(std::max<std::size_t>(
      1, std::min<std::size_t>(config_.threads, cases_.size())));
}

FleetResult FleetScheduler::run() {
  const unsigned threads = workers();
  FleetResult out;
  out.cases = cases_;
  out.threads = threads;
  out.pipeline = base_.pipeline.execution;
  out.rows.resize(cases_.size());

  // Shared governor core: calibrated once from the base config, pooled
  // across every engine_shareable case (runMission installs it only under
  // the Exhaustive solver — see MissionConfig::shared_engine).
  core::DecisionEngine::Config engine_config;
  engine_config.knobs = base_.knobs;
  engine_config.budgeter = base_.budgeter;
  engine_config.profiler = base_.profiler;
  // Fleet traffic mixes many tenants' envelopes through one sharded memo;
  // give it headroom beyond the single-vehicle default so cross-tenant
  // reuse isn't capped by evictions.
  engine_config.solver_memo_capacity = 4096;
  // The shared engine's governor sub-spans (profile/budget/solve) record
  // into the same fleet-level recorder as everything else.
  engine_config.spans = config_.spans;
  const std::shared_ptr<core::DecisionEngine> engine = core::DecisionEngine::calibrated(
      sim::LatencyModel(base_.pipeline.latency), engine_config);

  // One arena per worker slot: a worker's missions run strictly
  // sequentially, so the (unsynchronized) arena is never lent to two live
  // pipelines at once.
  std::vector<std::unique_ptr<planning::PlannerArena>> arenas;
  for (unsigned t = 0; t < threads; ++t)
    arenas.push_back(std::make_unique<planning::PlannerArena>());

  const auto store_stats_before =
      config_.store ? config_.store->stats() : store::StoreStats{};

  auto run_case = [&](std::size_t i, unsigned worker) {
    const MissionCase& c = cases_[i];
    FleetRow& row = out.rows[i];
    // Fleet-level spans stamp the case index as the epoch: in the trace a
    // worker lane reads as a sequence of cases, each decomposing into the
    // mission stages the pipeline records inside runMission.
    obs::SpanRecorder* const spans = config_.spans;
    if (spans) obs::SpanRecorder::setEpoch(i);
    // Substituter short-circuit: a repeated case (same bit pattern under
    // the store's version stamp) is served from the content-addressed
    // store instead of flying the mission. The stored result is
    // bit-identical to a fresh run, so a hit is dispatch-order independent
    // — it cannot perturb the deterministic report no matter which worker
    // serves it.
    store::StoreKey store_key;
    std::size_t case_bytes = 0;
    if (config_.store != nullptr) {
      obs::ScopedSpan obs_lookup(spans, obs::Stage::StoreLookup, c.scenario);
      const std::string description = describeCase(c);
      case_bytes = description.size();
      store_key = config_.store->keyFor(description);
      const auto started = std::chrono::steady_clock::now();
      if (std::optional<store::StoredResult> cached = config_.store->lookup(store_key)) {
        row.result = std::move(cached->result);
        row.attempts = static_cast<std::size_t>(cached->attempts);
        row.error.clear();
        row.wall_ms = std::chrono::duration<double, std::milli>(
                          std::chrono::steady_clock::now() - started)
                          .count();
        return;
      }
    }
    runtime::MissionConfig config = c.config;
    if (c.engine_shareable) config.shared_engine = engine;
    config.pipeline.shared_arena = arenas[worker].get();
    // Thread the recorder into the tenant pipeline: the mission loop's
    // capture/govern/fly spans and the pipeline's integrate/plan/smooth
    // spans all land in the fleet trace under this worker's lane.
    config.pipeline.spans = spans;
    const auto started = std::chrono::steady_clock::now();
    // Crash isolation + bounded retries. An exception escaping the mission
    // (a poisoned fault plan, a pipeline bug) is caught HERE, at the worker,
    // and becomes a structured Crashed row — it never unwinds through the
    // pool or touches any other tenant's slot. Only infrastructure failures
    // (Crashed, AbortedWallDeadline) are retried: a retry replays the
    // identical seeded mission, so a deterministic mission outcome would
    // only repeat, while wall aborts can be load-dependent. The retry count
    // itself is deterministic — a deterministic failure fails every attempt,
    // so `attempts` is the same for any thread count.
    for (std::size_t attempt = 0; attempt < 1 + config_.retry_limit; ++attempt) {
      // Only re-runs record a Retry span: attempt 0 is the normal path, and
      // tracing it would double-count every healthy mission.
      const std::size_t obs_retry =
          (spans && attempt > 0) ? spans->begin(obs::Stage::Retry, c.scenario)
                                 : obs::SpanRecorder::kNoSpan;
      row.attempts = attempt + 1;
      row.error.clear();
      try {
        const env::Environment environment = env::generateEnvironment(c.env);
        row.result = runtime::runMission(environment, c.design, config);
      } catch (const std::exception& e) {
        row.result = runtime::MissionResult{};
        row.result.status = runtime::MissionStatus::Crashed;
        row.error = e.what();
      } catch (...) {
        row.result = runtime::MissionResult{};
        row.result.status = runtime::MissionStatus::Crashed;
        row.error = "non-standard exception";
      }
      if (spans) spans->end(obs_retry);
      if (!runtime::missionStatusIsInfrastructureFailure(row.result.status)) break;
    }
    row.wall_ms = std::chrono::duration<double, std::milli>(
                      std::chrono::steady_clock::now() - started)
                      .count();
    // Cache the finished mission — but ONLY a simulated conclusion.
    // Crashed / AbortedWallDeadline rows describe this run's
    // infrastructure (a wedged host, a poisoned plan), not the mission;
    // serving one from a warm store would freeze a transient failure into
    // every future run, so they always bypass the store.
    if (config_.store != nullptr &&
        !runtime::missionStatusIsInfrastructureFailure(row.result.status)) {
      store::StoredResult value;
      value.result = row.result;
      value.attempts = row.attempts;
      config_.store->insert(store_key, value, case_bytes);
    }
  };

  const auto fleet_start = std::chrono::steady_clock::now();
  // Free-running ticket queue: workers pull the next case as they finish.
  std::atomic<std::size_t> next{0};
  auto worker = [&](unsigned slot) {
    for (;;) {
      const std::size_t i = next.fetch_add(1);
      if (i >= cases_.size()) return;
      run_case(i, slot);
    }
  };
  std::vector<std::thread> pool;
  for (unsigned t = 1; t < threads; ++t) pool.emplace_back(worker, t);
  worker(0);
  for (std::thread& t : pool) t.join();
  out.wall_s = std::chrono::duration<double>(std::chrono::steady_clock::now() - fleet_start)
                   .count();
  if (out.wall_s > 0.0 && !out.rows.empty())
    out.missions_per_sec = static_cast<double>(out.rows.size()) / out.wall_s;
  out.engine = engine->stats();
  if (config_.store != nullptr) {
    out.store_enabled = true;
    out.store = config_.store->stats().minus(store_stats_before);
  }

  // Per-shard aggregation, in admission order over index-ordered rows —
  // deterministic because every input field is.
  for (const std::string& shard : scenario_order_) {
    ShardAggregate agg;
    agg.scenario = shard;
    std::size_t n = 0;
    double velocity_sum = 0.0;
    for (std::size_t i = 0; i < cases_.size(); ++i) {
      if (cases_[i].scenario != shard) continue;
      const runtime::MissionResult& r = out.rows[i].result;
      ++n;
      agg.reached += r.reached_goal() ? 1 : 0;
      agg.collided += r.collided() ? 1 : 0;
      agg.timed_out += r.timed_out() ? 1 : 0;
      agg.battery_depleted += r.battery_depleted() ? 1 : 0;
      agg.wall_aborted +=
          r.status == runtime::MissionStatus::AbortedWallDeadline ? 1 : 0;
      agg.crashed += r.status == runtime::MissionStatus::Crashed ? 1 : 0;
      agg.decisions += r.decisions();
      agg.replans += r.replans();
      agg.mission_time += r.mission_time;
      agg.distance += r.distance_traveled;
      agg.flight_energy += r.flight_energy;
      agg.compute_energy += r.compute_energy;
      velocity_sum += r.averageVelocity();
    }
    agg.missions = n;
    if (n > 0) agg.mean_velocity = velocity_sum / static_cast<double>(n);
    out.shards.push_back(std::move(agg));
  }
  return out;
}

}  // namespace roborun::scenario
