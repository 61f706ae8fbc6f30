#include "core/decision_engine.h"

#include <algorithm>
#include <bit>
#include <numbers>

#include "core/latency_calibration.h"

namespace roborun::core {

namespace {

std::uint64_t bitsOf(double v) { return std::bit_cast<std::uint64_t>(v); }

std::uint64_t mix64(std::uint64_t x) {
  x += 0x9E3779B97F4A7C15ull;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ull;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBull;
  return x ^ (x >> 31);
}

/// Bucket hash over the QUANTIZED key: the low 12 mantissa bits of every
/// component are dropped, so near-identical budgets/envelopes probe the same
/// window. Quantization only ever decides placement — a hit still requires
/// the full 7x64-bit key to match exactly, which is what keeps cached
/// answers bit-identical to enumeration. The hash's high bits pick the memo
/// shard and its low bits pick the bucket within the shard, so striping and
/// probe placement stay independent.
std::uint64_t hashKey(const std::array<std::uint64_t, 7>& key) {
  std::uint64_t h = 0x2545F4914F6CDD1Dull;
  for (const std::uint64_t bits : key) h = mix64(h ^ (bits & ~0xFFFull));
  return h;
}

constexpr std::size_t kProbeWindow = 8;

std::array<std::uint64_t, 8> trajectoryFingerprint(const planning::Trajectory& t) {
  if (t.empty()) return {};
  const auto& first = t.points().front();
  const auto& last = t.points().back();
  return {static_cast<std::uint64_t>(t.size()),
          std::bit_cast<std::uint64_t>(t.duration()),
          std::bit_cast<std::uint64_t>(first.position.x),
          std::bit_cast<std::uint64_t>(first.position.y),
          std::bit_cast<std::uint64_t>(first.position.z),
          std::bit_cast<std::uint64_t>(last.position.x),
          std::bit_cast<std::uint64_t>(last.position.y),
          std::bit_cast<std::uint64_t>(last.position.z)};
}

std::size_t roundUpPow2(std::size_t v) {
  std::size_t p = 1;
  while (p < v) p <<= 1;
  return p;
}

}  // namespace

DecisionEngine::DecisionEngine(const Config& config, LatencyPredictor predictor)
    : config_(config),
      budgeter_(config.budgeter),
      predictor_(std::move(predictor)),
      solver_(config_.knobs, predictor_) {
  if (config_.solver_memo_capacity > 0) {
    // Capacity is the total across shards; each shard gets a power-of-two
    // slab no smaller than one probe window so a single hot key cluster
    // cannot wrap a shard.
    const std::size_t per_shard = roundUpPow2(std::max<std::size_t>(
        (config_.solver_memo_capacity + kMemoShards - 1) / kMemoShards, kProbeWindow));
    for (MemoShard& shard : memo_shards_) {
      shard.slots.resize(per_shard);
      shard.mask = per_shard - 1;
    }
  }
}

std::shared_ptr<DecisionEngine> DecisionEngine::calibrated(const sim::LatencyModel& latency_model,
                                                           const Config& config) {
  return std::make_shared<DecisionEngine>(
      config, calibratePredictor(latency_model, config.knobs).predictor);
}

// --- client registry --------------------------------------------------------

DecisionEngine::ClientId DecisionEngine::acquireClient() {
  return next_client_.fetch_add(1, std::memory_order_relaxed);
}

void DecisionEngine::releaseClient(ClientId client) {
  std::lock_guard lock(clients_mutex_);
  clients_.erase(client);
}

std::shared_ptr<DecisionEngine::ClientState> DecisionEngine::clientState(ClientId client) {
  std::lock_guard lock(clients_mutex_);
  const std::uint64_t tick = ++lru_clock_;
  if (auto it = clients_.find(client); it != clients_.end()) {
    it->second->last_used = tick;
    return it->second;
  }
  // Fresh key: all-dirty until its first build, so a recycled key (or a
  // slot re-created after LRU eviction) can never alias stale samples.
  auto state = std::make_shared<ClientState>();
  state->last_used = tick;
  const std::size_t cap = std::max<std::size_t>(config_.profile_cache_clients, 1);
  if (clients_.size() >= cap) {
    auto victim = clients_.end();
    for (auto it = clients_.begin(); it != clients_.end(); ++it)
      if (victim == clients_.end() || it->second->last_used < victim->second->last_used)
        victim = it;
    // The shared_ptr handed to any in-flight profiler keeps the evicted
    // slot alive until that call returns; only the registry entry dies.
    if (victim != clients_.end()) clients_.erase(victim);
  }
  clients_.emplace(client, state);
  return state;
}

// --- solver memo ------------------------------------------------------------

void DecisionEngine::clearMemo() {
  for (MemoShard& shard : memo_shards_) {
    std::lock_guard lock(shard.mutex);
    ++shard.generation;
  }
}

// --- Eq. 3 solve ------------------------------------------------------------

SolverResult DecisionEngine::solveMemoized(double budget, const SpaceProfile& profile) {
  const double fixed_overhead = config_.knobs.fixed_overhead;
  const double knob_budget = std::max(budget - fixed_overhead, 0.0);
  const KnobEnvelope env = computeEnvelope(config_.knobs, profile);
  const MemoKey key{bitsOf(knob_budget), bitsOf(env.p0_lo),  bitsOf(env.p0_hi),
                    bitsOf(env.v0_cap),  bitsOf(env.v1_cap), bitsOf(env.v2_cap),
                    bitsOf(env.v_demand)};

  const std::uint64_t home = hashKey(key);
  MemoShard& shard = memo_shards_[(home >> 60) & (kMemoShards - 1)];

  if (shard.mask != 0) {
    std::lock_guard lock(shard.mutex);
    for (std::size_t k = 0; k < kProbeWindow; ++k) {
      const MemoEntry& e = shard.slots[(home + k) & shard.mask];
      if (e.generation == shard.generation && e.key == key) {
        stats_.solver_memo_hits.fetch_add(1, std::memory_order_relaxed);
        return GovernorSolver::resultFor(e.pick, budget, fixed_overhead);
      }
    }
  }

  stats_.solver_memo_misses.fetch_add(1, std::memory_order_relaxed);
  // The enumeration is a pure function of the immutable solver — run it
  // OUTSIDE the shard lock so a miss never serializes other shards' traffic
  // (or even this shard's hits). Two threads racing the same cold key both
  // enumerate the identical pick; the second insert is a no-op refresh.
  const SolverPick pick = solver_.pick(knob_budget, env);
  if (shard.mask != 0) {
    std::lock_guard lock(shard.mutex);
    std::size_t victim = home & shard.mask;
    for (std::size_t k = 0; k < kProbeWindow; ++k) {
      const std::size_t idx = (home + k) & shard.mask;
      const MemoEntry& e = shard.slots[idx];
      if (e.generation != shard.generation || e.key == key) {
        victim = idx;  // stale/empty slot (or refresh of the same key)
        break;
      }
    }
    shard.slots[victim] = {shard.generation, key, pick};
  }
  return GovernorSolver::resultFor(pick, budget, fixed_overhead);
}

// --- governor path ----------------------------------------------------------

GovernorDecision DecisionEngine::decide(const SpaceProfile& profile) {
  GovernorDecision decision;
  const std::size_t obs_budget = config_.spans
                                     ? config_.spans->begin(obs::Stage::Govern, "budget")
                                     : obs::SpanRecorder::kNoSpan;
  decision.budget = budgeter_.globalBudget(profile.waypoints);
  if (config_.spans) config_.spans->end(obs_budget);

  SolverResult result;
  const std::size_t obs_solve = config_.spans
                                    ? config_.spans->begin(obs::Stage::Govern, "solve")
                                    : obs::SpanRecorder::kNoSpan;
  if (has_strategy_.load(std::memory_order_acquire)) {
    // Strategies may carry cross-decision state, so they serialize here;
    // the fleet-shared shape never takes this branch (Exhaustive-only).
    std::lock_guard lock(strategy_mutex_);
    SolverInputs inputs;
    inputs.budget = decision.budget;
    inputs.fixed_overhead = config_.knobs.fixed_overhead;
    inputs.profile = profile;
    result = strategy_->solve(inputs);
    stats_.strategy_decisions.fetch_add(1, std::memory_order_relaxed);
  } else {
    // The memoized path reads the profile only through the envelope, so it
    // skips the waypoint-vector copy the SolverInputs interface forces.
    result = solveMemoized(decision.budget, profile);
  }
  if (config_.spans) config_.spans->end(obs_solve);

  decision.policy = result.policy;
  decision.budget_met = result.budget_met;
  decision.solver_objective = result.objective;
  stats_.decisions.fetch_add(1, std::memory_order_relaxed);
  return decision;
}

GovernorDecision DecisionEngine::blackoutFallback(const SpaceProfile& profile) const {
  // The safe envelope at minimum cost: the constraints still come from
  // computeEnvelope (so the fallback obeys the same feasible region every
  // policy source does), but instead of solving, pin the coarsest admitted
  // precision and the floor volumes. No memo, no stats, no locks.
  const KnobEnvelope env = computeEnvelope(config_.knobs, profile);
  const std::array<double, 3> volumes = env.volumesAtScale(0.0);
  GovernorDecision decision;
  for (std::size_t i = 0; i < kNumStages; ++i)
    decision.policy.stages[i] = {env.p0_hi, volumes[i]};
  decision.budget = budgeter_.config().budget_floor;
  decision.policy.deadline = decision.budget;
  decision.policy.predicted_latency = predictor_.predictTotal(decision.policy);
  decision.budget_met = false;  // blackout decisions always read as degraded
  decision.solver_objective = 0.0;
  return decision;
}

EngineDecision DecisionEngine::decideFromSensors(const sim::SensorFrame& frame,
                                                 const perception::OccupancyOctree& map,
                                                 const planning::Trajectory& trajectory,
                                                 const geom::Vec3& position,
                                                 const geom::Vec3& velocity,
                                                 const geom::Vec3& travel_dir,
                                                 ClientId client) {
  EngineDecision out;
  {
    obs::ScopedSpan obs_profile(config_.spans, obs::Stage::Govern, "profile");
    const std::shared_ptr<ClientState> state = clientState(client);
    std::lock_guard lock(state->mutex);
    out.profile =
        profileForClient(*state, frame, map, trajectory, position, velocity, travel_dir);
  }
  out.decision = decide(out.profile);
  return out;
}

SpaceProfile DecisionEngine::profile(const sim::SensorFrame& frame,
                                     const perception::OccupancyOctree& map,
                                     const planning::Trajectory& trajectory,
                                     const geom::Vec3& position, const geom::Vec3& velocity,
                                     const geom::Vec3& travel_dir, ClientId client) {
  const std::shared_ptr<ClientState> state = clientState(client);
  std::lock_guard lock(state->mutex);
  return profileForClient(*state, frame, map, trajectory, position, velocity, travel_dir);
}

// --- incremental space profiling --------------------------------------------

SpaceProfile DecisionEngine::profileForClient(ClientState& state,
                                              const sim::SensorFrame& frame,
                                              const perception::OccupancyOctree& map,
                                              const planning::Trajectory& trajectory,
                                              const geom::Vec3& position,
                                              const geom::Vec3& velocity,
                                              const geom::Vec3& travel_dir) {
  using geom::Vec3;

  const double unknown_step = config_.profiler.unknown_probe_step;
  const double probe = std::max(unknown_step, 0.25);
  // The seed runs two sampling passes along the trajectory: the d_unknown
  // probe (step = unknown_probe_step, early break at the first non-free
  // cell) and the waypoint visibility pass (step = probe, full length).
  // When both run at the same step — the default — they query the same
  // points, so one fused pass serves both, and that pass is what the
  // cross-epoch cache stores.
  const bool fused = trajectory.size() >= 2 && unknown_step == probe;
  if (!fused) {
    // Non-fusable shapes (empty or single-point trajectory, or an
    // unknown_probe_step below the waypoint probe floor, where the seed's
    // two passes differ in step width): run the seed path itself — one
    // copy of that logic, trivially identical. Rare (non-default configs
    // and startup), so no caching.
    state.cache.valid = false;
    return profileSpace(frame, map, trajectory, position, velocity, travel_dir,
                        config_.profiler);
  }

  SpaceProfile profile;
  profile.position = position;
  profile.velocity = velocity.norm();

  const GapStats gaps = profileGaps(frame, config_.profiler);
  profile.gap_avg = gaps.average;
  profile.gap_min = gaps.minimum;
  profile.d_obstacle = frame.closestHit();

  profile.sensor_volume =
      4.0 / 3.0 * std::numbers::pi * frame.max_range * frame.max_range * frame.max_range;
  profile.map_volume = map.stats().mappedVolume();

  const Vec3 dir = travel_dir.norm() > 1e-6 ? travel_dir.normalized() : Vec3{1, 0, 0};
  profile.visibility = std::max(frame.visibilityAlong(dir), 1.0);

  profile.d_unknown = frame.max_range;

  {
    const auto fingerprint = trajectoryFingerprint(trajectory);
    const bool cache_ok =
        state.cache.valid && state.cache.map_addr == &map &&
        state.cache.traj_addr == &trajectory &&
        state.cache.traj_version == state.traj_version &&
        state.cache.traj_fingerprint == fingerprint &&
        state.cache.position_bits ==
            std::array<std::uint64_t, 3>{bitsOf(position.x), bitsOf(position.y),
                                         bitsOf(position.z)} &&
        !state.all_dirty &&
        (state.dirty.isEmpty() || !state.dirty.intersects(state.cache.sample_bounds));
    if (cache_ok) {
      stats_.profile_reuses.fetch_add(1, std::memory_order_relaxed);
    } else {
      ProfileCache& c = state.cache;
      c.valid = false;
      c.total = trajectory.length();
      c.start_s = trajectory.closestArcLength(position);
      c.sample_s.clear();
      c.sample_free.clear();
      c.first_blocked = -1;
      c.sample_bounds = geom::Aabb::empty();
      for (double s = c.start_s; s <= c.total; s += probe) {
        const Vec3 p = trajectory.sampleAtArcLength(s);
        const bool free = map.query(p) == perception::Occupancy::Free;
        if (!free && c.first_blocked < 0)
          c.first_blocked = static_cast<std::ptrdiff_t>(c.sample_s.size());
        c.sample_s.push_back(s);
        c.sample_free.push_back(free ? 1 : 0);
        c.sample_bounds.merge(p);
      }
      // free_until[j]: arc length of the first non-free sample at or after
      // j (the seed's backward pass, verbatim).
      c.free_until.assign(c.sample_s.size(), c.total);
      double frontier = c.sample_s.empty() ? c.start_s : c.sample_s.back() + probe;
      for (std::size_t j = c.sample_s.size(); j-- > 0;) {
        if (!c.sample_free[j]) frontier = c.sample_s[j];
        c.free_until[j] = frontier;
      }
      c.map_addr = &map;
      c.traj_addr = &trajectory;
      c.traj_version = state.traj_version;
      c.traj_fingerprint = fingerprint;
      c.position_bits = {bitsOf(position.x), bitsOf(position.y), bitsOf(position.z)};
      c.valid = true;
      state.dirty = geom::Aabb::empty();
      state.all_dirty = false;
      stats_.profile_builds.fetch_add(1, std::memory_order_relaxed);
    }

    const ProfileCache& c = state.cache;
    // d_unknown from the fused samples: the first non-free sample is
    // exactly where the seed's early-breaking probe loop stopped.
    if (c.first_blocked >= 0)
      profile.d_unknown =
          std::max(c.sample_s[static_cast<std::size_t>(c.first_blocked)] - c.start_s, 0.5);

    auto visibilityAt = [&](double s) {
      if (c.sample_s.empty()) return 1.0;
      const auto idx = static_cast<std::size_t>(std::clamp(
          (s - c.start_s) / probe, 0.0, static_cast<double>(c.sample_s.size() - 1)));
      // Not std::clamp: max_range can fall below 0.5, which breaks its
      // lo <= hi precondition. This is libstdc++'s clamp body, so the result
      // is unchanged (max_range wins when it is below the floor).
      return std::min(std::max(c.free_until[idx] - s, 0.5), frame.max_range);
    };

    profile.waypoints.push_back(
        {position, std::max(profile.velocity, 0.05), profile.visibility, 0.0});
    const double start_t =
        trajectory.duration() * (c.total > 1e-9 ? c.start_s / c.total : 0.0);
    double prev_t = start_t;
    const auto& pts = trajectory.points();
    double acc_s = 0.0;
    for (std::size_t i = 0;
         i < pts.size() && profile.waypoints.size() < config_.profiler.waypoint_horizon;
         ++i) {
      if (i > 0) acc_s += pts[i].position.dist(pts[i - 1].position);
      if (pts[i].time < start_t) continue;
      WaypointState ws;
      ws.position = pts[i].position;
      ws.velocity = std::max(pts[i].velocity, 0.1);
      ws.visibility = visibilityAt(std::max(acc_s, c.start_s));
      ws.flight_time_from_prev = std::max(pts[i].time - prev_t, 0.0);
      prev_t = pts[i].time;
      profile.waypoints.push_back(ws);
    }
  }
  // The fused path always has >= 2 trajectory points, so W0 was pushed
  // above and the seed's empty-waypoints hover fallback (handled by
  // profileSpace for the non-fused shapes) cannot trigger here.
  return profile;
}

// --- dirty plumbing / lifecycle ---------------------------------------------

void DecisionEngine::noteMapChanged(const geom::Aabb& bounds, ClientId client) {
  if (bounds.isEmpty()) return;
  const std::shared_ptr<ClientState> state = clientState(client);
  std::lock_guard lock(state->mutex);
  state->dirty.merge(bounds);
}

void DecisionEngine::noteMapChangedEverywhere(ClientId client) {
  const std::shared_ptr<ClientState> state = clientState(client);
  std::lock_guard lock(state->mutex);
  state->all_dirty = true;
  state->cache.valid = false;
}

void DecisionEngine::noteTrajectoryChanged(ClientId client) {
  const std::shared_ptr<ClientState> state = clientState(client);
  std::lock_guard lock(state->mutex);
  ++state->traj_version;
}

void DecisionEngine::selectStrategy(StrategyType type, int patience) {
  std::lock_guard lock(strategy_mutex_);
  strategy_ = type == StrategyType::Exhaustive
                  ? nullptr
                  : makeStrategy(type, config_.knobs, predictor_, patience);
  has_strategy_.store(strategy_ != nullptr, std::memory_order_release);
}

void DecisionEngine::resetStrategy() {
  std::lock_guard lock(strategy_mutex_);
  if (strategy_) strategy_->reset();
}

void DecisionEngine::reset() {
  resetStrategy();
  // Snapshot the live slots, then reset each under its own lock: no path
  // holds a slot lock while taking clients_mutex_, but keeping the
  // critical sections disjoint makes that invariant irrelevant.
  std::vector<std::shared_ptr<ClientState>> snapshot;
  {
    std::lock_guard lock(clients_mutex_);
    snapshot.reserve(clients_.size());
    for (auto& [id, state] : clients_) snapshot.push_back(state);
  }
  for (const auto& state : snapshot) {
    std::lock_guard lock(state->mutex);
    state->cache.valid = false;
    state->dirty = geom::Aabb::empty();
    state->all_dirty = true;
    ++state->traj_version;
  }
}

EngineStats DecisionEngine::stats() const {
  EngineStats out;
  out.decisions = stats_.decisions.load(std::memory_order_relaxed);
  out.solver_memo_hits = stats_.solver_memo_hits.load(std::memory_order_relaxed);
  out.solver_memo_misses = stats_.solver_memo_misses.load(std::memory_order_relaxed);
  out.strategy_decisions = stats_.strategy_decisions.load(std::memory_order_relaxed);
  out.profile_builds = stats_.profile_builds.load(std::memory_order_relaxed);
  out.profile_reuses = stats_.profile_reuses.load(std::memory_order_relaxed);
  return out;
}

void DecisionEngine::resetStats() {
  stats_.decisions.store(0, std::memory_order_relaxed);
  stats_.solver_memo_hits.store(0, std::memory_order_relaxed);
  stats_.solver_memo_misses.store(0, std::memory_order_relaxed);
  stats_.strategy_decisions.store(0, std::memory_order_relaxed);
  stats_.profile_builds.store(0, std::memory_order_relaxed);
  stats_.profile_reuses.store(0, std::memory_order_relaxed);
}

void exportStats(const EngineStats& stats, obs::MetricsRegistry& registry,
                 std::string_view prefix) {
  auto name = [&](const char* field) {
    std::string s(prefix);
    s += '.';
    s += field;
    return s;
  };
  registry.counter(name("decisions")).add(stats.decisions);
  registry.counter(name("solver_memo_hits")).add(stats.solver_memo_hits);
  registry.counter(name("solver_memo_misses")).add(stats.solver_memo_misses);
  registry.counter(name("strategy_decisions")).add(stats.strategy_decisions);
  registry.counter(name("profile_builds")).add(stats.profile_builds);
  registry.counter(name("profile_reuses")).add(stats.profile_reuses);
  registry.gauge(name("solver_memo_hit_rate")).set(stats.solverMemoHitRate());
}

}  // namespace roborun::core
