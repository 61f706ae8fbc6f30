#include "core/decision_engine.h"

#include <algorithm>
#include <bit>

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
                                                 const geom::Vec3& travel_dir) {
  EngineDecision out;
  {
    obs::ScopedSpan obs_profile(config_.spans, obs::Stage::Govern, "profile");
    out.profile = profile(frame, map, trajectory, position, velocity, travel_dir);
  }
  out.decision = decide(out.profile);
  return out;
}

// --- space profiling --------------------------------------------------------

SpaceProfile DecisionEngine::profile(const sim::SensorFrame& frame,
                                     const perception::OccupancyOctree& map,
                                     const planning::Trajectory& trajectory,
                                     const geom::Vec3& position, const geom::Vec3& velocity,
                                     const geom::Vec3& travel_dir) {
  // profileSpace samples occupancy along the trajectory only when it has at
  // least two points; profile_builds counts those sample passes.
  if (trajectory.size() >= 2) stats_.profile_builds.fetch_add(1, std::memory_order_relaxed);
  return profileSpace(frame, map, trajectory, position, velocity, travel_dir, config_.profiler);
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

EngineStats DecisionEngine::stats() const {
  EngineStats out;
  out.decisions = stats_.decisions.load(std::memory_order_relaxed);
  out.solver_memo_hits = stats_.solver_memo_hits.load(std::memory_order_relaxed);
  out.solver_memo_misses = stats_.solver_memo_misses.load(std::memory_order_relaxed);
  out.strategy_decisions = stats_.strategy_decisions.load(std::memory_order_relaxed);
  out.profile_builds = stats_.profile_builds.load(std::memory_order_relaxed);
  return out;
}

void DecisionEngine::resetStats() {
  stats_.decisions.store(0, std::memory_order_relaxed);
  stats_.solver_memo_hits.store(0, std::memory_order_relaxed);
  stats_.solver_memo_misses.store(0, std::memory_order_relaxed);
  stats_.strategy_decisions.store(0, std::memory_order_relaxed);
  stats_.profile_builds.store(0, std::memory_order_relaxed);
}

}  // namespace roborun::core
