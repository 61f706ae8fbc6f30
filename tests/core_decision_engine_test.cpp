// Unit tests for core::DecisionEngine: governor parity with the frozen
// reference governor, strategy state across decisions, the shared-engine
// thread-safety contract, and the single-sourced fixed_overhead contract (the 0.26/0.27 drift
// regression).
#include <gtest/gtest.h>

#include <cstring>
#include <thread>
#include <vector>

#include "core/decision_engine.h"
#include "core/latency_calibration.h"
#include "geom/rng.h"
#include "reference_governor.h"

namespace roborun::core {
namespace {

using geom::Rng;

bool bitEqual(double a, double b) { return std::memcmp(&a, &b, sizeof(double)) == 0; }

LatencyPredictor calibrated(const KnobConfig& knobs = {}) {
  const sim::LatencyModel model;
  return calibratePredictor(model, knobs).predictor;
}

SpaceProfile openSpaceProfile() {
  SpaceProfile p;
  p.gap_avg = 100.0;
  p.gap_min = 100.0;
  p.d_obstacle = 30.0;
  p.d_unknown = 30.0;
  p.sensor_volume = 113000.0;
  p.map_volume = 90000.0;
  p.velocity = 2.5;
  p.visibility = 30.0;
  p.waypoints.push_back({geom::Vec3{}, 2.5, 30.0, 0.0});
  return p;
}

SpaceProfile congestedProfile() {
  SpaceProfile p;
  p.gap_avg = 3.0;
  p.gap_min = 1.0;
  p.d_obstacle = 2.0;
  p.d_unknown = 4.0;
  p.sensor_volume = 113000.0;
  p.map_volume = 60000.0;
  p.velocity = 0.8;
  p.visibility = 4.0;
  p.waypoints.push_back({geom::Vec3{}, 0.8, 4.0, 0.0});
  return p;
}

SpaceProfile randomProfile(Rng& rng) {
  SpaceProfile p;
  p.gap_min = rng.uniform(0.5, 20.0);
  p.gap_avg = p.gap_min + rng.uniform(0.0, 60.0);
  p.d_obstacle = rng.uniform(0.5, 30.0);
  p.d_unknown = rng.uniform(1.0, 40.0);
  p.sensor_volume = rng.uniform(20000.0, 120000.0);
  p.map_volume = rng.uniform(10000.0, 120000.0);
  p.velocity = rng.uniform(0.1, 3.0);
  p.visibility = rng.uniform(2.0, 30.0);
  p.waypoints.push_back({geom::Vec3{}, std::max(p.velocity, 0.05), p.visibility, 0.0});
  return p;
}

void expectSameDecision(const GovernorDecision& a, const GovernorDecision& b) {
  EXPECT_TRUE(bitEqual(a.budget, b.budget));
  EXPECT_EQ(a.budget_met, b.budget_met);
  EXPECT_TRUE(bitEqual(a.solver_objective, b.solver_objective));
  for (std::size_t i = 0; i < kNumStages; ++i) {
    EXPECT_TRUE(bitEqual(a.policy.stages[i].precision, b.policy.stages[i].precision));
    EXPECT_TRUE(bitEqual(a.policy.stages[i].volume, b.policy.stages[i].volume));
  }
  EXPECT_TRUE(bitEqual(a.policy.deadline, b.policy.deadline));
  EXPECT_TRUE(bitEqual(a.policy.predicted_latency, b.policy.predicted_latency));
}

// --- fixed_overhead single-sourcing (regression for the 0.26/0.27 drift) ---

TEST(FixedOverheadTest, SingleSourcedAcrossEveryConsumer) {
  EXPECT_DOUBLE_EQ(kDefaultFixedOverhead, 0.27);
  EXPECT_DOUBLE_EQ(KnobConfig{}.fixed_overhead, kDefaultFixedOverhead);
  // The drift bug: SolverInputs used to default to 0.26 while the governor
  // used 0.27. Both must now come from the same constant.
  EXPECT_DOUBLE_EQ(SolverInputs{}.fixed_overhead, kDefaultFixedOverhead);
  EXPECT_DOUBLE_EQ(SolverInputs{}.fixed_overhead, KnobConfig{}.fixed_overhead);

  const KnobConfig knobs;
  DecisionEngine::Config config;
  config.knobs = knobs;
  const DecisionEngine engine(config, calibrated(knobs));
  EXPECT_DOUBLE_EQ(engine.fixedOverhead(), knobs.fixed_overhead);
}

TEST(FixedOverheadTest, CustomValuePropagates) {
  KnobConfig knobs;
  knobs.fixed_overhead = 0.4;
  DecisionEngine::Config config;
  config.knobs = knobs;
  DecisionEngine engine(config, calibrated(knobs));
  EXPECT_DOUBLE_EQ(engine.fixedOverhead(), 0.4);

  // Observable effect: with the whole budget consumed by overhead, the
  // predicted latency still includes it.
  SpaceProfile tight = congestedProfile();
  tight.waypoints[0].visibility = 0.6;  // tiny budget
  const GovernorDecision decision = engine.decide(tight);
  EXPECT_GE(decision.policy.predicted_latency, 0.4 - 1e-12);
}

// --- engine == frozen reference governor over random inputs -----------------

TEST(DecisionEngineTest, MatchesLiveGovernorOverRandomProfiles) {
  const KnobConfig knobs;
  const LatencyPredictor predictor = calibrated(knobs);
  DecisionEngine::Config config;
  config.knobs = knobs;
  DecisionEngine engine(config, predictor);
  reference::RoboRunGovernor governor(knobs, BudgeterConfig{}, predictor);

  Rng rng(7);
  for (int i = 0; i < 100; ++i) {
    const SpaceProfile profile = randomProfile(rng);
    expectSameDecision(engine.decide(profile), governor.decide(profile));
  }
}

TEST(DecisionEngineTest, StatsCountDecisions) {
  DecisionEngine::Config config;
  DecisionEngine engine(config, calibrated());
  for (int i = 0; i < 5; ++i) (void)engine.decide(openSpaceProfile());
  EXPECT_EQ(engine.stats().decisions, 5u);
}

// --- strategy cross-decision state ------------------------------------------

TEST(DecisionEngineStrategyTest, HysteresisPatienceAcrossDecideSequence) {
  // Same patience semantics as the raw HysteresisStrategy, but exercised
  // through the engine's decide() sequence: establish fine knobs in
  // congestion, then demand coarse in open space — held for `patience`-1
  // decisions, then released one rung at a time.
  const KnobConfig knobs;
  const LatencyPredictor predictor = calibrated(knobs);
  DecisionEngine::Config config;
  config.knobs = knobs;
  DecisionEngine engine(config, predictor);
  engine.selectStrategy(StrategyType::HysteresisExhaustive, 3);

  const double fine_p0 =
      engine.decide(congestedProfile()).policy.stage(Stage::Perception).precision;

  const auto h1 = engine.decide(openSpaceProfile());
  EXPECT_DOUBLE_EQ(h1.policy.stage(Stage::Perception).precision, fine_p0);
  const auto h2 = engine.decide(openSpaceProfile());
  EXPECT_DOUBLE_EQ(h2.policy.stage(Stage::Perception).precision, fine_p0);
  const auto h3 = engine.decide(openSpaceProfile());
  EXPECT_DOUBLE_EQ(h3.policy.stage(Stage::Perception).precision, fine_p0 * 2.0);
}

TEST(DecisionEngineStrategyTest, StrategyDecisionsAreCounted) {
  DecisionEngine::Config config;
  DecisionEngine engine(config, calibrated());
  engine.selectStrategy(StrategyType::Greedy);
  (void)engine.decide(openSpaceProfile());
  (void)engine.decide(openSpaceProfile());
  const EngineStats stats = engine.stats();
  EXPECT_EQ(stats.strategy_decisions, 2u);
  EXPECT_EQ(stats.decisions, 2u);
}

// --- concurrent sharing ----------------------------------------------------

TEST(DecisionEngineConcurrencyTest, SharedEngineGivesEachThreadSeedAnswers) {
  // Several threads hammer one engine with their own profile streams; every
  // answer must equal the frozen reference governor's. The threads share
  // only the atomic stats counters, so sharing must be observationally
  // invisible. This is the engine's case in the tsan lane's filter.
  const KnobConfig knobs;
  const LatencyPredictor predictor = calibrated(knobs);
  DecisionEngine::Config config;
  config.knobs = knobs;
  DecisionEngine shared(config, predictor);

  constexpr int kThreads = 4;
  constexpr int kDecisions = 60;
  std::vector<std::vector<GovernorDecision>> got(kThreads);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      Rng rng(1000 + static_cast<std::uint64_t>(t));
      for (int i = 0; i < kDecisions; ++i) got[static_cast<std::size_t>(t)].push_back(
          shared.decide(randomProfile(rng)));
    });
  }
  for (auto& th : threads) th.join();

  for (int t = 0; t < kThreads; ++t) {
    reference::RoboRunGovernor governor(knobs, BudgeterConfig{}, predictor);
    Rng rng(1000 + static_cast<std::uint64_t>(t));
    for (int i = 0; i < kDecisions; ++i)
      expectSameDecision(got[static_cast<std::size_t>(t)][static_cast<std::size_t>(i)],
                         governor.decide(randomProfile(rng)));
  }
  EXPECT_EQ(shared.stats().decisions, static_cast<std::uint64_t>(kThreads * kDecisions));
}

}  // namespace
}  // namespace roborun::core
