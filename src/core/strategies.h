// Alternative governor solver strategies — the design-choice ablation for
// Eq. 3 (bench/paper_report.cpp's governor-ablation section).
//
// The paper solves a joint constrained optimization over all six knobs each
// decision. This module provides the strategies a simpler system would use,
// all honoring the same KnobEnvelope safety constraints, so the bench can
// quantify what the joint solver actually buys:
//
//   * Exhaustive    — the Eq. 3 reference solver (GovernorSolver).
//   * Greedy        — start at the finest demanded knobs and greedily coarsen
//                     the single knob with the best latency saving per step
//                     until the budget fits. Cheap, near-optimal in practice.
//   * UniformSplit  — give every stage budget/3 and solve each independently,
//                     ignoring cross-stage interaction (the strawman).
//   * Hysteresis    — decorator over any strategy that rate-limits precision
//                     changes across consecutive decisions, trading some
//                     budget fit for policy stability (less knob thrash and
//                     therefore fewer map rebuilds in a real deployment).
#pragma once

#include <memory>
#include <string>

#include "core/solver.h"

namespace roborun::core {

/// A policy source for one decision. Stateful strategies (hysteresis) keep
/// history across calls, hence the non-const solve.
class SolverStrategy {
 public:
  virtual ~SolverStrategy() = default;
  virtual SolverResult solve(const SolverInputs& inputs) = 0;
  virtual std::string name() const = 0;
  /// Forget any cross-decision state (start of a new mission).
  virtual void reset() {}
};

/// The Eq. 3 reference solver behind the SolverStrategy interface.
class ExhaustiveStrategy final : public SolverStrategy {
 public:
  ExhaustiveStrategy(const KnobConfig& knobs, const LatencyPredictor& predictor)
      : solver_(knobs, predictor) {}
  SolverResult solve(const SolverInputs& inputs) override { return solver_.solve(inputs); }
  std::string name() const override { return "exhaustive (Eq. 3)"; }

 private:
  GovernorSolver solver_;
};

/// Greedy knob descent: begin at the finest demanded precision with full
/// demanded volume; while over budget, apply the single one-rung coarsening
/// (p0, p1) or volume halving with the largest predicted latency reduction.
class GreedyStrategy final : public SolverStrategy {
 public:
  GreedyStrategy(const KnobConfig& knobs, const LatencyPredictor& predictor)
      : knobs_(knobs), predictor_(&predictor) {}
  SolverResult solve(const SolverInputs& inputs) override;
  std::string name() const override { return "greedy descent"; }

 private:
  KnobConfig knobs_;
  const LatencyPredictor* predictor_;
};

/// Budget split evenly across the three stages, each solved independently:
/// the coarsest precision/largest volume fitting budget/3 per stage (subject
/// to the envelope). Ignores that stages share one budget pool, so it both
/// over- and under-provisions depending on which stage is loaded.
class UniformSplitStrategy final : public SolverStrategy {
 public:
  UniformSplitStrategy(const KnobConfig& knobs, const LatencyPredictor& predictor)
      : knobs_(knobs), predictor_(&predictor) {}
  SolverResult solve(const SolverInputs& inputs) override;
  std::string name() const override { return "uniform split"; }

 private:
  KnobConfig knobs_;
  const LatencyPredictor* predictor_;
};

/// Rate-limits the inner strategy's perception-precision moves to one ladder
/// rung per decision, and only lets precision *coarsen* after `patience`
/// consecutive decisions requesting it (finer-precision demands — the safety
/// direction — pass through immediately).
class HysteresisStrategy final : public SolverStrategy {
 public:
  HysteresisStrategy(std::unique_ptr<SolverStrategy> inner, const KnobConfig& knobs,
                     const LatencyPredictor& predictor, int patience = 3)
      : inner_(std::move(inner)), knobs_(knobs), predictor_(&predictor),
        patience_(patience) {}
  SolverResult solve(const SolverInputs& inputs) override;
  std::string name() const override { return "hysteresis(" + inner_->name() + ")"; }
  void reset() override;

 private:
  std::unique_ptr<SolverStrategy> inner_;
  KnobConfig knobs_;
  const LatencyPredictor* predictor_;
  int patience_;
  bool has_last_ = false;
  double last_p0_ = 0.0;
  int coarsen_streak_ = 0;
};

/// Strategy selector for configs (mission runner, benches, CLI).
enum class StrategyType {
  Exhaustive,
  Greedy,
  UniformSplit,
  HysteresisExhaustive,
  HysteresisGreedy,
};

const char* strategyName(StrategyType type);

/// Build a strategy. `patience` applies to the hysteresis wrappers.
std::unique_ptr<SolverStrategy> makeStrategy(StrategyType type, const KnobConfig& knobs,
                                             const LatencyPredictor& predictor,
                                             int patience = 3);

}  // namespace roborun::core
