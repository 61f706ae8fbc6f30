// Ablation — the Eq. 3 solver vs fixed knob corner points.
//
// The solver's job is to land the predicted pipeline latency on the budget
// while honoring the space demands. We compare it against three fixed
// policies (static worst-case, static coarsest, static mid) across a
// distribution of profiles/budgets, measuring budget violations and budget
// under-use (quality left on the table).

#include <iostream>

#include "bench_common.h"
#include "core/latency_calibration.h"
#include "core/solver.h"
#include "geom/rng.h"
#include "geom/stats.h"

namespace {

using namespace roborun;

core::PipelinePolicy fixedPolicy(double precision, double v0, double v1) {
  core::PipelinePolicy p;
  p.stage(core::Stage::Perception) = {precision, v0};
  p.stage(core::Stage::PerceptionToPlanning) = {precision, v1};
  p.stage(core::Stage::Planning) = {precision, v1};
  return p;
}

}  // namespace

int main() {
  runtime::printBanner(std::cout, "Ablation: Eq. 3 solver vs fixed knob policies");

  const sim::LatencyModel model;
  const core::KnobConfig knobs;
  const auto calib = core::calibratePredictor(model, knobs);
  const core::GovernorSolver solver(knobs, calib.predictor);

  struct Candidate {
    const char* name;
    core::PipelinePolicy policy;
    bool is_solver;
  };
  std::vector<Candidate> candidates{
      {"solver (Eq. 3)", {}, true},
      {"static fine (Table II)", fixedPolicy(0.3, 46000, 150000), false},
      {"static mid", fixedPolicy(1.2, 30000, 80000), false},
      {"static coarse", fixedPolicy(9.6, 10000, 20000), false},
  };

  const double fixed_overhead = 0.27;
  geom::Rng rng(505);
  const int trials = 400;

  std::cout << "  policy                  | violation rate | mean budget use | mean |budget-lat|\n";
  std::cout << "  ------------------------+----------------+-----------------+------------------\n";
  for (auto& cand : candidates) {
    std::size_t violations = 0;
    geom::RunningStats use;
    geom::RunningStats gap;
    geom::Rng trial_rng = rng;  // same profile stream for every candidate
    for (int t = 0; t < trials; ++t) {
      core::SpaceProfile prof;
      prof.gap_avg = trial_rng.uniform(1.0, 100.0);
      prof.gap_min = trial_rng.uniform(0.5, prof.gap_avg);
      prof.d_obstacle = trial_rng.uniform(0.5, 30.0);
      prof.sensor_volume = 113000.0;
      prof.map_volume = trial_rng.uniform(2000.0, 150000.0);
      prof.visibility = trial_rng.uniform(2.0, 30.0);
      const double budget = trial_rng.uniform(0.4, 10.0);

      double latency = 0.0;
      if (cand.is_solver) {
        core::SolverInputs inputs;
        inputs.budget = budget;
        inputs.fixed_overhead = fixed_overhead;
        inputs.profile = prof;
        latency = solver.solve(inputs).policy.predicted_latency;
      } else {
        latency = fixed_overhead + calib.predictor.predictTotal(cand.policy);
      }
      if (latency > budget * 1.001) ++violations;
      use.add(std::min(latency / budget, 1.0));
      gap.add(std::abs(budget - latency));
    }
    std::cout << "  " << std::left << std::setw(23) << cand.name << " | " << std::right
              << std::setw(13) << std::fixed << std::setprecision(1)
              << 100.0 * violations / trials << "% | " << std::setw(14)
              << 100.0 * use.mean() << "% | " << std::setw(15) << std::setprecision(3)
              << gap.mean() << " s\n";
  }
  std::cout << "  fixed-fine blows through tight budgets; the solver stays (nearly)\n"
               "  violation-free while using more of the budget than any other\n"
               "  non-violating policy (it spends only what the space demands allow:\n"
               "  when demands saturate below the budget, leftover budget is not a\n"
               "  defect but headroom — see paper_report's co-task section).\n";
  return 0;
}
