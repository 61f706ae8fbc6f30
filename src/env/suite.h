// The paper's 27-environment evaluation suite (Fig. 8a):
// obstacle density x spread x goal distance, 3 values each.
#pragma once

#include <string>
#include <vector>

#include "env/env_spec.h"

namespace roborun::env {

/// The knob values from Fig. 8a.
struct SuiteKnobs {
  std::vector<double> densities{0.3, 0.45, 0.6};
  std::vector<double> spreads{40.0, 80.0, 120.0};
  std::vector<double> goal_distances{600.0, 900.0, 1200.0};
};

/// One very short mid-density cell: drives the whole loop end to end in
/// seconds (the CTest and CI smoke grid).
SuiteKnobs smokeSuiteKnobs();

/// Fig. 8a's 3x3x3 structure shrunk to short missions (spreads 25-55 m,
/// goals 250-500 m): the reduced-scale grid of the benches and tests.
SuiteKnobs smallSuiteKnobs();

/// Named preset: "smoke", "small", or "paper" (SuiteKnobs{}, Fig. 8a
/// itself). False, `out` untouched, on any other name.
bool parseSuitePreset(const std::string& name, SuiteKnobs& out);

/// All 27 specs (full cross product), seeds derived deterministically from
/// `base_seed` so the whole suite replays.
std::vector<EnvSpec> evaluationSuite(std::uint64_t base_seed = 42,
                                     const SuiteKnobs& knobs = SuiteKnobs{});

/// The paper's "mid-range difficulty" representative environment
/// (density 0.45, spread 80 m, goal 900 m) used for Figs. 9-11.
EnvSpec representativeSpec(std::uint64_t base_seed = 42);

}  // namespace roborun::env
