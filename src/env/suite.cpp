#include "env/suite.h"

namespace roborun::env {

SuiteKnobs smokeSuiteKnobs() {
  SuiteKnobs knobs;
  knobs.densities = {0.45};
  knobs.spreads = {22.0};
  knobs.goal_distances = {140.0};
  return knobs;
}

SuiteKnobs smallSuiteKnobs() {
  SuiteKnobs knobs;
  knobs.spreads = {25.0, 40.0, 55.0};
  knobs.goal_distances = {250.0, 375.0, 500.0};
  return knobs;
}

bool parseSuitePreset(const std::string& name, SuiteKnobs& out) {
  if (name == "smoke") out = smokeSuiteKnobs();
  else if (name == "small") out = smallSuiteKnobs();
  else if (name == "paper") out = SuiteKnobs{};
  else return false;
  return true;
}

std::vector<EnvSpec> evaluationSuite(std::uint64_t base_seed, const SuiteKnobs& knobs) {
  std::vector<EnvSpec> specs;
  specs.reserve(knobs.densities.size() * knobs.spreads.size() * knobs.goal_distances.size());
  std::uint64_t i = 0;
  for (const double d : knobs.densities) {
    for (const double s : knobs.spreads) {
      for (const double g : knobs.goal_distances) {
        EnvSpec spec;
        spec.obstacle_density = d;
        spec.obstacle_spread = s;
        spec.goal_distance = g;
        spec.seed = base_seed + 1000 * (++i);
        specs.push_back(spec);
      }
    }
  }
  return specs;
}

EnvSpec representativeSpec(std::uint64_t base_seed) {
  EnvSpec spec;
  spec.obstacle_density = 0.45;
  spec.obstacle_spread = 80.0;
  spec.goal_distance = 900.0;
  spec.seed = base_seed + 14000;  // mid cell of the suite
  return spec;
}

}  // namespace roborun::env
