#include "scenario/catalog.h"

#include <algorithm>
#include <cstring>
#include <sstream>
#include <stdexcept>

#include "env/dynamic.h"
#include "geom/rng.h"

namespace roborun::scenario {

namespace {

/// splitmix64-style mixer: derives the per-case env/mission seeds from the
/// scenario seed. Or-1 keeps derived seeds nonzero (a zero EnvSpec seed is
/// legal but reserves the "unset" reading in logs).
std::uint64_t mixSeed(std::uint64_t seed, std::uint64_t salt) {
  std::uint64_t x = seed + 0x9E3779B97F4A7C15ULL * (salt + 1);
  x ^= x >> 30;
  x *= 0xBF58476D1CE4E5B9ULL;
  x ^= x >> 27;
  x *= 0x94D049BB133111EBULL;
  x ^= x >> 31;
  return x | 1;
}

double lerp(double a, double b, double t) { return a + (b - a) * t; }

/// Ramp position of case `i` among `n`: 0 -> 1 across the cases, or the
/// midpoint when the scenario expands a single case (a one-mission ramp
/// should be representative, not the extreme).
double caseFrac(std::size_t i, std::size_t n) {
  if (n <= 1) return 0.5;
  return static_cast<double>(i) / static_cast<double>(n - 1);
}

double clampedScale(const ScenarioSpec& spec) {
  return std::clamp(spec.scale, 0.05, 10.0);
}

double clampedIntensity(const ScenarioSpec& spec) {
  return std::clamp(spec.intensity, 0.0, 1.0);
}

/// Shared tail of every family: stamp scenario/case labels, seeds, and fan
/// one prototype case out over the requested design selection.
void pushCase(std::vector<MissionCase>& out, const ScenarioSpec& spec,
              const std::string& label, env::EnvSpec env, runtime::MissionConfig config,
              std::size_t case_index, bool engine_shareable = true) {
  env.seed = mixSeed(spec.seed, 2 * case_index);
  config.seed = mixSeed(spec.seed, 2 * case_index + 1);
  // Fault-injection dials ride along with EVERY family (this is the shared
  // tail of all expansions): any scenario line can arm the mission's
  // deterministic sim::FaultPlan. Clamps mirror FaultPlan's own sanitizing,
  // so a catalog typo degrades to the nearest sane schedule instead of UB.
  sim::FaultConfig& faults = config.faults;
  faults.blackout_rate =
      std::clamp(spec.param("fault_blackout_rate", faults.blackout_rate), 0.0, 1.0);
  faults.blackout_len = std::max(
      1, static_cast<int>(spec.param("fault_blackout_len", faults.blackout_len)));
  faults.blackout_visibility = std::max(
      0.01, spec.param("fault_blackout_visibility", faults.blackout_visibility));
  faults.dropout = std::clamp(spec.param("fault_dropout", faults.dropout), 0.0, 1.0);
  faults.spike_rate =
      std::clamp(spec.param("fault_spike_rate", faults.spike_rate), 0.0, 1.0);
  faults.spike_mag = std::max(1.0, spec.param("fault_spike_mag", faults.spike_mag));
  faults.poison_epoch =
      static_cast<int>(spec.param("fault_poison_epoch", faults.poison_epoch));
  // The intra-mission execution knob rides along the same way: any catalog
  // line can flip a scenario onto the pipelined executor (pipeline_async=1)
  // or pin it back to the sync anchor (pipeline_async=0) regardless of the
  // fleet-wide --pipeline default the base config carries.
  const bool base_async =
      config.pipeline.execution == runtime::ExecutionMode::Async;
  config.pipeline.execution =
      spec.param("pipeline_async", base_async ? 1.0 : 0.0) != 0.0
          ? runtime::ExecutionMode::Async
          : runtime::ExecutionMode::Sync;
  auto add = [&](runtime::DesignType design, const char* suffix) {
    MissionCase c;
    c.scenario = spec.displayName();
    c.label = label + suffix;
    c.env = env;
    c.design = design;
    c.config = config;
    c.engine_shareable = engine_shareable;
    out.push_back(std::move(c));
  };
  switch (spec.designs) {
    case DesignSelection::RoboRun:
      add(runtime::DesignType::RoboRun, "");
      break;
    case DesignSelection::Baseline:
      add(runtime::DesignType::SpatialOblivious, "");
      break;
    case DesignSelection::Both:
      add(runtime::DesignType::SpatialOblivious, "_baseline");
      add(runtime::DesignType::RoboRun, "_roborun");
      break;
  }
}

// --- generator families -----------------------------------------------------

/// Canyon/corridor gradient: across the cases the world narrows from an
/// open warehouse floor to a tight canyon — shrinking half-width, lowering
/// ceiling, thinning the carved aisle. The paper's high-precision regime,
/// served as a difficulty gradient.
std::vector<MissionCase> expandCorridorGradient(const ScenarioSpec& spec,
                                                const runtime::MissionConfig& base) {
  std::vector<MissionCase> out;
  const double s = clampedScale(spec);
  const double k = clampedIntensity(spec);
  for (std::size_t i = 0; i < spec.missions; ++i) {
    const double f = caseFrac(i, spec.missions);
    env::EnvSpec env;
    env.obstacle_density = 0.35 + 0.15 * k;
    env.obstacle_spread = lerp(55.0, 35.0, f) * s;
    env.goal_distance = spec.param("goal", 400.0) * s;
    env.world_half_width = lerp(56.0, 22.0, f * k);
    env.ceiling = lerp(30.0, 14.0, f * k);
    env.aisle_width = lerp(3.0, 2.0, f * k);
    pushCase(out, spec, "step" + std::to_string(i), env, base, i);
  }
  return out;
}

/// Clutter-density ramp: fixed geometry, obstacle density climbing from
/// sparse to the paper's congested regime across the cases.
std::vector<MissionCase> expandClutterRamp(const ScenarioSpec& spec,
                                           const runtime::MissionConfig& base) {
  std::vector<MissionCase> out;
  const double s = clampedScale(spec);
  const double k = clampedIntensity(spec);
  for (std::size_t i = 0; i < spec.missions; ++i) {
    const double f = caseFrac(i, spec.missions);
    env::EnvSpec env;
    env.obstacle_density = lerp(0.25, 0.25 + 0.4 * k, f);
    env.obstacle_spread = lerp(35.0, 60.0, f) * s;
    env.goal_distance = spec.param("goal", 380.0) * s;
    pushCase(out, spec, "step" + std::to_string(i), env, base, i);
  }
  return out;
}

/// Moving-obstacle swarm: a mid-density static world overlaid with an
/// env::swarmTraffic schedule whose population and speed climb across the
/// cases. Dials: count (peak movers), speed (m/s nominal).
std::vector<MissionCase> expandSwarmCrossing(const ScenarioSpec& spec,
                                             const runtime::MissionConfig& base) {
  std::vector<MissionCase> out;
  const double s = clampedScale(spec);
  const double k = clampedIntensity(spec);
  const double peak_count = spec.param("count", 2.0 + 10.0 * k);
  const double speed = spec.param("speed", 0.8 + 1.6 * k);
  for (std::size_t i = 0; i < spec.missions; ++i) {
    const double f = caseFrac(i, spec.missions);
    env::EnvSpec env;
    env.obstacle_density = 0.3;
    env.obstacle_spread = 45.0 * s;
    env.goal_distance = spec.param("goal", 420.0) * s;
    runtime::MissionConfig config = base;
    const auto movers = static_cast<std::size_t>(
        std::max(0.0, std::min(lerp(1.0, peak_count, f) + 0.5, 1000.0)));
    config.dynamic_obstacles =
        env::swarmTraffic(env, movers, speed, mixSeed(spec.seed, 1000 + i));
    pushCase(out, spec, "step" + std::to_string(i), env, config, i);
  }
  return out;
}

/// Multi-waypoint goal chain: one case per leg, each leg a freshly
/// generated space between consecutive waypoints — alternating open and
/// congested legs so the chain crosses heterogeneous space, which is where
/// the governor's spatial awareness pays. Dials: leg_min/leg_max (m,
/// pre-scale leg length bounds).
std::vector<MissionCase> expandGoalChain(const ScenarioSpec& spec,
                                         const runtime::MissionConfig& base) {
  std::vector<MissionCase> out;
  const double s = clampedScale(spec);
  const double k = clampedIntensity(spec);
  const double leg_min = spec.param("leg_min", 280.0);
  const double leg_max = spec.param("leg_max", 430.0);
  geom::Rng rng(mixSeed(spec.seed, 0xC4A1));
  for (std::size_t i = 0; i < spec.missions; ++i) {
    env::EnvSpec env;
    env.goal_distance = rng.uniform(std::min(leg_min, leg_max), std::max(leg_min, leg_max)) * s;
    env.obstacle_density = (i % 2 == 1) ? 0.3 + 0.25 * k : 0.3;
    env.obstacle_spread = rng.uniform(35.0, 55.0) * s;
    pushCase(out, spec, "leg" + std::to_string(i), env, base, i);
  }
  return out;
}

/// Weather front / sensor degradation: per-zone ambient visibility collapses
/// and the depth cameras lose range as the front deepens across the cases —
/// the paper's fourth spatial feature served as a ramp. Dials: floor (m,
/// worst zone-B visibility).
std::vector<MissionCase> expandWeatherFront(const ScenarioSpec& spec,
                                            const runtime::MissionConfig& base) {
  std::vector<MissionCase> out;
  const double s = clampedScale(spec);
  const double k = clampedIntensity(spec);
  const double floor = spec.param("floor", 10.0);
  for (std::size_t i = 0; i < spec.missions; ++i) {
    const double f = caseFrac(i, spec.missions);
    env::EnvSpec env;
    env.obstacle_density = 0.35;
    env.obstacle_spread = 50.0 * s;
    env.goal_distance = spec.param("goal", 380.0) * s;
    const double vis = lerp(60.0, std::max(floor, 2.0), f * k);
    env.visibility_zone_a = vis * 1.5;
    env.visibility_zone_b = vis;
    env.visibility_zone_c = vis * 0.75;
    runtime::MissionConfig config = base;
    config.sensor.range = base.sensor.range * lerp(1.0, 0.55, f * k);
    pushCase(out, spec, "step" + std::to_string(i), env, config, i);
  }
  return out;
}

/// Compound stressor: clutter ramp + swarm schedule + a mild weather front
/// at once — the kitchen-sink shard for fleet soak runs.
std::vector<MissionCase> expandMixedStress(const ScenarioSpec& spec,
                                           const runtime::MissionConfig& base) {
  std::vector<MissionCase> out;
  const double s = clampedScale(spec);
  const double k = clampedIntensity(spec);
  for (std::size_t i = 0; i < spec.missions; ++i) {
    const double f = caseFrac(i, spec.missions);
    env::EnvSpec env;
    env.obstacle_density = lerp(0.3, 0.3 + 0.3 * k, f);
    env.obstacle_spread = 45.0 * s;
    env.goal_distance = spec.param("goal", 400.0) * s;
    // Same monotonically-deepening front shape as weather_front, milder.
    const double vis = lerp(80.0, 25.0, f * k);
    env.visibility_zone_a = vis * 1.5;
    env.visibility_zone_b = vis;
    env.visibility_zone_c = vis * 0.75;
    runtime::MissionConfig config = base;
    const auto movers =
        static_cast<std::size_t>(std::max(0.0, lerp(1.0, 1.0 + 6.0 * k, f) + 0.5));
    config.dynamic_obstacles = env::swarmTraffic(
        env, movers, 0.7 + 1.2 * k, mixSeed(spec.seed, 2000 + i));
    pushCase(out, spec, "step" + std::to_string(i), env, config, i);
  }
  return out;
}

const std::vector<FamilyInfo> kFamilies = {
    {"corridor_gradient",
     "canyon/corridor narrowing: open floor -> tight aisle across the cases",
     "goal=400", expandCorridorGradient},
    {"clutter_ramp", "obstacle-density ramp at fixed geometry", "goal=380",
     expandClutterRamp},
    {"swarm_crossing",
     "moving-obstacle swarm over the whole corridor, growing across the cases",
     "count=2+10*intensity speed=0.8+1.6*intensity goal=420", expandSwarmCrossing},
    {"goal_chain",
     "multi-waypoint chain: one leg per case through alternating open/congested space",
     "leg_min=280 leg_max=430", expandGoalChain},
    {"weather_front",
     "per-zone visibility collapse + sensor-range degradation deepening across the cases",
     "floor=10 goal=380", expandWeatherFront},
    {"mixed_stress", "clutter + swarm + weather compounding at once", "goal=400",
     expandMixedStress},
};

}  // namespace

const std::vector<FamilyInfo>& families() { return kFamilies; }

void printFamilies(std::ostream& os) {
  for (const FamilyInfo& f : kFamilies) {
    os << "  " << f.name << "\n    " << f.summary << "\n";
    if (f.params[0] != '\0') os << "    dials: " << f.params << "\n";
  }
  os << "  shared fault dials (every family): fault_blackout_rate fault_blackout_len\n"
        "    fault_blackout_visibility fault_dropout fault_spike_rate fault_spike_mag\n"
        "    fault_poison_epoch  (deterministic injection; see sim/fault_plan.h)\n";
  os << "  shared pipeline dial (every family): pipeline_async=0|1 — run the\n"
        "    scenario's missions under the intra-mission pipelined executor\n"
        "    instead of the sync anchor (see runtime/pipeline.h)\n";
  os << "catalog file grammar: scenario <family> [key=value]...  "
        "(see src/scenario/catalog_file.h)\n";
}

const FamilyInfo* findFamily(const std::string& name) {
  for (const FamilyInfo& f : kFamilies)
    if (name == f.name) return &f;
  return nullptr;
}

std::vector<MissionCase> expandScenario(const ScenarioSpec& spec,
                                        const runtime::MissionConfig& base) {
  const FamilyInfo* family = findFamily(spec.family);
  if (family == nullptr)
    throw std::invalid_argument("unknown scenario family: " + spec.family);
  return family->expand(spec, base);
}

std::vector<ScenarioSpec> builtinCatalog(std::uint64_t base_seed, double scale,
                                         std::size_t missions) {
  std::vector<ScenarioSpec> catalog;
  std::uint64_t i = 0;
  for (const FamilyInfo& f : kFamilies) {
    ScenarioSpec spec;
    spec.family = f.name;
    spec.seed = base_seed + 100 * (++i);
    spec.missions = std::max<std::size_t>(missions, 1);
    spec.scale = scale;
    catalog.push_back(std::move(spec));
  }
  return catalog;
}

std::vector<MissionCase> gridCases(const env::SuiteKnobs& knobs, std::size_t seeds,
                                   const runtime::MissionConfig& base,
                                   std::size_t max_envs) {
  std::vector<env::EnvSpec> specs = env::evaluationSuite(42, knobs);
  if (max_envs > 0 && specs.size() > max_envs) specs.resize(max_envs);
  std::vector<MissionCase> cases;
  for (const env::EnvSpec& spec : specs) {
    for (const runtime::DesignType design :
         {runtime::DesignType::SpatialOblivious, runtime::DesignType::RoboRun}) {
      for (std::size_t s = 0; s < seeds; ++s) {
        MissionCase c;
        c.scenario = runtime::designName(design);
        c.env = spec;
        c.design = design;
        c.config = base;
        c.config.seed = base.seed + s;
        c.label = spec.label();  // appends dodge GCC 12's -Wrestrict (GCC bug 105651)
        c.label += "/mission";
        c.label += std::to_string(c.config.seed);
        cases.push_back(std::move(c));
      }
    }
  }
  return cases;
}

namespace {

/// Exact bit pattern of a double — describeCases() must distinguish what
/// bitwise replay distinguishes, so no decimal rounding anywhere.
void putBits(std::ostringstream& os, double v) {
  std::uint64_t bits = 0;
  std::memcpy(&bits, &v, sizeof(bits));
  os << std::hex << bits << std::dec;
}

}  // namespace

std::string describeCases(const std::vector<MissionCase>& cases) {
  std::ostringstream os;
  os << "cases " << cases.size() << "\n";
  for (const MissionCase& c : cases) os << describeCase(c);
  return os.str();
}

std::string describeCase(const MissionCase& c) {
  std::ostringstream os;
  {
    os << c.scenario << "/" << c.label << " design=" << runtime::designName(c.design)
       << " shareable=" << (c.engine_shareable ? 1 : 0) << "\n env";
    const env::EnvSpec& e = c.env;
    for (const double v : {e.obstacle_density, e.obstacle_spread, e.goal_distance,
                           e.world_half_width, e.ceiling, e.margin, e.cell, e.aisle_width,
                           e.clear_pocket, e.flight_altitude, e.visibility_zone_a,
                           e.visibility_zone_b, e.visibility_zone_c}) {
      os << ' ';
      putBits(os, v);
    }
    os << " seed=" << e.seed << "\n cfg seed=" << c.config.seed << " pipeline="
       << runtime::executionModeName(c.config.pipeline.execution) << " sensor";
    for (const double v : {c.config.sensor.range, c.config.sensor.weather_visibility}) {
      os << ' ';
      putBits(os, v);
    }
    os << ' ' << c.config.sensor.rays_horizontal << 'x' << c.config.sensor.rays_vertical
       << "\n faults";
    const sim::FaultConfig& f = c.config.faults;
    for (const double v : {f.blackout_rate, f.blackout_visibility, f.dropout,
                           f.spike_rate, f.spike_mag}) {
      os << ' ';
      putBits(os, v);
    }
    os << ' ' << f.blackout_len << ' ' << f.poison_epoch
       << "\n movers " << c.config.dynamic_obstacles.size();
    for (const env::MovingObstacle& o : c.config.dynamic_obstacles.obstacles()) {
      os << "\n  ";
      for (const double v : {o.base.x, o.base.y, o.base.z, o.direction.x, o.direction.y,
                             o.direction.z, o.speed, o.patrol_span, o.phase, o.radius,
                             o.height}) {
        putBits(os, v);
        os << ' ';
      }
    }
    os << "\n";
  }
  return os.str();
}

}  // namespace roborun::scenario
