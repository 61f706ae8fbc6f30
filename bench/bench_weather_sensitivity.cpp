// Extension bench — sensitivity to ambient (weather) visibility.
//
// Visibility is the paper's fourth spatial-heterogeneity feature: it bounds
// the deadline regardless of congestion (Fig. 2b's per-visibility curves,
// Fig. 4's foggy panels). This bench sweeps a global weather-visibility cap
// and a per-zone fog pattern (clear warehouse, hazy disaster zone) and
// measures both designs. The claim under test: RoboRun converts every meter
// of visibility into velocity — it degrades gradually with fog — while the
// baseline, designed for worst-case visibility, barely notices until the
// fog is thicker than its design point (and then fails outright).

#include <iostream>

#include "bench_common.h"
#include "geom/stats.h"
#include "runtime/trace.h"
#include "viz/svg_plot.h"

int main() {
  using namespace roborun;
  runtime::printBanner(std::cout, "Extension: weather-visibility sensitivity");

  env::EnvSpec spec;
  spec.obstacle_density = 0.4;
  spec.obstacle_spread = bench::fullScale() ? 80.0 : 40.0;
  spec.goal_distance = bench::fullScale() ? 900.0 : 400.0;
  spec.seed = 3;
  const auto environment = env::generateEnvironment(spec);
  auto config = bench::benchMissionConfig();

  const std::vector<double> visibilities{30.0, 20.0, 12.0, 8.0, 5.0};

  runtime::CsvWriter csv((bench::outDir() / "weather_sensitivity.csv").string());
  csv.header({"design", "weather_visibility_m", "reached", "mission_time_s",
              "avg_velocity_mps", "median_deadline_s"});
  viz::SvgPlot plot("Mission velocity vs weather visibility", "visibility cap (m)",
                    "avg velocity (m/s)");
  viz::Series series_baseline{"spatial oblivious", {}, {}, "", true, true};
  viz::Series series_roborun{"roborun", {}, {}, "", false, true};

  std::cout << "  design            | visibility | outcome      | time (s) | vel (m/s) | "
               "median deadline (s)\n";
  for (const double visibility : visibilities) {
    for (const auto design :
         {runtime::DesignType::SpatialOblivious, runtime::DesignType::RoboRun}) {
      auto run_config = config;
      run_config.sensor.weather_visibility = visibility;
      const auto result = runtime::runMission(environment, design, run_config);
      std::vector<double> deadlines;
      for (const auto& rec : result.records) deadlines.push_back(rec.deadline);
      const double median_deadline = deadlines.empty() ? 0.0 : geom::median(deadlines);
      std::cout << "  " << std::setw(17) << std::left << runtime::designName(design)
                << std::right << " | " << std::setw(10) << visibility << " | "
                << std::setw(12)
                << (result.reached_goal() ? "reached goal"
                                        : result.collided() ? "collided" : "timed out")
                << " | " << std::setw(8) << std::fixed << std::setprecision(1)
                << result.mission_time << " | " << std::setw(9) << std::setprecision(2)
                << result.averageVelocity() << " | " << std::setw(8)
                << std::setprecision(2) << median_deadline << "\n";
      csv.row({design == runtime::DesignType::RoboRun ? 1.0 : 0.0, visibility,
               result.reached_goal() ? 1.0 : 0.0, result.mission_time,
               result.averageVelocity(), median_deadline});
      auto& series = design == runtime::DesignType::RoboRun ? series_roborun
                                                            : series_baseline;
      if (result.reached_goal()) {
        series.x.push_back(visibility);
        series.y.push_back(result.averageVelocity());
      }
    }
  }
  plot.addSeries(series_baseline);
  plot.addSeries(series_roborun);
  plot.write((bench::outDir() / "weather_sensitivity.svg").string());

  // Per-zone fog: clear warehouses, hazy zone B (a dusty disaster
  // corridor). 5 m of visibility forces Eq. 1 below the velocity cap, so
  // the fog actually binds.
  std::cout << "\n  per-zone fog (zone B capped at 5 m, A/C clear):\n";
  auto foggy_spec = spec;
  foggy_spec.visibility_zone_b = 5.0;
  const auto foggy_env = env::generateEnvironment(foggy_spec);
  for (const auto design :
       {runtime::DesignType::SpatialOblivious, runtime::DesignType::RoboRun}) {
    const auto clear_run = runtime::runMission(environment, design, config);
    const auto foggy_run = runtime::runMission(foggy_env, design, config);
    const auto vel = [](const runtime::MissionResult& r, env::Zone z) {
      return runtime::summarizeZones(r)[static_cast<std::size_t>(z)].mean_velocity;
    };
    std::cout << "  " << runtime::designName(design) << ": zone-B velocity clear "
              << std::setprecision(2) << vel(clear_run, env::Zone::B) << " -> foggy "
              << vel(foggy_run, env::Zone::B) << " m/s (zone-A "
              << vel(clear_run, env::Zone::A) << " -> " << vel(foggy_run, env::Zone::A)
              << ")\n";
  }
  std::cout << "\n  expected shape: roborun velocity tracks the visibility cap (Eq. 1's\n"
               "  d term) and localizes the fog penalty to the foggy zone; the baseline\n"
               "  flies its one worst-case velocity everywhere, wasting clear air and\n"
               "  over-driving fog.\n";
  return 0;
}
