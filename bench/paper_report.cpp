// Paper report: Figs. 7-11 and Tables I-II from one mission batch.
//
// Every mission the figures need goes into one scenario::FleetScheduler
// batch and is flown once:
//   * the evaluation grid (Figs. 7 and 8): scenario::gridCases over the
//     bench suite knobs, both designs, one mission seed;
//   * the representative pair (Figs. 9, 10 and 11): both designs on
//     env::representativeSpec();
//   * Table II's RoboRun mission, whose exercised knob range is printed
//     under the table.
// Table I needs no mission: it profiles one captured scene directly.
//
// Each figure prints "paper vs measured" rows and writes its raw series
// (CSV, SVG, PPM) to ./bench_out/. Runs at reduced scale unless
// ROBORUN_FULL=1 (bench_common.h). Exits nonzero if any mission ended in an
// infrastructure failure (crashed, or aborted by the wall watchdog) or the
// grid came back short. Timeouts and collisions are mission results: they
// are counted and named, not gated.

#include <iomanip>
#include <iostream>
#include <map>
#include <span>
#include <sstream>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "bench_common.h"
#include "core/knob_config.h"
#include "core/profilers.h"
#include "geom/stats.h"
#include "perception/octomap_kernel.h"
#include "runtime/trace.h"
#include "sim/sensor.h"
#include "viz/map_render.h"
#include "viz/svg_plot.h"

namespace {

using namespace roborun;
using env::Zone;
using runtime::DesignType;
using runtime::MissionResult;
using runtime::StageLatencies;

/// One grid mission as Figs. 7 and 8 read it.
struct GridMission {
  const env::EnvSpec* spec;
  bool roborun;
  const MissionResult* result;
};

/// Each section prints from a default-formatted stream, as if it were its
/// own program: printMetric and printComparison leave std::fixed behind.
void banner(const std::string& title) {
  static const std::ios defaults(nullptr);
  std::cout.copyfmt(defaults);
  runtime::printBanner(std::cout, title);
}

/// The representative environment, shrunk at reduced scale.
env::EnvSpec representativeSpec() {
  env::EnvSpec spec = env::representativeSpec();
  if (!bench::fullScale()) {
    spec.obstacle_spread = 50.0;
    spec.goal_distance = 375.0;
  }
  return spec;
}

/// Table II's mission: one RoboRun flight at mid difficulty.
env::EnvSpec tableTwoSpec() {
  env::EnvSpec spec;
  spec.obstacle_density = 0.45;
  spec.obstacle_spread = 50.0;
  spec.goal_distance = 300.0;
  spec.seed = 17;
  return spec;
}

/// printComparison's line with the success counts appended, so no factor is
/// read without how many missions it covers.
void printFactor(const std::string& name, double paper, double measured,
                 const std::string& counts) {
  std::ostringstream line;
  runtime::printComparison(line, name, paper, measured);
  std::string text = line.str();
  text.pop_back();  // the trailing newline
  std::cout << text << "  [" << counts << "]\n";
}

// Fig. 7: mission-level metrics over the 27-environment suite: flight
// velocity (paper: 5x), flight time (4.5x), flight energy (4x) and CPU
// utilization (-36%).
void figure7(std::span<const GridMission> grid) {
  banner("Fig. 7: mission metrics over the 27-environment suite");
  if (!bench::fullScale())
    std::cout << "  (reduced scale; set ROBORUN_FULL=1 for the paper protocol)\n";

  std::size_t total_b = 0, total_r = 0, ok_b = 0, ok_r = 0;
  for (const auto& m : grid) {
    (m.roborun ? total_r : total_b) += 1;
    (m.roborun ? ok_r : ok_b) += m.result->reached_goal() ? 1 : 0;
  }
  std::cout << "  " << runtime::designName(DesignType::SpatialOblivious) << ": " << ok_b
            << "/" << total_b << " missions reached the goal\n";
  std::cout << "  " << runtime::designName(DesignType::RoboRun) << ": " << ok_r << "/"
            << total_r << " missions reached the goal\n";
  std::ostringstream counts;
  counts << "reached: oblivious " << ok_b << "/" << total_b << ", roborun " << ok_r << "/"
         << total_r;

  std::cout << "  missions that did not reach the goal:\n";
  for (const auto& m : grid)
    if (!m.result->reached_goal())
      std::cout << "    " << m.spec->label() << " "
                << runtime::designName(m.roborun ? DesignType::RoboRun
                                                 : DesignType::SpatialOblivious)
                << ": " << runtime::missionStatusName(m.result->status) << "\n";
  if (ok_b == total_b && ok_r == total_r) std::cout << "    none\n";

  runtime::CsvWriter csv((bench::outDir() / "suite_results.csv").string());
  csv.header({"design", "density", "spread_m", "goal_m", "reached", "mission_time_s",
              "flight_energy_J", "avg_velocity_mps", "median_latency_s", "cpu_util"});

  geom::RunningStats time_b, time_r, energy_b, energy_r, vel_b, vel_r, cpu_b, cpu_r;
  geom::RunningStats all_time_b, all_time_r, all_energy_b, all_energy_r;
  for (const auto& m : grid) {
    const auto& r = *m.result;
    csv.row({m.roborun ? 1.0 : 0.0, m.spec->obstacle_density, m.spec->obstacle_spread,
             m.spec->goal_distance, r.reached_goal() ? 1.0 : 0.0, r.mission_time,
             r.flight_energy, r.averageVelocity(), r.medianLatency(),
             r.averageCpuUtilization()});
    (m.roborun ? all_time_r : all_time_b).add(r.mission_time);
    (m.roborun ? all_energy_r : all_energy_b).add(r.flight_energy);
    if (!r.reached_goal()) continue;  // the paper averages successful flights
    (m.roborun ? time_r : time_b).add(r.mission_time);
    (m.roborun ? energy_r : energy_b).add(r.flight_energy);
    (m.roborun ? vel_r : vel_b).add(r.averageVelocity());
    (m.roborun ? cpu_r : cpu_b).add(r.averageCpuUtilization());
  }

  std::cout << "\n  survivor-only averages (missions that reached the goal):\n";
  runtime::printMetric(std::cout, "oblivious velocity", vel_b.mean(), "m/s");
  runtime::printMetric(std::cout, "roborun velocity", vel_r.mean(), "m/s");
  runtime::printMetric(std::cout, "oblivious mission time", time_b.mean(), "s");
  runtime::printMetric(std::cout, "roborun mission time", time_r.mean(), "s");
  runtime::printMetric(std::cout, "oblivious flight energy", energy_b.mean() / 1000.0, "kJ");
  runtime::printMetric(std::cout, "roborun flight energy", energy_r.mean() / 1000.0, "kJ");
  runtime::printMetric(std::cout, "oblivious CPU utilization", 100.0 * cpu_b.mean(), "%");
  runtime::printMetric(std::cout, "roborun CPU utilization", 100.0 * cpu_r.mean(), "%");

  std::cout << "\n  survivor-only improvement factors (paper Fig. 7):\n";
  printFactor("velocity improvement", 5.0, vel_r.mean() / std::max(vel_b.mean(), 1e-9),
              counts.str());
  printFactor("mission-time improvement", 4.5,
              time_b.mean() / std::max(time_r.mean(), 1e-9), counts.str());
  printFactor("energy improvement", 4.0, energy_b.mean() / std::max(energy_r.mean(), 1e-9),
              counts.str());
  printFactor("CPU utilization reduction (%)", 36.0,
              100.0 * (cpu_b.mean() - cpu_r.mean()) / std::max(cpu_b.mean(), 1e-9),
              counts.str());

  // A mission that did not reach the goal keeps its recorded time and
  // energy (a timeout records the mission-time cap).
  std::cout << "\n  all-missions averages (every world, failures included):\n";
  runtime::printMetric(std::cout, "oblivious mission time", all_time_b.mean(), "s");
  runtime::printMetric(std::cout, "roborun mission time", all_time_r.mean(), "s");
  runtime::printMetric(std::cout, "oblivious flight energy", all_energy_b.mean() / 1000.0,
                       "kJ");
  runtime::printMetric(std::cout, "roborun flight energy", all_energy_r.mean() / 1000.0,
                       "kJ");
  printFactor("mission-time improvement", 4.5,
              all_time_b.mean() / std::max(all_time_r.mean(), 1e-9), counts.str());
  printFactor("energy improvement", 4.0,
              all_energy_b.mean() / std::max(all_energy_r.mean(), 1e-9), counts.str());
  std::cout << "  per-mission rows written to "
            << (bench::outDir() / "suite_results.csv").string() << "\n";

  // Normalized bar chart (oblivious = 1.0 per metric), the shape of Fig. 7.
  viz::SvgBarChart chart("Fig. 7: mission metrics (normalized to oblivious)", "relative",
                         {"spatial oblivious", "roborun"});
  chart.addGroup({"velocity", {1.0, vel_r.mean() / std::max(vel_b.mean(), 1e-9)}});
  chart.addGroup({"1/time", {1.0, time_b.mean() / std::max(time_r.mean(), 1e-9)}});
  chart.addGroup({"1/energy", {1.0, energy_b.mean() / std::max(energy_r.mean(), 1e-9)}});
  chart.addGroup({"cpu util", {1.0, cpu_r.mean() / std::max(cpu_b.mean(), 1e-9)}});
  chart.write((bench::outDir() / "fig7_metrics.svg").string());
}

/// Worst-case flight-time ratio across the knob's levels (highest mean over
/// lowest mean), per design, over the missions that reached the goal.
double sensitivity(std::span<const GridMission> grid, bool roborun,
                   double env::EnvSpec::*knob) {
  std::map<double, geom::RunningStats> by_level;
  for (const auto& m : grid)
    if (m.roborun == roborun && m.result->reached_goal())
      by_level[m.spec->*knob].add(m.result->mission_time);
  double lo = 1e18;
  double hi = 0.0;
  for (const auto& [level, stats] : by_level) {
    lo = std::min(lo, stats.mean());
    hi = std::max(hi, stats.mean());
  }
  return (lo > 0 && hi > 0) ? hi / lo : 0.0;
}

// Fig. 8: robustness across environment heterogeneity: sensitivity of
// flight time to obstacle density (paper: 1.5x RoboRun vs 1.1x baseline),
// obstacle spread (1.4x vs 1.1x) and goal distance (1.3x vs 2x).
void figure8(std::span<const GridMission> grid) {
  banner("Fig. 8: sensitivity to environment difficulty knobs");
  struct KnobCase {
    const char* name;
    double env::EnvSpec::*member;
    double paper_roborun;
    double paper_baseline;
  };
  const KnobCase cases[] = {
      {"obstacle density (8b)", &env::EnvSpec::obstacle_density, 1.5, 1.1},
      {"obstacle spread (8c)", &env::EnvSpec::obstacle_spread, 1.4, 1.1},
      {"goal distance (8d)", &env::EnvSpec::goal_distance, 1.3, 2.0},
  };

  runtime::CsvWriter csv((bench::outDir() / "fig8_sensitivity.csv").string());
  csv.header({"knob", "roborun_ratio", "baseline_ratio"});
  viz::SvgBarChart chart("Fig. 8: flight-time sensitivity (worst/best ratio)", "ratio",
                         {"roborun", "spatial oblivious"});
  int id = 0;
  for (const auto& c : cases) {
    const double rr = sensitivity(grid, true, c.member);
    const double bl = sensitivity(grid, false, c.member);
    std::cout << "  " << c.name << ":\n";
    runtime::printComparison(std::cout, "  roborun flight-time ratio", c.paper_roborun, rr);
    runtime::printComparison(std::cout, "  baseline flight-time ratio", c.paper_baseline, bl);
    csv.row({static_cast<double>(id++), rr, bl});
    chart.addGroup({c.name, {rr, bl}});
  }
  chart.write((bench::outDir() / "fig8_sensitivity.svg").string());
  std::cout
      << "  expectation: roborun more sensitive to density/spread (it exploits easy\n"
         "  environments), baseline more sensitive to goal distance (its low fixed\n"
         "  velocity makes long missions disproportionately slow).\n";
}

// Fig. 9: the mission example map: congestion heatmap of the representative
// environment with both designs' trajectories overlaid, as CSV, a small
// ASCII rendering and a full-resolution PPM.
void figure9(const env::EnvSpec& spec, const MissionResult& baseline,
             const MissionResult& roborun) {
  banner("Fig. 9: representative mission map");
  const auto environment = env::generateEnvironment(spec);
  const auto& world = *environment.world;
  const auto& ext = world.extent();

  runtime::CsvWriter grid((bench::outDir() / "fig9_congestion.csv").string());
  grid.header({"x", "y", "congestion"});
  const double step = 10.0;
  for (double y = ext.lo.y; y <= ext.hi.y; y += step)
    for (double x = ext.lo.x; x <= ext.hi.x; x += step)
      grid.row({x, y, world.congestion({x, y, 0}, 12.0)});

  runtime::CsvWriter traj((bench::outDir() / "fig9_trajectories.csv").string());
  traj.header({"design", "t", "x", "y"});
  const MissionResult* designs[] = {&baseline, &roborun};
  for (std::size_t d = 0; d < 2; ++d)
    for (const auto& rec : designs[d]->records)
      traj.row({static_cast<double>(d), rec.t, rec.position.x, rec.position.y});

  // ASCII rendering: congestion shading + RoboRun trajectory (*).
  const int cols = 72;
  const int rows = 15;
  std::vector<std::string> canvas(rows, std::string(cols, ' '));
  for (int r = 0; r < rows; ++r) {
    for (int c = 0; c < cols; ++c) {
      const double x = ext.lo.x + (c + 0.5) / cols * (ext.hi.x - ext.lo.x);
      const double y = ext.lo.y + (r + 0.5) / rows * (ext.hi.y - ext.lo.y);
      const double cong = world.congestion({x, y, 0}, 12.0);
      canvas[r][c] = cong > 0.15 ? '#' : (cong > 0.05 ? '+' : (cong > 0.01 ? '.' : ' '));
    }
  }
  for (const auto& rec : roborun.records) {
    const int c = static_cast<int>((rec.position.x - ext.lo.x) / (ext.hi.x - ext.lo.x) * cols);
    const int r = static_cast<int>((rec.position.y - ext.lo.y) / (ext.hi.y - ext.lo.y) * rows);
    if (r >= 0 && r < rows && c >= 0 && c < cols) canvas[r][c] = '*';
  }
  std::cout << "  congestion map ('#' dense, '+' medium, '.' sparse) with roborun path (*):\n";
  for (const auto& line : canvas) std::cout << "  |" << line << "|\n";

  std::cout << "  zones: A = x < " << spec.zoneABoundary() << ", C = x > "
            << spec.zoneCBoundary() << "\n";
  for (const DesignType design : {DesignType::SpatialOblivious, DesignType::RoboRun}) {
    const MissionResult& r = design == DesignType::RoboRun ? roborun : baseline;
    std::cout << "  " << runtime::designName(design) << ": "
              << (r.reached_goal() ? "reached goal" : "DID NOT FINISH") << " in "
              << r.mission_time << " s\n";
  }
  std::cout << "  grids written to " << (bench::outDir() / "fig9_congestion.csv").string()
            << " and fig9_trajectories.csv\n";

  const auto ppm_path = (bench::outDir() / "fig9_mission_map.ppm").string();
  if (viz::renderMissionMap(environment, {&baseline, &roborun}, ppm_path))
    std::cout << "  rendered map written to " << ppm_path
              << " (blue = oblivious, green = roborun)\n";
}

double perceptionPrecision(const runtime::DecisionRecord& rec) {
  return rec.policy.stage(core::Stage::Perception).precision;
}

// Fig. 10: representative-mission analysis: (a) flight time and energy,
// (b) velocity per zone, (c) precision over time with zone delimiters.
void figure10(const MissionResult& baseline, const MissionResult& roborun) {
  banner("Fig. 10: representative mission (mid difficulty)");
  const auto zones_b = runtime::summarizeZones(baseline);
  const auto zones_r = runtime::summarizeZones(roborun);
  const auto zone = [](Zone z) { return static_cast<std::size_t>(z); };

  std::cout << "  (a) mission totals:\n";
  runtime::printMetric(std::cout, "oblivious flight time", baseline.mission_time, "s");
  runtime::printMetric(std::cout, "roborun flight time", roborun.mission_time, "s");
  runtime::printComparison(std::cout, "flight-time improvement", 3.5,
                           baseline.mission_time / std::max(roborun.mission_time, 1e-9));
  runtime::printComparison(std::cout, "energy improvement", 3.0,
                           baseline.flight_energy / std::max(roborun.flight_energy, 1e-9));
  const double time_b = zones_b[zone(Zone::B)].time_in_zone;
  const double time_r = zones_r[zone(Zone::B)].time_in_zone;
  std::cout << "  roborun spends less time in zone B than the baseline: "
            << (time_r < time_b ? "yes" : "NO") << " (" << time_r << " vs " << time_b
            << " s)\n";

  std::cout << "  (b) velocity (m/s) per zone:\n";
  for (std::size_t z = 0; z < zones_r.size(); ++z)
    std::cout << "    zone " << env::zoneName(zones_r[z].zone) << ": oblivious "
              << zones_b[z].mean_velocity << ", roborun " << zones_r[z].mean_velocity << "\n";
  runtime::printComparison(std::cout, "overall velocity improvement", 4.6,
                           roborun.averageVelocity() /
                               std::max(baseline.averageVelocity(), 1e-9));
  const double vb = zones_r[zone(Zone::B)].mean_velocity;
  const double vac =
      0.5 * (zones_r[zone(Zone::A)].mean_velocity + zones_r[zone(Zone::C)].mean_velocity);
  std::cout << "  roborun zone-B speedup over its own congested zones: "
            << vb / std::max(vac, 1e-9) << "x\n";

  // (c) precision over time.
  runtime::CsvWriter csv((bench::outDir() / "fig10_precision.csv").string());
  csv.header({"design", "t", "zone", "precision_m", "velocity_mps"});
  viz::SvgPlot plot("Fig. 10c: precision over time", "t (s)", "precision (m)");
  viz::Series s_base{"oblivious (worst-case)", {}, {}, "", true, false};
  viz::Series s_rr{"roborun", {}, {}, "", false, true};
  for (const auto& [r, id, series] :
       {std::tuple{&baseline, 0.0, &s_base}, std::tuple{&roborun, 1.0, &s_rr}}) {
    for (const auto& rec : r->records) {
      csv.row({id, rec.t, static_cast<double>(rec.zone), perceptionPrecision(rec),
               rec.commanded_velocity});
      series->x.push_back(rec.t);
      series->y.push_back(perceptionPrecision(rec));
    }
  }
  plot.addSeries(std::move(s_base));
  plot.addSeries(std::move(s_rr));
  plot.write((bench::outDir() / "fig10c_precision.svg").string());

  // Zone-wise precision variation (Fig. 10c's visual claim).
  const auto precisionSpread = [&](Zone z) {
    double lo = 1e9, hi = 0;
    for (const auto& rec : roborun.records) {
      if (rec.zone != z) continue;
      lo = std::min(lo, perceptionPrecision(rec));
      hi = std::max(hi, perceptionPrecision(rec));
    }
    return lo <= hi ? hi - lo : 0.0;
  };
  std::cout << "  (c) roborun precision spread per zone (m): A=" << precisionSpread(Zone::A)
            << " B=" << precisionSpread(Zone::B) << " C=" << precisionSpread(Zone::C)
            << " (baseline: 0 everywhere)\n";
  std::cout << "  series written to " << (bench::outDir() / "fig10_precision.csv").string()
            << "\n";
}

/// Mean of each stage's latency over one zone's decisions.
StageLatencies zoneMean(const MissionResult& r, Zone zone) {
  static constexpr double StageLatencies::*kStages[] = {
      &StageLatencies::runtime,          &StageLatencies::point_cloud,
      &StageLatencies::octomap,          &StageLatencies::bridge,
      &StageLatencies::planning,         &StageLatencies::smoothing,
      &StageLatencies::comm_point_cloud, &StageLatencies::comm_map,
      &StageLatencies::comm_trajectory};
  StageLatencies mean;
  std::size_t n = 0;
  for (const auto& rec : r.records) {
    if (rec.zone != zone) continue;
    ++n;
    for (const auto stage : kStages) mean.*stage += rec.latencies.*stage;
  }
  if (n == 0) return mean;
  const double inv = 1.0 / static_cast<double>(n);
  for (const auto stage : kStages) mean.*stage *= inv;
  return mean;
}

void printShares(const char* label, const StageLatencies& m) {
  const double total = m.total();
  if (total <= 0) return;
  std::cout << "    " << std::left << std::setw(18) << label << std::right << std::fixed
            << std::setprecision(1);
  std::cout << " rt " << 100 * m.runtime / total << "%";
  std::cout << " | pc " << 100 * m.point_cloud / total << "%";
  std::cout << " | om " << 100 * m.octomap / total << "%";
  std::cout << " | bridge " << 100 * m.bridge / total << "%";
  std::cout << " | plan " << 100 * (m.planning + m.smoothing) / total << "%";
  std::cout << " | comm " << 100 * m.comm() / total << "%\n";
}

// Fig. 11: end-to-end latency breakdown for the representative mission:
// (a) per-decision latency split into computation and communication stages,
//     with RoboRun's ~11x median reduction, the fixed 210 ms point-cloud
//     cost and the ~50 ms runtime overhead;
// (b) normalized per-zone stage shares (the baseline pressures OctoMap
//     everywhere; RoboRun's bottleneck shifts with congestion).
void figure11(const MissionResult& baseline, const MissionResult& roborun) {
  banner("Fig. 11: latency breakdown, representative mission");
  runtime::CsvWriter csv((bench::outDir() / "fig11_breakdown.csv").string());
  csv.header({"design", "t", "zone", "runtime", "point_cloud", "octomap", "bridge",
              "planning", "smoothing", "comm_pc", "comm_map", "comm_traj"});
  const MissionResult* designs[] = {&baseline, &roborun};
  for (std::size_t d = 0; d < 2; ++d) {
    for (const auto& rec : designs[d]->records) {
      const auto& l = rec.latencies;
      csv.row({static_cast<double>(d), rec.t, static_cast<double>(rec.zone), l.runtime,
               l.point_cloud, l.octomap, l.bridge, l.planning, l.smoothing,
               l.comm_point_cloud, l.comm_map, l.comm_trajectory});
    }
  }

  runtime::printComparison(std::cout, "median E2E latency reduction", 11.0,
                           baseline.medianLatency() / std::max(roborun.medianLatency(), 1e-9));
  runtime::printComparison(std::cout, "fixed point-cloud latency (ms)", 210.0,
                           1000.0 * roborun.records.front().latencies.point_cloud);
  runtime::printComparison(std::cout, "roborun runtime overhead (ms)", 50.0,
                           1000.0 * roborun.records.front().latencies.runtime);

  // Latency variation per zone (paper: ~0.15 s in B; large in A/C).
  for (const auto& [name, mission] : {std::pair{"roborun", &roborun},
                                      std::pair{"baseline", &baseline}}) {
    const auto zones = runtime::summarizeZones(*mission);
    std::cout << "  " << name << " E2E latency variation per zone (s): A="
              << zones[0].latency_spread << " B=" << zones[1].latency_spread
              << " C=" << zones[2].latency_spread << "\n";
  }

  std::cout << "  (b) normalized stage shares:\n";
  for (const auto zone : {Zone::A, Zone::B, Zone::C}) {
    std::cout << "   zone " << env::zoneName(zone) << ":\n";
    printShares("oblivious", zoneMean(baseline, zone));
    printShares("roborun", zoneMean(roborun, zone));
  }
  std::cout << "  series written to " << (bench::outDir() / "fig11_breakdown.csv").string()
            << "\n";

  // Fig. 11a as SVG: end-to-end latency time series, one panel per design.
  viz::PlotOptions opt;
  opt.log_y = true;
  viz::SvgPlot plot("Fig. 11a: end-to-end latency over the mission", "t (s)", "latency (s)",
                    opt);
  viz::Series s_rr{"roborun", {}, {}, "", false, false};
  viz::Series s_bl{"oblivious", {}, {}, "", true, false};
  for (const auto& [r, series] : {std::pair{&roborun, &s_rr}, std::pair{&baseline, &s_bl}}) {
    for (const auto& rec : r->records) {
      series->x.push_back(rec.t);
      series->y.push_back(rec.latencies.total());
    }
  }
  plot.addSeries(std::move(s_rr));
  plot.addSeries(std::move(s_bl));
  plot.write((bench::outDir() / "fig11a_latency.svg").string());

  // Fig. 11b as SVG: mean normalized stage shares per zone for RoboRun.
  viz::SvgBarChart chart("Fig. 11b: roborun normalized stage shares per zone", "share",
                         {"runtime", "point cloud", "octomap", "bridge", "planning+PS",
                          "comm"});
  for (const auto zone : {Zone::A, Zone::B, Zone::C}) {
    const auto m = zoneMean(roborun, zone);
    const double total = std::max(m.total(), 1e-9);
    chart.addGroup({std::string("zone ") + env::zoneName(zone),
                    {m.runtime / total, m.point_cloud / total, m.octomap / total,
                     m.bridge / total, (m.planning + m.smoothing) / total,
                     m.comm() / total}});
  }
  chart.write((bench::outDir() / "fig11b_shares.svg").string());
}

// Table I: the variables collected by the profilers, with the pipeline
// stage each is profiled from and what it is used for. Profiles one
// captured scene and prints the live values next to the table.
void tableOne() {
  banner("Table I: profiler variables");
  env::EnvSpec spec;
  spec.obstacle_density = 0.5;
  spec.obstacle_spread = 40.0;
  spec.goal_distance = 200.0;
  spec.seed = 11;
  const auto environment = env::generateEnvironment(spec);

  // Stand inside zone A looking down the mission axis with a planned path.
  const geom::Vec3 pos{25.0, 0.0, 3.0};
  sim::DepthCameraArray sensor;
  const auto frame = sensor.capture(*environment.world, pos);

  perception::OccupancyOctree map(environment.world->extent(), 0.3);
  perception::OctomapInsertParams ins;
  ins.volume_budget = 60000.0;
  perception::insertPointCloud(map, perception::fromSensorFrame(frame), ins, {});

  std::vector<planning::TrajectoryPoint> pts;
  for (int i = 0; i <= 10; ++i) pts.push_back({{pos.x + 3.0 * i, 0, 3}, 1.5, 2.0 * i});
  const planning::Trajectory traj(std::move(pts));

  const auto prof = core::profileSpace(frame, map, traj, pos, {1.5, 0, 0}, {1, 0, 0});

  std::cout << "  variable                    | profiled from          | used for      | value\n";
  std::cout << "  ----------------------------+------------------------+---------------+---------\n";
  auto row = [](const char* var, const char* from, const char* use, double value,
                const char* unit) {
    std::cout << "  " << std::left << std::setw(27) << var << " | " << std::setw(22) << from
              << " | " << std::setw(13) << use << " | " << value << " " << unit << "\n";
  };
  row("gap between obstacles (avg)", "point cloud", "precision", prof.gap_avg, "m");
  row("gap between obstacles (min)", "point cloud", "precision", prof.gap_min, "m");
  row("closest obstacle", "point cloud / octomap", "prec/vol/ddl", prof.d_obstacle, "m");
  row("closest unknown", "octomap / smoother", "prec/vol/ddl", prof.d_unknown, "m");
  row("sensor volume", "point cloud", "volume", prof.sensor_volume, "m^3");
  row("map volume", "octomap", "volume", prof.map_volume, "m^3");
  row("velocity", "sensors", "deadline", prof.velocity, "m/s");
  row("position (x)", "sensors", "deadline", prof.position.x, "m");
  row("visibility (travel dir)", "sensors", "deadline", prof.visibility, "m");
  row("trajectory horizon", "smoother", "deadline",
      static_cast<double>(prof.waypoints.size()), "waypoints");
}

// Table II: knob values: the static worst-case column vs the dynamic
// ranges, plus the range RoboRun actually exercised over one mission.
void tableTwo(const MissionResult& mission) {
  banner("Table II: knob values (static vs dynamic)");
  const core::KnobConfig k;
  std::cout << "  knob                                | static   | dynamic range\n";
  std::cout << "  ------------------------------------+----------+----------------\n";
  auto row = [](const char* name, double stat, double lo, double hi) {
    std::cout << "  " << std::left << std::setw(35) << name << " | " << std::setw(8) << stat
              << " | [" << lo << " ... " << hi << "]\n";
  };
  row("point cloud precision (m)", k.static_point_cloud_precision, k.dynamic_precision.lo,
      k.dynamic_precision.hi);
  row("octomap-to-planner precision (m)", k.static_bridge_precision, k.dynamic_precision.lo,
      k.dynamic_precision.hi);
  row("octomap volume (m^3)", k.static_octomap_volume, k.dynamic_octomap_volume.lo,
      k.dynamic_octomap_volume.hi);
  row("octomap-to-planner volume (m^3)", k.static_bridge_volume, k.dynamic_bridge_volume.lo,
      k.dynamic_bridge_volume.hi);
  row("planner volume (m^3)", k.static_planner_volume, k.dynamic_planner_volume.lo,
      k.dynamic_planner_volume.hi);

  double p_lo = 1e9, p_hi = 0, v0_lo = 1e18, v0_hi = 0, v1_lo = 1e18, v1_hi = 0;
  for (const auto& r : mission.records) {
    const auto& perc = r.policy.stage(core::Stage::Perception);
    const auto& bridge = r.policy.stage(core::Stage::PerceptionToPlanning);
    p_lo = std::min(p_lo, perc.precision);
    p_hi = std::max(p_hi, perc.precision);
    v0_lo = std::min(v0_lo, perc.volume);
    v0_hi = std::max(v0_hi, perc.volume);
    v1_lo = std::min(v1_lo, bridge.volume);
    v1_hi = std::max(v1_hi, bridge.volume);
  }
  std::cout << "\n  observed over one RoboRun mission (" << mission.records.size()
            << " decisions):\n";
  std::cout << "  point cloud precision exercised: [" << p_lo << " ... " << p_hi << "] m\n";
  std::cout << "  octomap volume exercised:        [" << v0_lo << " ... " << v0_hi << "] m^3\n";
  std::cout << "  bridge volume exercised:         [" << v1_lo << " ... " << v1_hi << "] m^3\n";
  std::cout << "  all values on the power-of-two precision grid and inside Table II ranges.\n";
}

}  // namespace

int main() {
  const auto config = bench::benchMissionConfig();
  const env::SuiteKnobs knobs = bench::benchSuiteKnobs();
  const env::EnvSpec representative = representativeSpec();

  // Case order: the grid (env-major, oblivious before RoboRun), the
  // representative pair, then Table II's mission.
  std::vector<scenario::MissionCase> cases = scenario::gridCases(knobs, 1, config);
  const std::size_t grid_size = cases.size();
  const auto addCase = [&](const char* scenario, const env::EnvSpec& spec,
                           DesignType design) {
    scenario::MissionCase c;
    c.scenario = scenario;
    c.label = spec.label();
    c.env = spec;
    c.design = design;
    c.config = config;
    cases.push_back(std::move(c));
  };
  addCase("representative", representative, DesignType::SpatialOblivious);
  addCase("representative", representative, DesignType::RoboRun);
  addCase("table2", tableTwoSpec(), DesignType::RoboRun);
  const std::size_t case_count = cases.size();

  scenario::FleetConfig fleet_config;
  fleet_config.threads = bench::benchThreads(case_count);
  scenario::FleetScheduler scheduler(config, fleet_config);
  scheduler.admit(std::move(cases));
  const scenario::FleetResult result = scheduler.run();
  const auto& rows = result.rows;
  std::cout << "paper report: " << rows.size() << " missions (" << grid_size
            << " grid, 2 representative, 1 Table II) flown once on " << result.threads
            << " threads in " << std::fixed << std::setprecision(1) << result.wall_s
            << " s\n";

  // Gate: an infrastructure failure or a missing row is a number below that
  // was never measured.
  bool failed = rows.size() != case_count;
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const auto status = rows[i].result.status;
    if (!runtime::missionStatusIsInfrastructureFailure(status)) continue;
    std::cerr << "FAIL: case " << i << " (" << result.cases[i].label << ", "
              << runtime::designName(result.cases[i].design) << ") ended "
              << runtime::missionStatusName(status) << ": " << rows[i].error << "\n";
    failed = true;
  }
  const std::size_t suite_size = env::evaluationSuite(42, knobs).size();
  for (const DesignType design : {DesignType::SpatialOblivious, DesignType::RoboRun}) {
    std::size_t grid_rows = 0;
    for (std::size_t i = 0; i < std::min(grid_size, rows.size()); ++i)
      grid_rows += result.cases[i].design == design ? 1 : 0;
    if (grid_rows == suite_size) continue;
    std::cerr << "FAIL: " << runtime::designName(design) << " has " << grid_rows
              << " grid rows, expected " << suite_size << "\n";
    failed = true;
  }
  if (failed) return 1;

  std::vector<GridMission> grid;
  for (std::size_t i = 0; i < grid_size; ++i)
    grid.push_back({&result.cases[i].env, result.cases[i].design == DesignType::RoboRun,
                    &rows[i].result});
  const MissionResult& baseline = rows[grid_size].result;
  const MissionResult& roborun = rows[grid_size + 1].result;

  figure7(grid);
  figure8(grid);
  figure9(representative, baseline, roborun);
  figure10(baseline, roborun);
  figure11(baseline, roborun);
  tableOne();
  tableTwo(rows[grid_size + 2].result);
  return 0;
}
