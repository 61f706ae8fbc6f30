// Package delivery: the paper's first motivating mission — products moved
// between two warehouses. The congested zones A and C are the warehouses
// (tight aisles demanding high-precision navigation); zone B is the open
// leg between them where RoboRun relaxes its knobs and flies fast.

#include <iostream>

#include "env/env_gen.h"
#include "runtime/designs.h"
#include "runtime/report.h"
#include "runtime/trace.h"

int main() {
  using namespace roborun;

  env::EnvSpec spec;
  spec.obstacle_density = 0.55;   // packed racks
  spec.obstacle_spread = 60.0;    // warehouse footprint
  spec.goal_distance = 500.0;     // inter-warehouse hop
  spec.aisle_width = 3.0;         // narrow-aisle layout
  spec.seed = 2024;
  const auto environment = env::generateEnvironment(spec);

  std::cout << "package delivery: " << spec.label() << "\n";
  std::cout << "  warehouse A congestion: "
            << environment.world->congestion({spec.clusterAx(), 0, 0}, 20.0) << "\n";
  std::cout << "  open-leg congestion:    "
            << environment.world->congestion({spec.goal_distance / 2, 0, 0}, 20.0) << "\n";

  const runtime::MissionConfig config = runtime::defaultMissionConfig();

  for (const auto design :
       {runtime::DesignType::SpatialOblivious, runtime::DesignType::RoboRun}) {
    const auto result = runtime::runMission(environment, design, config);
    runtime::printBanner(std::cout, runtime::designName(design));
    std::cout << "  delivery "
              << (result.reached_goal() ? "completed"
                                      : (result.collided() ? "CRASHED" : "timed out"))
              << " in " << result.mission_time << " s\n";
    runtime::printMetric(std::cout, "battery energy used", result.flight_energy / 1000.0,
                         "kJ");
    for (const auto& zone : runtime::summarizeZones(result))
      std::cout << "    zone " << env::zoneName(zone.zone) << ": " << zone.time_in_zone
                << " s at " << zone.mean_velocity << " m/s\n";
  }

  std::cout << "\nA spatially-aware runtime turns the open leg into the fast leg;\n"
               "the oblivious design flies the whole route at aisle speed.\n";
  return 0;
}
