// Canonical configurations of the two evaluated designs.
//
// defaultMissionConfig() is the single source of truth for the paper's
// evaluation setup (Table II knobs, Eq. 2 stopping constants, the HIL
// latency calibration, the MAVBench energy model); benches and examples all
// start from it so results stay comparable.
#pragma once

#include "runtime/mission.h"

namespace roborun::runtime {

/// The evaluation configuration used across all benches.
MissionConfig defaultMissionConfig();

/// A reduced-fidelity configuration for unit/integration tests (smaller
/// sensor, shorter horizons) — faster, same code paths.
MissionConfig testMissionConfig();

/// testMissionConfig() plus a cheap spatial-oblivious design point: the
/// baseline's Table II worst-case volumes are wall-clock expensive at every
/// decision, so smoke tests (determinism, fleet_runner's CTest grid) shrink
/// them. Only for tests that don't measure fidelity.
MissionConfig smokeMissionConfig();

}  // namespace roborun::runtime
