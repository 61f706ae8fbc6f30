// Knob values and ranges — paper Table II.
//
// The static column is the spatial-oblivious baseline (worst-case values a
// designer must pick to guarantee mission success); the dynamic ranges are
// what RoboRun's solver may choose from, subject to Eq. 3's constraints.
#pragma once

#include <array>
#include <stdexcept>

namespace roborun::core {

struct KnobRange {
  double lo = 0.0;
  double hi = 0.0;
  bool contains(double v) const { return v >= lo - 1e-9 && v <= hi + 1e-9; }
  double clamp(double v) const { return v < lo ? lo : (v > hi ? hi : v); }
};

/// Fixed per-decision overhead (point cloud + runtime + fixed comm cost, in
/// seconds) subtracted from the deadline before the Eq. 3 knob budget is
/// solved. Single-sourced here: KnobConfig, SolverInputs, the governors and
/// the mission runner all default to this constant (they used to carry
/// independent 0.26/0.27 copies that drifted apart).
inline constexpr double kDefaultFixedOverhead = 0.27;

struct KnobConfig {
  // --- Table II ---
  double static_point_cloud_precision = 0.3;      ///< m
  double static_bridge_precision = 0.3;           ///< m (OctoMap-to-planner)
  double static_octomap_volume = 46000.0;         ///< m^3
  double static_bridge_volume = 150000.0;         ///< m^3
  double static_planner_volume = 150000.0;        ///< m^3

  KnobRange dynamic_precision{0.3, 9.6};          ///< both precision knobs
  KnobRange dynamic_octomap_volume{0.0, 60000.0};
  KnobRange dynamic_bridge_volume{0.0, 1000000.0};
  KnobRange dynamic_planner_volume{0.0, 1000000.0};

  /// Fixed per-decision overhead (s) the solver subtracts from the deadline
  /// (see kDefaultFixedOverhead). Every consumer of a KnobConfig — the
  /// governors, the DecisionEngine, SolverInputs construction — must read
  /// this field rather than carrying its own copy.
  double fixed_overhead = kDefaultFixedOverhead;

  /// voxmin: the finest voxel size; every legal precision is voxmin * 2^n
  /// (the OctoMap framework constraint in Eq. 3).
  double voxel_min = 0.3;
  /// Number of power-of-two precision levels (0.3, 0.6, ..., 9.6); at most
  /// kMaxPrecisionLevels.
  int precision_levels = 6;
  static constexpr int kMaxPrecisionLevels = 8;

  /// The discrete precision ladder {voxmin * 2^n : 0 <= n < levels}. Every
  /// enumeration indexes the returned array up to precision_levels, so a
  /// level count it cannot hold throws std::invalid_argument here.
  std::array<double, kMaxPrecisionLevels> precisionLadder() const {
    if (precision_levels < 1 || precision_levels > kMaxPrecisionLevels)
      throw std::invalid_argument("KnobConfig::precision_levels must be in [1, 8]");
    std::array<double, kMaxPrecisionLevels> ladder{};
    double p = voxel_min;
    for (int i = 0; i < precision_levels; ++i) {
      ladder[static_cast<std::size_t>(i)] = p;
      p *= 2.0;
    }
    return ladder;
  }

  /// Snap a precision demand onto the ladder, rounding down (finer) so the
  /// chosen precision always satisfies the demand. Values below the finest
  /// rung clamp up to it.
  double snapDown(double precision) const {
    double best = voxel_min;
    double p = voxel_min;
    for (int i = 0; i < precision_levels; ++i) {
      if (p <= precision + 1e-9) best = p;
      p *= 2.0;
    }
    return best;
  }
};

}  // namespace roborun::core
