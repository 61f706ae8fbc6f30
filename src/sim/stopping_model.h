// Stopping-distance model — paper Eq. 2 — and the space-induced time budget
// it feeds — paper Eq. 1.
//
// The paper models dstop(v) by flying the simulated drone at various
// velocities and fitting a quadratic with 2% MSE:
//     dstop(v) = -0.055 v^2 - 0.36 v + 0.20        (as printed)
// A stopping distance must grow with velocity, so the printed signs encode a
// signed displacement; we use the magnitudes:
//     dstop(v) = 0.055 v^2 + 0.36 v + 0.20
// which is exactly the physical braking model
//     dstop(v) = v^2 / (2 a_max) + t_react v + margin
// with a_max ~ 9.09 m/s^2, t_react = 0.36 s, margin = 0.20 m. Our simulated
// drone brakes with those constants, so refitting the quadratic from
// simulation (sim_test's DroneTest.IntegratedBrakeFitsEq2) recovers the
// coefficients.
#pragma once

namespace roborun::sim {

struct StoppingModel {
  double quad = 0.055;    ///< s^2/m; 1/(2 a_max)
  double linear = 0.36;   ///< s;     reaction time
  double constant = 0.20; ///< m;     safety margin

  /// Distance needed to come to a full stop from velocity v (m/s).
  double stoppingDistance(double v) const {
    return quad * v * v + linear * v + constant;
  }

  /// Paper Eq. 1: the local time budget at velocity v with visibility d:
  ///     budget = (d - dstop(v)) / v
  /// Clamped below at zero (no time left if we can't even stop in d).
  /// At v ~ 0 the budget is effectively unbounded; callers cap it.
  double timeBudget(double v, double visibility, double cap = 1e6) const;

  /// Inverse of Eq. 1: the highest velocity whose time budget still covers
  /// `latency` seconds at visibility d. This is how decision latency turns
  /// into safe flight speed. Returns 0 if even hovering is unsafe.
  double maxSafeVelocity(double latency, double visibility) const;

  /// The velocity a controller may *command* for the next decision
  /// interval: between consecutive decisions the world can close in by a
  /// further v * latency (the next decision sees the shrunken horizon only
  /// after flying the current one), so the commanded speed must satisfy
  /// Eq. 1 with twice the latency, against a margined horizon.
  double safeCommandVelocity(double latency, double horizon,
                             double horizon_margin = 0.9) const {
    return maxSafeVelocity(2.0 * latency, horizon_margin * horizon);
  }

  /// The braking deceleration implied by the quadratic term.
  double maxDeceleration() const { return 1.0 / (2.0 * quad); }
};

}  // namespace roborun::sim
