// Per-stage latency model — paper Eq. 4.
//
//   delta_i(p_i, v_i) = (q_i0 phat^3 + q_i1 phat^2 + q_i2 phat + q_i3) * v_i
//
// with phat = 1/p_i (the paper's change of variables for conditioning) and
// q_i in R^4 fit per stage from profiled (precision, volume, latency)
// samples. Deviation note: the paper writes the fourth coefficient as a
// volume scale, (q_i3 v_i), which is redundant with q_i0..q_i2; we use it
// as the polynomial's constant term instead, which keeps four meaningful
// coefficients and markedly improves the fit on stages whose cost has a
// precision-independent component (bench/paper_report.cpp's Eq. 4 section
// prints the fit; CalibrationTest.FitQualityUsable pins its residuals).
#pragma once

#include <array>
#include <span>

#include "core/policy.h"

namespace roborun::core {

/// One (p, v, latency) profiling sample.
struct LatencySample {
  double precision = 0.3;
  double volume = 0.0;
  double latency = 0.0;
};

class LatencyPredictor {
 public:
  /// Coefficients for one stage: q0..q2 weight phat^3..phat^1, q3 is the
  /// constant term; the whole polynomial scales linearly with volume.
  using Coeffs = std::array<double, 4>;

  LatencyPredictor();

  /// Eq. 4 for one stage.
  double predict(Stage stage, double precision, double volume) const;
  /// Sum over all stages of a policy.
  double predictTotal(const PipelinePolicy& policy) const;

  const Coeffs& coeffs(Stage stage) const {
    return coeffs_[static_cast<std::size_t>(stage)];
  }
  void setCoeffs(Stage stage, const Coeffs& c) {
    coeffs_[static_cast<std::size_t>(stage)] = c;
  }

  /// Least-squares fit of one stage's coefficients from samples (features
  /// {phat^3 v, phat^2 v, phat v, v}). Returns the fit error as RMSE
  /// normalized by the mean sample latency — a scale-free "% error" in the
  /// spirit of the paper's "<8% average MSE" (a per-sample relative error
  /// would be dominated by the near-zero-latency coarse-knob corner).
  double fit(Stage stage, std::span<const LatencySample> samples);

 private:
  std::array<Coeffs, kNumStages> coeffs_;
};

}  // namespace roborun::core
