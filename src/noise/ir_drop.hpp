// IR-drop along bitlines (paper Table I: "wire resistance non-ideality").
//
// Current accumulates along each bitline toward the ADC; wire resistance
// makes the effective read-out of far rows slightly weaker, and the
// attenuation grows with the total current already flowing in the line.
// First-order model for column j with per-row contributions I_k = w_hat_kj
// * x_hat_k (rows ordered by distance from the ADC):
//
//   y_j = sum_k I_k * (1 - kappa * C_k / n_rows),   C_k = sum_{k' <= k} |I_k'|
//
// kappa = kBaseDrop * scale * (n_rows / 512): the deviation grows with
// physical line length, matching AIHWKIT's size-dependent ir_drop model,
// and `scale` is the Table II "ir_drop" knob (1.0 = nominal).
#pragma once

#include <cmath>
#include <span>

namespace nora::noise {

class IrDropModel {
 public:
  explicit IrDropModel(float scale = 0.0f, int n_rows = 512);

  bool enabled() const { return scale_ > 0.0f; }
  float scale() const { return scale_; }
  float kappa() const { return kappa_; }

  /// Accumulate one column: returns the IR-drop-distorted dot product of
  /// per-row contributions (w_hat_kj * x_hat_k), streamed in row order.
  /// contributions[k] = w_hat_kj * x_hat_k.
  ///
  /// With IR drop enabled this is the per-column recurrence the tile MVM
  /// runs on panel-major conductances (util::simd::panel_mvm, IR form);
  /// the tile's IR-off dot product is a double fma chain instead.
  float accumulate_column(std::span<const float> contributions) const {
    if (!enabled()) {
      double acc = 0.0;
      for (float c : contributions) acc += c;
      return static_cast<float>(acc);
    }
    const double inv_n = 1.0 / static_cast<double>(contributions.size());
    double cum_abs = 0.0;
    double acc = 0.0;
    for (float c : contributions) {
      cum_abs += std::fabs(c);
      acc += static_cast<double>(c) * (1.0 - kappa_ * cum_abs * inv_n);
    }
    return static_cast<float>(acc);
  }

 private:
  static constexpr float kBaseDrop = 0.05f;
  float scale_ = 0.0f;
  int n_rows_ = 512;
  float kappa_ = 0.0f;
};

}  // namespace nora::noise
