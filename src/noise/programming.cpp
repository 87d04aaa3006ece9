#include "noise/programming.hpp"

#include <cmath>

namespace nora::noise {

namespace {
// PCM-like polynomial coefficients, normalized to g_max = 1.
constexpr float kC0 = 0.26348f / 25.0f;
constexpr float kC1 = 1.96500f / 25.0f;
constexpr float kC2 = -1.17310f / 25.0f;
// Residual left by one corrective write-verify pulse, as a fraction of
// the pre-pulse error (pulse granularity floor).
constexpr float kVerifyAttenuation = 0.3f;
}  // namespace

float ProgrammingNoise::sigma(float w_hat) const {
  if (!enabled()) return 0.0f;
  const float g = std::fabs(w_hat);  // target conductance of the active device
  // Explicit fmas: the conductances must not depend on whether the
  // compiler may contract a*b + c (it does only when FMA is enabled).
  const float s = std::fma(kC2 * g, g, std::fma(kC1, g, kC0));
  return scale_ * std::max(s, 0.0f);
}

float ProgrammingNoise::correct(float current_error, float target,
                                util::Rng& rng) const {
  if (!enabled()) return current_error;
  return std::fma(kVerifyAttenuation, current_error,
                  static_cast<float>(
                      rng.gaussian(0.0, kVerifyAttenuation * sigma(target))));
}

float ProgrammingNoise::residual_error(float target, int iters,
                                       util::Rng& rng) const {
  if (!enabled()) return 0.0f;
  const float s = sigma(target);
  float err = static_cast<float>(rng.gaussian(0.0, s));
  for (int it = 1; it < iters; ++it) {
    err = std::fma(kVerifyAttenuation, err,
                   static_cast<float>(rng.gaussian(0.0, kVerifyAttenuation * s)));
  }
  return err;
}

void ProgrammingNoise::apply(Matrix& w_hat, util::Rng& rng,
                             int write_verify_iters) const {
  if (!enabled()) return;
  float* p = w_hat.data();
  for (std::int64_t i = 0; i < w_hat.size(); ++i) {
    p[i] += residual_error(p[i], write_verify_iters, rng);
  }
}

}  // namespace nora::noise
