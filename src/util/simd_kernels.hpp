// Vector implementations of the analog hot-loop kernels.
//
// Every kernel here is the elementwise vector image of a scalar loop in
// the simulator, including the FMA contractions GCC bakes into the
// scalar -O3 -march=native build (vfmadd/vfnmadd placement read off the
// disassembly of the shipped objects). Two families:
//
//   - the tile MVM (panel_mvm + adc_epilogue) takes the ISA explicitly
//     and carries its own scalar twin, written with explicit std::fma so
//     it is the same op sequence under any compiler preset;
//   - the *_avx2 kernels are called by sites that branch on
//     util::simd::use_avx2() and keep their scalar loops inline.
//
// Every vector variant is bit-identical to its scalar twin by contract —
// enforced by tests/test_simd_kernels.cpp (randomized equality against
// column-major std::fma references) and by the golden-stream tests run
// with NORA_FORCE_SCALAR on and off.
//
// When the build does not target a level, its declarations remain but
// the definitions abort; util::simd::active() never selects that level
// in such a build, so they are unreachable.
#pragma once

#include <cstddef>
#include <cstdint>

#include "util/simd.hpp"

namespace nora::util::simd {

/// Columns per conductance panel. AnalogTile keeps its effective
/// conductances panel-major, [ceil(cols / 8)][rows][8]: element (k, j)
/// sits at panel j / 8, offset k * 8 + j % 8, and the lanes past the last
/// column are zero. One row of a panel is one 8-float vector load.
inline constexpr std::size_t kPanelCols = 8;

/// Panel-major tile MVM accumulate. For every column j of `n_panels`
/// panels of `rows` rows, writes acc[j] = (float)a_j where a_j runs the
/// per-row recurrence of today's column-major loop, in row order:
///
///   ir == false:  a = fma((double)w[k], (double)x[k], a)
///   ir == true:   c      = w[k] * x[k]                  (float multiply)
///                 ca    += (double)fabsf(c)
///                 t      = (double)kappa * ca
///                 factor = fma(-t, inv_n, 1.0)          (1 - t*inv_n)
///                 a      = fma((double)c, factor, a)
///
/// with inv_n = 1.0 / (double)rows and a = ca = 0 at k = 0. Columns are
/// independent, so the vector variants run 8 (one panel) per vector and
/// keep two panels in flight; each column's op sequence is unchanged.
/// acc holds n_panels * 8 floats (padding lanes come out as 0).
void panel_mvm(Isa isa, const float* panels, std::size_t n_panels,
               std::size_t rows, const float* x, bool ir, float kappa,
               float* acc);

/// The ADC read-out of one tile MVM, per column j in ascending order:
///
///   v  = acc[j]
///   v += (float)fma(read_sd, *g++, 0.0)        if read_noise
///   v += (float)fma(out_sd, *g++, 0.0)         if out_noise
///   saturated += steps > 0 && |v| >= bound
///   v  = quantize(v)                           if steps > 0
///   y[j] = fmaf(alpha * gamma[j], v, y[j])
///
/// quantize is noise::UniformQuantizer's mid-tread rule: with half =
/// steps / 2, q = round_half_away(v / bound * half), clamped (std::clamp
/// semantics) to [-half, half - 1], then v = q * bound / half. The draws
/// g are consumed in that column-major order (read before output noise),
/// exactly as the prefilled standard normals were laid out.
struct AdcEpilogue {
  bool read_noise = false;
  bool out_noise = false;
  double read_sd = 0.0;
  double out_sd = 0.0;
  float steps = 0.0f;  // ADC steps; 0 = ideal converter
  float bound = 1.0f;  // ADC full scale
  float alpha = 1.0f;  // input scale of this MVM
};

/// Runs the epilogue above over `cols` columns; returns the number of
/// saturated columns.
std::int64_t adc_epilogue(Isa isa, const AdcEpilogue& e, const float* acc,
                          const float* gamma, const double* g,
                          std::size_t cols, float* y);

/// DAC input pipeline, vector stage: v = xs[k]*inv_alpha, clip to ±1
/// (counting clips), then — when steps > 0 — the mid-tread quantizer
///   q = round(v / bound * half); q = clamp(q, -half, half-1); v = q*bound/half
/// with half = steps/2 and round() emulated exactly (trunc + half-away
/// adjustment; std::round is correctly rounded, so the emulation is
/// bit-exact). Stores v into out. Returns the clip count.
std::int64_t dac_scale_clip_quantize_avx2(const float* xs, float* out,
                                          std::size_t n, float inv_alpha,
                                          float steps, float bound);

/// v[k] += (float)fma(stddev, raw[k], 0.0) — the additive-input-noise
/// epilogue; the fma-with-zero mirrors the compiled scalar expression
/// `(float)(0.0 + stddev * raw[k])`.
void add_scaled_gaussian_avx2(float* v, const double* raw, std::size_t n,
                              double stddev);

/// dst[k] = (float)fma(stddev, raw[k], mean) — the Gaussian fill
/// scale/convert stage (the compiled form of `(float)(mean + stddev*g)`).
void scale_convert_avx2(float* dst, const double* raw, std::size_t n,
                        double mean, double stddev);

}  // namespace nora::util::simd
