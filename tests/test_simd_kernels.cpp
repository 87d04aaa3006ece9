// Bit-equality of the vector kernels against their scalar op maps.
//
// Each kernel in util/simd_kernels.hpp documents the exact scalar
// operation sequence it vectorizes (including the FMA contractions the
// compiled scalar build performs). These tests re-state those op maps
// with explicit std::fma — a correctly-rounded single operation, so the
// reference is identical under every optimization level — and demand
// the kernels match bit for bit on randomized inputs spanning several
// magnitudes, plus ragged lengths that exercise the scalar tails. The
// panel-major tile MVM runs at every ISA level (scalar, AVX2, AVX-512)
// against a column-major reference.
// The golden-stream suite (run with NORA_FORCE_SCALAR on and off)
// covers the production call sites end to end; this file pins each
// kernel in isolation so a divergence names the broken kernel directly.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <random>
#include <string>
#include <vector>

#include "noise/quantizer.hpp"
#include "util/simd.hpp"
#include "util/simd_kernels.hpp"

namespace nora {
namespace {

bool have_avx2() {
#if defined(__AVX2__) && defined(__FMA__)
  return __builtin_cpu_supports("avx2") && __builtin_cpu_supports("fma");
#else
  return false;
#endif
}

#define REQUIRE_AVX2()                                         \
  do {                                                         \
    if (!have_avx2()) GTEST_SKIP() << "AVX2+FMA unavailable";  \
  } while (0)

/// Bitwise float equality (EXPECT_EQ on floats treats -0 == +0 and
/// fails on NaN == NaN; kernels must reproduce the exact bits).
::testing::AssertionResult same_bits(float a, float b) {
  std::uint32_t ua, ub;
  std::memcpy(&ua, &a, 4);
  std::memcpy(&ub, &b, 4);
  if (ua == ub) return ::testing::AssertionSuccess();
  return ::testing::AssertionFailure()
         << a << " (0x" << std::hex << ua << ") != " << b << " (0x" << ub
         << ")";
}

std::vector<float> random_floats(std::mt19937& gen, std::size_t n,
                                 float scale) {
  std::uniform_real_distribution<float> dist(-scale, scale);
  std::vector<float> v(n);
  for (auto& x : v) x = dist(gen);
  return v;
}

TEST(RoundHalfAway, MatchesStdRoundEverywhere) {
  using noise::UniformQuantizer;
  const float edge[] = {0.0f,       -0.0f,       0.5f,     -0.5f,
                        1.5f,       -1.5f,       2.5f,     -2.5f,
                        0.49999997f, -0.49999997f, 8388607.5f, -8388607.5f,
                        16777216.0f, -16777216.0f, 1e30f,   -1e30f,
                        1e-30f,     -1e-30f,
                        std::numeric_limits<float>::infinity(),
                        -std::numeric_limits<float>::infinity(),
                        std::numeric_limits<float>::quiet_NaN(),
                        std::numeric_limits<float>::denorm_min()};
  for (const float y : edge) {
    const float got = UniformQuantizer::round_half_away(y);
    const float want = std::round(y);
    if (std::isnan(want)) {
      EXPECT_TRUE(std::isnan(got)) << y;
    } else {
      EXPECT_TRUE(same_bits(got, want)) << "y = " << y;
    }
    // Signed zero must survive (std::round preserves the sign bit).
    if (y == 0.0f) {
      EXPECT_EQ(std::signbit(got), std::signbit(y));
    }
  }
  std::mt19937 gen(123);
  for (const float scale : {1.0f, 64.0f, 1e6f, 1e20f}) {
    for (const float y : random_floats(gen, 4096, scale)) {
      EXPECT_TRUE(same_bits(UniformQuantizer::round_half_away(y),
                            std::round(y)))
          << "y = " << y;
    }
  }
}

// --- panel-major tile MVM ---------------------------------------------

/// Pack column-major [cols x rows] weights into the panel-major layout
/// util::simd::panel_mvm reads: [ceil(cols/8)][rows][8], zero-padded.
std::vector<float> pack_panels(const std::vector<float>& w_cm,
                               std::size_t rows, std::size_t cols) {
  const std::size_t P = util::simd::kPanelCols;
  std::vector<float> panels((cols + P - 1) / P * rows * P, 0.0f);
  for (std::size_t j = 0; j < cols; ++j) {
    for (std::size_t k = 0; k < rows; ++k) {
      panels[((j / P) * rows + k) * P + j % P] = w_cm[j * rows + k];
    }
  }
  return panels;
}

/// The column-major reference accumulate: one column's recurrence with
/// explicit std::fma (the contractions the compiled scalar loop makes).
float reference_column(const float* w, const float* x, std::size_t rows,
                       bool ir, float kappa) {
  const double inv_n = 1.0 / static_cast<double>(rows);
  double ca = 0.0, acc = 0.0;
  for (std::size_t k = 0; k < rows; ++k) {
    if (ir) {
      const float c = w[k] * x[k];
      ca += static_cast<double>(std::fabs(c));
      const double t = static_cast<double>(kappa) * ca;
      acc = std::fma(static_cast<double>(c), std::fma(-t, inv_n, 1.0), acc);
    } else {
      acc = std::fma(static_cast<double>(w[k]), static_cast<double>(x[k]),
                     acc);
    }
  }
  return static_cast<float>(acc);
}

/// The reference ADC read-out of one column, through the production
/// quantizer. Returns true when the column saturated.
bool reference_adc(const util::simd::AdcEpilogue& e,
                   const noise::UniformQuantizer& adc, float v, float gamma,
                   const double*& g, float& y) {
  if (e.read_noise) v += static_cast<float>(std::fma(e.read_sd, *g++, 0.0));
  if (e.out_noise) v += static_cast<float>(std::fma(e.out_sd, *g++, 0.0));
  const bool saturated = adc.saturates(v);
  v = adc.quantize(v);
  y = std::fma(e.alpha * gamma, v, y);
  return saturated;
}

/// NaN lanes only have to agree on NaN-ness; everything else bitwise.
::testing::AssertionResult same_value_bits(float a, float b) {
  if (std::isnan(a) && std::isnan(b)) return ::testing::AssertionSuccess();
  return same_bits(a, b);
}

class PanelKernels : public ::testing::TestWithParam<util::simd::Isa> {
 protected:
  void SetUp() override {
    if (!util::simd::supported(GetParam())) {
      GTEST_SKIP() << util::simd::isa_name(GetParam())
                   << " unavailable on this CPU/build";
    }
  }
};

TEST_P(PanelKernels, TileMvmMatchesColumnMajorReference) {
  const util::simd::Isa isa = GetParam();
  std::mt19937 gen(31);
  std::normal_distribution<double> nd(0.0, 1.0);
  std::uniform_int_distribution<int> pick(0, 15);
  for (const std::size_t rows : {1u, 5u, 72u, 288u, 512u}) {
    for (const std::size_t cols : {1u, 7u, 8u, 9u, 72u, 216u, 509u}) {
      // Weights and inputs in [-1, 1] (normalized conductances and
      // post-DAC inputs), salted with +-0 and full-scale values so sums
      // rail the ADC; one all-zero column.
      std::vector<float> w = random_floats(gen, rows * cols, 1.0f);
      std::vector<float> x = random_floats(gen, rows, 1.0f);
      for (auto& v : w) {
        const int r = pick(gen);
        if (r == 0) v = 0.0f;
        if (r == 1) v = -0.0f;
        if (r == 2) v = v < 0.0f ? -1.0f : 1.0f;
      }
      for (auto& v : x) {
        const int r = pick(gen);
        if (r == 0) v = 0.0f;
        if (r == 1) v = -0.0f;
        if (r == 2) v = 1.0f;
      }
      if (cols > 2) std::fill_n(w.begin() + rows, rows, 0.0f);
      std::vector<float> gamma = random_floats(gen, cols, 2.0f);
      for (auto& v : gamma) v = std::fabs(v) + 0.25f;
      std::vector<double> draws(2 * cols);
      for (auto& d : draws) d = nd(gen);
      std::vector<float> y0 = random_floats(gen, cols, 1.0f);
      if (cols > 3) {
        y0[1] = 0.0f;
        y0[2] = -0.0f;
      }
      const std::vector<float> panels = pack_panels(w, rows, cols);
      const std::size_t n_panels = panels.size() / (rows * 8);
      const float kappa = 0.05f * 1.0f * static_cast<float>(rows) / 512.0f;
      for (const bool ir : {false, true}) {
        std::vector<float> acc_ref(cols);
        for (std::size_t j = 0; j < cols; ++j) {
          acc_ref[j] =
              reference_column(w.data() + j * rows, x.data(), rows, ir, kappa);
        }
        std::vector<float> acc(n_panels * 8, -1.0f);
        util::simd::panel_mvm(isa, panels.data(), n_panels, rows, x.data(),
                              ir, kappa, acc.data());
        for (std::size_t j = 0; j < cols; ++j) {
          ASSERT_TRUE(same_bits(acc[j], acc_ref[j]))
              << "rows " << rows << ", cols " << cols << ", ir " << ir
              << ", col " << j;
        }
        for (const bool read_noise : {false, true}) {
          for (const bool out_noise : {false, true}) {
            for (const float steps : {0.0f, 128.0f, 100.0f}) {
              util::simd::AdcEpilogue e;
              e.read_noise = read_noise;
              e.out_noise = out_noise;
              e.read_sd = static_cast<double>(0.0175f * 3.1f);
              e.out_sd = static_cast<double>(0.04f);
              e.steps = steps;
              e.bound = 1.0f;
              e.alpha = 1.37f;
              const noise::UniformQuantizer adc(steps, e.bound);
              std::vector<float> y_ref = y0;
              const double* g = draws.data();
              std::int64_t sat_ref = 0;
              for (std::size_t j = 0; j < cols; ++j) {
                sat_ref += reference_adc(e, adc, acc_ref[j], gamma[j], g,
                                         y_ref[j]);
              }
              std::vector<float> y = y0;
              const std::int64_t sat = util::simd::adc_epilogue(
                  isa, e, acc.data(), gamma.data(), draws.data(), cols,
                  y.data());
              ASSERT_EQ(sat, sat_ref) << "rows " << rows << ", cols " << cols;
              for (std::size_t j = 0; j < cols; ++j) {
                ASSERT_TRUE(same_bits(y[j], y_ref[j]))
                    << "rows " << rows << ", cols " << cols << ", ir " << ir
                    << ", read " << read_noise << ", out " << out_noise
                    << ", steps " << steps << ", col " << j;
              }
            }
          }
        }
      }
    }
  }
}

TEST_P(PanelKernels, AdcEpilogueEdgeValues) {
  // Ties, +-0, values inside (-0.5, 0] steps (trunc to -0), full-scale
  // and beyond, infinities and NaN, fed straight into the epilogue.
  const util::simd::Isa isa = GetParam();
  std::vector<float> acc = {0.0f,        -0.0f,       0.5f / 64.0f,
                            -0.5f / 64.0f, 1.5f / 64.0f, -2.5f / 64.0f,
                            -0.001f,     0.001f,      1.0f,
                            -1.0f,       0.99999994f, -1.0000001f,
                            3.0f,        -7.5f,       1e-30f,
                            -1e-30f,
                            std::numeric_limits<float>::infinity(),
                            -std::numeric_limits<float>::infinity(),
                            std::numeric_limits<float>::quiet_NaN(),
                            std::numeric_limits<float>::denorm_min(),
                            63.5f / 64.0f, -64.5f / 64.0f, 0.25f, -0.75f};
  const std::size_t cols = acc.size();
  std::vector<float> gamma(cols, 1.0f);
  std::vector<double> draws(2 * cols, 0.0);
  for (const float steps : {0.0f, 128.0f, 100.0f}) {
    util::simd::AdcEpilogue e;
    e.steps = steps;
    e.bound = 1.0f;
    e.alpha = 1.0f;
    const noise::UniformQuantizer adc(steps, e.bound);
    for (const float y_init : {0.0f, -0.0f}) {
      std::vector<float> y_ref(cols, y_init), y(cols, y_init);
      const double* g = draws.data();
      std::int64_t sat_ref = 0;
      for (std::size_t j = 0; j < cols; ++j) {
        sat_ref += reference_adc(e, adc, acc[j], gamma[j], g, y_ref[j]);
      }
      const std::int64_t sat = util::simd::adc_epilogue(
          isa, e, acc.data(), gamma.data(), draws.data(), cols, y.data());
      EXPECT_EQ(sat, sat_ref) << "steps " << steps;
      for (std::size_t j = 0; j < cols; ++j) {
        EXPECT_TRUE(same_value_bits(y[j], y_ref[j]))
            << "steps " << steps << ", acc " << acc[j] << ", y0 " << y_init;
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Isas, PanelKernels,
    ::testing::Values(util::simd::Isa::kScalar, util::simd::Isa::kAvx2,
                      util::simd::Isa::kAvx512),
    [](const ::testing::TestParamInfo<util::simd::Isa>& info) {
      return std::string(util::simd::isa_name(info.param));
    });

TEST(SimdKernels, DacScaleClipQuantizeMatchesScalarPipeline) {
  REQUIRE_AVX2();
  std::mt19937 gen(17);
  const float bound = 1.0f;
  for (const float steps : {0.0f, 128.0f, 100.0f}) {  // off / 7-bit / frac
    for (const std::size_t n : {1u, 8u, 13u, 64u, 255u}) {
      // Scale 3x the clip point so a healthy fraction of lanes clip.
      const std::vector<float> xs = random_floats(gen, n, 3.0f);
      const float inv_alpha = 0.9f;
      std::vector<float> got(n), want(n);
      const std::int64_t clipped = util::simd::dac_scale_clip_quantize_avx2(
          xs.data(), got.data(), n, inv_alpha, steps, bound);
      const float half = steps / 2.0f;
      std::int64_t want_clipped = 0;
      for (std::size_t k = 0; k < n; ++k) {
        float v = xs[k] * inv_alpha;
        if (std::fabs(v) > 1.0f) {
          ++want_clipped;
          v = v > 0.0f ? 1.0f : -1.0f;
        }
        if (steps > 0.0f) {
          float q = noise::UniformQuantizer::round_half_away(
              v / bound * half);
          q = std::clamp(q, -half, half - 1.0f);
          v = q * bound / half;
        }
        want[k] = v;
      }
      EXPECT_EQ(clipped, want_clipped) << "steps " << steps << ", n " << n;
      for (std::size_t k = 0; k < n; ++k) {
        EXPECT_TRUE(same_bits(got[k], want[k]))
            << "steps " << steps << ", n " << n << ", k " << k;
      }
    }
  }
}

TEST(SimdKernels, GaussianEpiloguesMatchFmaForms) {
  REQUIRE_AVX2();
  std::mt19937 gen(23);
  std::normal_distribution<double> nd(0.0, 1.0);
  for (const std::size_t n : {1u, 4u, 6u, 64u, 129u}) {
    std::vector<double> raw(n);
    for (auto& r : raw) r = nd(gen);
    // add_scaled_gaussian: v[k] += (float)fma(stddev, raw[k], 0.0)
    std::vector<float> v = random_floats(gen, n, 1.0f);
    std::vector<float> want = v;
    const double stddev = 0.02;
    util::simd::add_scaled_gaussian_avx2(v.data(), raw.data(), n, stddev);
    for (std::size_t k = 0; k < n; ++k) {
      want[k] += static_cast<float>(std::fma(stddev, raw[k], 0.0));
      EXPECT_TRUE(same_bits(v[k], want[k])) << "n " << n << ", k " << k;
    }
    // scale_convert: dst[k] = (float)fma(stddev, raw[k], mean)
    std::vector<float> dst(n);
    util::simd::scale_convert_avx2(dst.data(), raw.data(), n, 0.5, 1.7);
    for (std::size_t k = 0; k < n; ++k) {
      EXPECT_TRUE(same_bits(dst[k],
                            static_cast<float>(std::fma(1.7, raw[k], 0.5))))
          << "n " << n << ", k " << k;
    }
  }
}

TEST(SimdDispatch, ActiveIsaIsStableAndNamed) {
  const util::simd::Isa isa = util::simd::active();
  EXPECT_EQ(isa, util::simd::active());  // resolved once, then cached
  const char* name = util::simd::isa_name(isa);
  ASSERT_NE(name, nullptr);
  EXPECT_TRUE(std::string(name) == "scalar" || std::string(name) == "avx2" ||
              std::string(name) == "avx512");
  EXPECT_TRUE(util::simd::supported(isa));
  if (isa != util::simd::Isa::kScalar) {
    EXPECT_TRUE(have_avx2());  // every vector level runs the AVX2 kernels
    EXPECT_TRUE(util::simd::use_avx2());
  }
}

}  // namespace
}  // namespace nora
