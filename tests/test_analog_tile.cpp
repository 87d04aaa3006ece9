// Tests for the single-tile analog MVM (Eq. 3-5) and its invariants.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>

#include "cim/analog_tile.hpp"
#include "noise/drift.hpp"
#include "noise/ir_drop.hpp"
#include "noise/quantizer.hpp"
#include "tensor/ops.hpp"

namespace nora::cim {
namespace {

Matrix random_matrix(std::int64_t r, std::int64_t c, std::uint64_t seed,
                     float std_dev = 0.5f) {
  util::Rng rng(seed);
  Matrix m(r, c);
  m.fill_gaussian(rng, std_dev);
  return m;
}

std::vector<float> random_vec(std::int64_t n, std::uint64_t seed) {
  util::Rng rng(seed);
  std::vector<float> v(static_cast<std::size_t>(n));
  for (auto& x : v) x = static_cast<float>(rng.gaussian());
  return v;
}

float l2(const std::vector<float>& v) {
  double s = 0.0;
  for (float x : v) s += double(x) * x;
  return static_cast<float>(std::sqrt(s));
}

TEST(AnalogTile, GammaIsPerColumnAbsMax) {
  Matrix w(2, 3, {1.0f, -4.0f, 0.0f, -2.0f, 3.0f, 0.0f});
  AnalogTile tile(w, TileConfig::ideal(), util::Rng(1));
  EXPECT_FLOAT_EQ(tile.gamma()[0], 2.0f);
  EXPECT_FLOAT_EQ(tile.gamma()[1], 4.0f);
  EXPECT_FLOAT_EQ(tile.gamma()[2], 1.0f);  // zero column guards to 1
}

TEST(AnalogTile, IdealTileMatchesDigitalGemv) {
  const Matrix w = random_matrix(48, 32, 2);
  AnalogTile tile(w, TileConfig::ideal(), util::Rng(3));
  // Normalized input (alpha = max|x|) exactly as the array would stream it.
  auto x = random_vec(48, 4);
  float alpha = 0.0f;
  for (float v : x) alpha = std::max(alpha, std::fabs(v));
  std::vector<float> x_hat = x;
  for (auto& v : x_hat) v /= alpha;
  std::vector<float> y(32, 0.0f);
  util::Rng rng(5);
  const bool sat = tile.mvm(x_hat, l2(x_hat), alpha, y, rng);
  EXPECT_FALSE(sat);
  for (std::int64_t j = 0; j < 32; ++j) {
    double ref = 0.0;
    for (std::int64_t k = 0; k < 48; ++k) ref += double(w.at(k, j)) * x[static_cast<std::size_t>(k)];
    EXPECT_NEAR(y[static_cast<std::size_t>(j)], ref, 1e-3 + 1e-4 * std::fabs(ref));
  }
}

TEST(AnalogTile, AdcSaturationIsCountedAndClamped) {
  // One column of all-max weights and an all-ones input saturates a
  // low-bound ADC.
  Matrix w(32, 1);
  w.fill(1.0f);
  TileConfig cfg = TileConfig::ideal();
  cfg.adc_bits = 7;
  cfg.adc_bound = 4.0f;  // sum of 32 normalized products saturates
  AnalogTile tile(w, cfg, util::Rng(6));
  std::vector<float> x_hat(32, 1.0f);
  std::vector<float> y(1, 0.0f);
  util::Rng rng(7);
  const bool sat = tile.mvm(x_hat, l2({x_hat.begin(), x_hat.end()}), 1.0f, y, rng);
  EXPECT_TRUE(sat);
  EXPECT_EQ(tile.adc_saturations(), 1);
  EXPECT_EQ(tile.adc_reads(), 1);
  // Clamped to the ADC's top code: (bound - step) * gamma(=1) * alpha.
  EXPECT_FLOAT_EQ(y[0], 4.0f * 63.0f / 64.0f);
}

TEST(AnalogTile, OutputNoiseScalesWithGammaAndAlpha) {
  // The real-unit impact of out_noise is alpha*gamma*sigma: doubling the
  // weight scale doubles gamma and with it the output error.
  const std::int64_t k = 16, reps = 3000;
  Matrix w1 = random_matrix(k, 1, 8);
  Matrix w2 = w1;
  ops::scale_inplace(w2, 2.0f);
  TileConfig cfg = TileConfig::ideal();
  cfg.out_noise = 0.04f;
  auto measure = [&](const Matrix& w) {
    AnalogTile tile(w, cfg, util::Rng(9));
    std::vector<float> x_hat(static_cast<std::size_t>(k), 0.5f);
    const float xl2 = l2(x_hat);
    util::Rng rng(10);
    double ref = 0.0;
    for (std::int64_t r = 0; r < k; ++r) ref += double(w.at(r, 0)) * 0.5;
    double sq = 0.0;
    for (int i = 0; i < reps; ++i) {
      std::vector<float> y(1, 0.0f);
      tile.mvm(x_hat, xl2, 1.0f, y, rng);
      sq += (y[0] - ref) * (y[0] - ref);
    }
    return std::sqrt(sq / reps);
  };
  const double e1 = measure(w1);
  const double e2 = measure(w2);
  EXPECT_NEAR(e2 / e1, 2.0, 0.15);
}

TEST(AnalogTile, DeterministicGivenSeed) {
  const Matrix w = random_matrix(24, 24, 11);
  TileConfig cfg;  // paper Table II, all noise on
  auto run = [&] {
    AnalogTile tile(w, cfg, util::Rng(12));
    std::vector<float> x_hat(24, 0.3f);
    std::vector<float> y(24, 0.0f);
    util::Rng rng(13);
    tile.mvm(x_hat, l2({x_hat.begin(), x_hat.end()}), 1.0f, y, rng);
    return y;
  };
  const auto a = run();
  const auto b = run();
  EXPECT_EQ(a, b);
}

TEST(AnalogTile, ProgrammingNoiseAppliedOncePerProgram) {
  // With only programming noise, repeated reads give identical results
  // (the error is frozen at program time), but two differently seeded
  // tiles differ.
  const Matrix w = random_matrix(16, 16, 14);
  const TileConfig cfg = TileConfig::ideal_except_prog_noise(1.0f);
  AnalogTile tile(w, cfg, util::Rng(15));
  std::vector<float> x_hat(16, 0.4f);
  const float xl2 = l2({x_hat.begin(), x_hat.end()});
  util::Rng rng(16);
  std::vector<float> y1(16, 0.0f), y2(16, 0.0f), y3(16, 0.0f);
  tile.mvm(x_hat, xl2, 1.0f, y1, rng);
  tile.mvm(x_hat, xl2, 1.0f, y2, rng);
  EXPECT_EQ(y1, y2);
  AnalogTile other(w, cfg, util::Rng(17));
  other.mvm(x_hat, xl2, 1.0f, y3, rng);
  EXPECT_NE(y1, y3);
}

TEST(AnalogTile, DriftReducesThenCompensationRestoresScale) {
  Matrix w(32, 1);
  w.fill(0.8f);
  TileConfig cfg = TileConfig::ideal();
  cfg.drift_enabled = true;
  cfg.drift.compensate = false;
  cfg.drift.nu_sigma = 0.0f;  // deterministic drift
  AnalogTile tile(w, cfg, util::Rng(18));
  std::vector<float> x_hat(32, 1.0f);
  const float xl2 = l2({x_hat.begin(), x_hat.end()});
  util::Rng rng(19);
  std::vector<float> y0(1, 0.0f), y1(1, 0.0f), yc(1, 0.0f);
  tile.mvm(x_hat, xl2, 1.0f, y0, rng);
  tile.set_read_time(3600.0f);
  tile.mvm(x_hat, xl2, 1.0f, y1, rng);
  EXPECT_LT(y1[0], y0[0] * 0.9f);  // uncompensated drift shrinks outputs
  // With compensation and zero spread, drift cancels exactly.
  cfg.drift.compensate = true;
  AnalogTile tile2(w, cfg, util::Rng(18));
  tile2.set_read_time(3600.0f);
  tile2.mvm(x_hat, xl2, 1.0f, yc, rng);
  EXPECT_NEAR(yc[0], y0[0], 1e-3);
}

/// Column-major reference of AnalogTile::mvm over known effective
/// conductances g_cm[j * rows + k]: per column the row-ordered std::fma
/// recurrence (IR-drop form when enabled), then read and output noise
/// from a copy of the tile's stream (drawn in the same batched order),
/// the production ADC quantizer, and y[j] = fma(alpha * gamma_j, q, y[j]).
std::vector<float> reference_mvm(const std::vector<float>& g_cm,
                                 std::int64_t rows, std::int64_t cols,
                                 std::span<const float> gamma,
                                 const std::vector<float>& x_hat, float x_l2,
                                 float alpha, const TileConfig& cfg,
                                 std::vector<float> y, util::Rng rng,
                                 std::int64_t& saturations) {
  const float sigma_r = cfg.w_noise;  // no 1/f component configured
  const std::size_t d =
      (sigma_r > 0.0f ? 1u : 0u) + (cfg.out_noise > 0.0f ? 1u : 0u);
  std::vector<double> draws(d * static_cast<std::size_t>(cols));
  if (d > 0) rng.gaussian_fill(draws);
  const noise::IrDropModel ir(cfg.ir_drop, static_cast<int>(rows));
  const noise::UniformQuantizer adc(cfg.adc_steps(), cfg.adc_bound);
  const double inv_n = 1.0 / static_cast<double>(rows);
  const double* g = draws.data();
  for (std::int64_t j = 0; j < cols; ++j) {
    double ca = 0.0, acc = 0.0;
    for (std::int64_t k = 0; k < rows; ++k) {
      const float w = g_cm[static_cast<std::size_t>(j * rows + k)];
      const float x = x_hat[static_cast<std::size_t>(k)];
      if (ir.enabled()) {
        const float c = w * x;
        ca += static_cast<double>(std::fabs(c));
        const double t = static_cast<double>(ir.kappa()) * ca;
        acc = std::fma(static_cast<double>(c), std::fma(-t, inv_n, 1.0), acc);
      } else {
        acc = std::fma(static_cast<double>(w), static_cast<double>(x), acc);
      }
    }
    float v = static_cast<float>(acc);
    if (sigma_r > 0.0f) {
      v += static_cast<float>(
          std::fma(static_cast<double>(sigma_r * x_l2), *g++, 0.0));
    }
    if (cfg.out_noise > 0.0f) {
      v += static_cast<float>(
          std::fma(static_cast<double>(cfg.out_noise), *g++, 0.0));
    }
    if (adc.saturates(v)) ++saturations;
    v = adc.quantize(v);
    float& yj = y[static_cast<std::size_t>(j)];
    yj = std::fma(alpha * gamma[static_cast<std::size_t>(j)], v, yj);
  }
  return y;
}

bool same_bits(const std::vector<float>& a, const std::vector<float>& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(float)) == 0;
}

TEST(AnalogTile, MvmMatchesColumnMajorReferenceThroughStateChanges) {
  // Deterministic conductances (no programming noise) so the reference
  // knows every device; read/output noise, IR drop and a low ADC bound
  // (so some columns saturate) stay on. Ragged shape: 21 columns leave a
  // partly padded last panel.
  const std::int64_t rows = 40, cols = 21;
  const Matrix w = random_matrix(rows, cols, 41);
  for (const bool abft : {false, true}) {
    TileConfig cfg = TileConfig::ideal();
    cfg.ir_drop = 1.0f;
    cfg.adc_bits = 7;
    cfg.adc_bound = 1.5f;
    cfg.out_noise = 0.04f;
    cfg.w_noise = 0.0175f;
    cfg.drift_enabled = true;
    cfg.drift.nu_sigma = 0.0f;       // every device drifts with nu_mean
    cfg.drift.compensate = false;    // so the drift is visible in y
    cfg.abft_checksum = abft;
    AnalogTile tile(w, cfg, util::Rng(42));
    const auto gamma = tile.gamma();
    std::vector<float> programmed(static_cast<std::size_t>(rows * cols));
    for (std::int64_t j = 0; j < cols; ++j) {
      for (std::int64_t k = 0; k < rows; ++k) {
        programmed[static_cast<std::size_t>(j * rows + k)] =
            w.at(k, j) / gamma[static_cast<std::size_t>(j)];
      }
    }
    std::vector<float> x_hat = random_vec(rows, 43);
    for (auto& v : x_hat) v = std::clamp(v, -1.0f, 1.0f);
    const float x_l2 = l2(x_hat);
    const std::vector<float> y0 = random_vec(cols, 44);
    util::Rng rng(45);
    std::int64_t ref_saturations = 0;
    const auto check = [&](const std::vector<float>& g_cm, const char* what) {
      const std::vector<float> want =
          reference_mvm(g_cm, rows, cols, gamma, x_hat, x_l2, 1.3f, cfg, y0,
                        rng, ref_saturations);
      std::vector<float> y = y0;
      tile.mvm(x_hat, x_l2, 1.3f, y, rng);
      EXPECT_TRUE(same_bits(y, want)) << what << ", abft " << abft;
      EXPECT_EQ(tile.adc_saturations(), ref_saturations) << what;
    };
    std::vector<float> state = programmed;
    check(state, "as programmed");
    tile.upset_device(3, 7, 0.9f);
    state[3 * rows + 7] = 0.9f;
    check(state, "after upset_device");
    tile.wear_stuck(12, 0, -0.5f);
    programmed[12 * rows + 0] = -0.5f;
    state[12 * rows + 0] = -0.5f;
    check(state, "after wear_stuck");
    // Drift re-derives every device from the programmed state (clearing
    // the upset) and re-pins the worn device.
    const float t = 3600.0f;
    const noise::PcmDriftModel drift(cfg.drift);
    const float factor = drift.decay(cfg.drift.nu_mean, t) / drift.compensation(t);
    tile.set_read_time(t);
    for (std::size_t i = 0; i < state.size(); ++i) {
      state[i] = programmed[i] * factor;
    }
    state[12 * rows + 0] = -0.5f;
    check(state, "after set_read_time with drift");
    tile.set_read_time(0.0f);
    check(programmed, "after set_read_time(0)");
    EXPECT_GT(ref_saturations, 0) << "the ADC bound should rail some columns";
  }
}

TEST(AnalogTile, RejectsBadShapes) {
  EXPECT_THROW(AnalogTile(Matrix(), TileConfig::ideal(), util::Rng(1)),
               std::invalid_argument);
  const Matrix w = random_matrix(8, 8, 20);
  AnalogTile tile(w, TileConfig::ideal(), util::Rng(2));
  std::vector<float> x(4, 0.0f), y(8, 0.0f);
  util::Rng rng(3);
  EXPECT_THROW(tile.mvm(x, 0.0f, 1.0f, y, rng), std::invalid_argument);
}

}  // namespace
}  // namespace nora::cim
