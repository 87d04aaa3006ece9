// Golden regression for the counter-keyed runtime RNG streams.
//
// Pins the exact forward output of an everything-on operating point
// (converters, input/output/read noise, S-shape, IR drop, bound
// management, hard faults + spare remap + verify retries, ABFT) so any
// future change of the stream derivation — reordering the key
// coordinates, changing derive_stream, consuming draws in a different
// order — fails loudly instead of silently re-randomizing every
// experiment. The same pinned values must appear at EVERY thread count:
// this is the golden-file form of the thread-invariance property.
#include <gtest/gtest.h>

#include <stdexcept>
#include <vector>

#include "cim/analog_matmul.hpp"
#include "tensor/matrix.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"

namespace nora {
namespace {

Matrix random_matrix(std::int64_t r, std::int64_t c, std::uint64_t seed,
                     float std_dev = 0.5f) {
  util::Rng rng(seed);
  Matrix m(r, c);
  m.fill_gaussian(rng, std_dev);
  return m;
}

cim::TileConfig everything_on(int n_threads) {
  cim::TileConfig cfg = cim::TileConfig::paper_table2();
  cfg.tile_rows = 32;
  cfg.tile_cols = 24;
  cfg.in_noise = 0.02f;
  cfg.sshape_k = 0.2f;
  cfg.bound_management = true;
  cfg.adc_bound = 4.0f;
  cfg.faults.stuck_zero_rate = 0.01f;
  cfg.faults.stuck_gmax_rate = 0.002f;
  cfg.spare_cols = 2;
  cfg.max_program_retries = 2;
  cfg.abft_checksum = true;
  cfg.n_threads = n_threads;
  return cfg;
}

// Captured with the stream relayout that introduced derive_stream keying
// (epoch, token, row-block|attempt, tile); w = random_matrix(70,50,101),
// x = random_matrix(5,70,202,1.0), seed 31337.
struct Golden {
  int t, j;
  float v;
};
constexpr Golden kGolden[] = {
    {0, 3, -0.0379376411f}, {0, 25, -2.34188604f}, {0, 49, 4.39771414f},
    {1, 3, 1.05696332f},    {1, 25, 1.14505994f},  {1, 49, 1.59453928f},
    {4, 3, -4.99205256f},   {4, 25, -8.36700153f}, {4, 49, 2.59049129f},
};

class GoldenStreams : public ::testing::TestWithParam<int> {};

TEST_P(GoldenStreams, EverythingOnForwardMatchesPinnedValues) {
  const int threads = GetParam();
  util::ThreadPool::global().resize(threads);
  const Matrix w = random_matrix(70, 50, 101);
  const Matrix x = random_matrix(5, 70, 202, 1.0f);
  cim::AnalogMatmul unit(w, {}, everything_on(threads), 31337);
  const Matrix y = unit.forward(x);
  for (const auto& g : kGolden) {
    EXPECT_EQ(y.at(g.t, g.j), g.v)
        << "t=" << g.t << " j=" << g.j << " threads=" << threads;
  }
  // Converter traffic and integrity counters are part of the contract.
  EXPECT_EQ(unit.stats().dac_samples, 350);
  EXPECT_EQ(unit.stats().dac_clipped, 0);
  EXPECT_EQ(unit.adc_reads(), 750);
  EXPECT_EQ(unit.abft_stats().checks, 45);
  util::ThreadPool::global().resize(1);
}

// Same contract for the keyed forward (the serve path): rows keyed on
// explicit (stream, token) coordinates must reproduce these exact bits
// at every thread count. Captured before the workspace-reuse rewrite of
// the MVM kernels (batched gaussian_fill, fused IR-drop accumulate,
// per-thread scratch); the rewrite must change zero output bits.
constexpr Golden kKeyedGolden[] = {
    {0, 3, -1.31310511f}, {0, 25, -2.49494028f}, {0, 49, 3.9100728f},
    {2, 3, 2.39242101f},  {2, 25, -3.56807423f}, {2, 49, 4.11092043f},
    {4, 3, -4.57111788f}, {4, 25, -7.67750311f}, {4, 49, 2.21436882f},
};

TEST_P(GoldenStreams, KeyedForwardMatchesPinnedValues) {
  const int threads = GetParam();
  util::ThreadPool::global().resize(threads);
  const Matrix w = random_matrix(70, 50, 101);
  const Matrix x = random_matrix(5, 70, 202, 1.0f);
  cim::AnalogMatmul unit(w, {}, everything_on(threads), 31337);
  // Two stream groups (t/3) with per-row token coordinates, as the
  // scheduler produces for a prefill segment next to decode rows.
  std::vector<cim::StreamKey> keys(5);
  for (std::uint64_t t = 0; t < 5; ++t) keys[t] = {1000 + t / 3, 10 + t};
  const Matrix y = unit.forward(x, keys);
  for (const auto& g : kKeyedGolden) {
    EXPECT_EQ(y.at(g.t, g.j), g.v)
        << "t=" << g.t << " j=" << g.j << " threads=" << threads;
  }
  EXPECT_EQ(unit.stats().dac_samples, 350);
  EXPECT_EQ(unit.adc_reads(), 750);
  EXPECT_EQ(unit.abft_stats().checks, 45);
  util::ThreadPool::global().resize(1);
}

// The unkeyed forward is the keyed forward on keys {epoch, t}, the epoch
// advancing once per accepted call: same output bits and same
// statistics, and a call rejected for a dimension mismatch uses no epoch.
std::vector<cim::StreamKey> epoch_keys(std::uint64_t epoch, std::int64_t rows) {
  std::vector<cim::StreamKey> keys(static_cast<std::size_t>(rows));
  for (std::uint64_t t = 0; t < keys.size(); ++t) keys[t] = {epoch, t};
  return keys;
}

void expect_same_run(const Matrix& a, const Matrix& b,
                     const cim::AnalogMatmul& ua, const cim::AnalogMatmul& ub,
                     int threads) {
  ASSERT_TRUE(a.same_shape(b));
  for (std::int64_t i = 0; i < a.size(); ++i) {
    ASSERT_EQ(a.data()[i], b.data()[i]) << "i=" << i << " threads=" << threads;
  }
  EXPECT_EQ(ua.stats().alpha_sum, ub.stats().alpha_sum);
  EXPECT_EQ(ua.stats().alpha_count, ub.stats().alpha_count);
  EXPECT_EQ(ua.stats().dac_samples, ub.stats().dac_samples);
  EXPECT_EQ(ua.stats().dac_clipped, ub.stats().dac_clipped);
  EXPECT_EQ(ua.stats().bm_retries, ub.stats().bm_retries);
  EXPECT_EQ(ua.adc_reads(), ub.adc_reads());
  EXPECT_EQ(ua.adc_saturations(), ub.adc_saturations());
  EXPECT_EQ(ua.abft_stats().checks, ub.abft_stats().checks);
}

TEST_P(GoldenStreams, UnkeyedForwardIsKeyedOnEpochAndRow) {
  const int threads = GetParam();
  util::ThreadPool::global().resize(threads);
  // The 7x7 grid below, whose tiles saturate: stats include retries.
  const Matrix w = random_matrix(200, 150, 101);
  const Matrix x = random_matrix(4, 200, 202, 1.0f);
  const Matrix bad = random_matrix(4, 199, 203, 1.0f);
  cim::AnalogMatmul unkeyed(w, {}, everything_on(threads), 31337);
  cim::AnalogMatmul keyed(w, {}, everything_on(threads), 31337);
  const Matrix u0 = unkeyed.forward(x);
  const Matrix k0 = keyed.forward(x, epoch_keys(0, x.rows()));
  expect_same_run(u0, k0, unkeyed, keyed, threads);
  EXPECT_GT(unkeyed.stats().bm_retries, 0);
  const Matrix u1 = unkeyed.forward(x);
  const Matrix k1 = keyed.forward(x, epoch_keys(1, x.rows()));
  expect_same_run(u1, k1, unkeyed, keyed, threads);
  EXPECT_THROW(unkeyed.forward(bad), std::invalid_argument);
  const Matrix u2 = unkeyed.forward(x);
  const Matrix k2 = keyed.forward(x, epoch_keys(2, x.rows()));
  expect_same_run(u2, k2, unkeyed, keyed, threads);
  util::ThreadPool::global().resize(1);
}

// A 7x7 grid (200x150 on 32x24 tiles): partial sums reduce through the
// canonical tree over 7 row blocks, and bound management retries single
// tiles of multi-tile blocks. Captured when every forward moved onto the
// per-tile work items; x = random_matrix(4,200,202,1.0), seed 31337.
constexpr Golden kGridGolden[] = {
    {0, 3, -1.48382378f}, {0, 77, -7.71465635f}, {0, 149, -0.638415337f},
    {3, 3, 16.1179733f},  {3, 77, 3.72974014f},  {3, 149, -6.69777203f},
};

TEST_P(GoldenStreams, TreeReducedGridWithRetriesMatchesPinnedValues) {
  const int threads = GetParam();
  util::ThreadPool::global().resize(threads);
  const Matrix w = random_matrix(200, 150, 101);
  const Matrix x = random_matrix(4, 200, 202, 1.0f);
  cim::AnalogMatmul unit(w, {}, everything_on(threads), 31337);
  ASSERT_EQ(unit.row_blocks(), 7);
  ASSERT_EQ(unit.col_blocks(), 7);
  const Matrix y = unit.forward(x);
  for (const auto& g : kGridGolden) {
    EXPECT_EQ(y.at(g.t, g.j), g.v)
        << "t=" << g.t << " j=" << g.j << " threads=" << threads;
  }
  EXPECT_EQ(unit.stats().bm_retries, 3);
  EXPECT_EQ(unit.stats().alpha_count, 196);
  EXPECT_EQ(unit.stats().dac_samples, 800);
  EXPECT_EQ(unit.adc_reads(), 4266);
  EXPECT_EQ(unit.adc_saturations(), 3);
  EXPECT_EQ(unit.abft_stats().checks, 199);
  util::ThreadPool::global().resize(1);
}

// Converters off (dac_bits = adc_bits = 0) with read noise, output noise
// and IR drop on: no quantizer rounds low-order kernel errors away, so a
// reordered IR-drop recurrence or swapped noise draws move these values
// (a 7-bit ADC hides both from the goldens above). x =
// random_matrix(5,70,202,1.0), seed 31337, 32x24 tiles, no spares.
constexpr Golden kConvertersOffGolden[] = {
    {0, 3, 0.0437729359f},  {0, 25, -3.0475471f},  {0, 47, -0.996659279f},
    {2, 10, 4.18730259f},   {2, 30, -1.13720322f}, {2, 44, -12.5305014f},
    {4, 3, -4.23272753f},   {4, 25, -2.98895073f}, {4, 47, 9.93975925f},
};

TEST_P(GoldenStreams, ConvertersOffForwardMatchesPinnedValues) {
  const int threads = GetParam();
  util::ThreadPool::global().resize(threads);
  cim::TileConfig cfg = cim::TileConfig::paper_table2();
  cfg.tile_rows = 32;
  cfg.tile_cols = 24;
  cfg.dac_bits = 0;
  cfg.adc_bits = 0;
  cfg.n_threads = threads;
  ASSERT_GT(cfg.w_noise, 0.0f);
  ASSERT_GT(cfg.out_noise, 0.0f);
  ASSERT_GT(cfg.ir_drop, 0.0f);
  const Matrix w = random_matrix(70, 50, 101);
  const Matrix x = random_matrix(5, 70, 202, 1.0f);
  cim::AnalogMatmul unit(w, {}, cfg, 31337);
  const Matrix y = unit.forward(x);
  for (const auto& g : kConvertersOffGolden) {
    EXPECT_EQ(y.at(g.t, g.j), g.v)
        << "t=" << g.t << " j=" << g.j << " threads=" << threads;
  }
  util::ThreadPool::global().resize(1);
}

INSTANTIATE_TEST_SUITE_P(Threads, GoldenStreams, ::testing::Values(1, 2, 7, 16));

TEST(GoldenStreams, DeriveStreamIsAFixedFunction) {
  // The key schedule itself is pinned: changing the mixing breaks every
  // golden above, but catch it directly with a readable failure first.
  const std::uint64_t base = util::derive_seed(31337, "mvm-streams");
  EXPECT_EQ(util::derive_stream(base, 0, 0, 0),
            util::derive_stream(base, 0, 0, 0));
  EXPECT_NE(util::derive_stream(base, 0, 0, 0),
            util::derive_stream(base, 1, 0, 0));
  EXPECT_NE(util::derive_stream(base, 0, 1, 0),
            util::derive_stream(base, 0, 0, 1));
  // derive_stream(base, a) == derive_stream(base, a, 0, 0) (defaults).
  EXPECT_EQ(util::derive_stream(base, 7), util::derive_stream(base, 7, 0, 0));
}

}  // namespace
}  // namespace nora
