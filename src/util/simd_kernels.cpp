#include "util/simd_kernels.hpp"

#include <algorithm>
#include <cmath>
#include <cstdlib>

#include "noise/quantizer.hpp"

#if defined(__AVX2__) && defined(__FMA__)
// GCC 12's AVX-512 conversion intrinsics pass _mm512_undefined_*() as
// the masked-off source, which -Wmaybe-uninitialized reports at every
// inlined use (GCC PR 105593); the value is never read.
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmaybe-uninitialized"
#include <immintrin.h>
#pragma GCC diagnostic pop
#endif

namespace nora::util::simd {

namespace {

#if defined(__AVX2__) && defined(__FMA__)
/// Leaves the vector unit in the clean-upper state when a kernel returns.
/// A non-zero upper half in any vector register makes every later
/// legacy-SSE instruction (glibc's log/sincos inside Rng::gaussian_fill)
/// pay the SSE/AVX transition penalty — measured at 3x the whole tile
/// MVM. GCC does not always emit vzeroupper on exit (it omitted it from
/// the epilogue dispatcher), and vzeroupper clears only zmm0-15, while
/// with AVX-512 enabled GCC also allocates zmm16-31. So both are done
/// here explicitly.
struct UpperClean {
  UpperClean() = default;
  UpperClean(const UpperClean&) = delete;
  UpperClean& operator=(const UpperClean&) = delete;
  ~UpperClean() {
#if defined(__AVX512F__)
    asm volatile(
        "vpxord %%zmm16, %%zmm16, %%zmm16\n\t"
        "vpxord %%zmm17, %%zmm17, %%zmm17\n\t"
        "vpxord %%zmm18, %%zmm18, %%zmm18\n\t"
        "vpxord %%zmm19, %%zmm19, %%zmm19\n\t"
        "vpxord %%zmm20, %%zmm20, %%zmm20\n\t"
        "vpxord %%zmm21, %%zmm21, %%zmm21\n\t"
        "vpxord %%zmm22, %%zmm22, %%zmm22\n\t"
        "vpxord %%zmm23, %%zmm23, %%zmm23\n\t"
        "vpxord %%zmm24, %%zmm24, %%zmm24\n\t"
        "vpxord %%zmm25, %%zmm25, %%zmm25\n\t"
        "vpxord %%zmm26, %%zmm26, %%zmm26\n\t"
        "vpxord %%zmm27, %%zmm27, %%zmm27\n\t"
        "vpxord %%zmm28, %%zmm28, %%zmm28\n\t"
        "vpxord %%zmm29, %%zmm29, %%zmm29\n\t"
        "vpxord %%zmm30, %%zmm30, %%zmm30\n\t"
        "vpxord %%zmm31, %%zmm31, %%zmm31"
        ::: "xmm16", "xmm17", "xmm18", "xmm19", "xmm20", "xmm21", "xmm22",
            "xmm23", "xmm24", "xmm25", "xmm26", "xmm27", "xmm28", "xmm29",
            "xmm30", "xmm31");
#endif
    _mm256_zeroupper();
  }
};
#else
struct UpperClean {};  // no vector kernels in this build
#endif

// --- scalar twins -----------------------------------------------------

void panel_mvm_scalar(const float* panels, std::size_t n_panels,
                      std::size_t rows, const float* x, bool ir, float kappa,
                      float* acc) {
  const double inv_n = 1.0 / static_cast<double>(rows);
  const double kd = static_cast<double>(kappa);
  for (std::size_t p = 0; p < n_panels; ++p) {
    const float* w = panels + p * rows * kPanelCols;
    double ca[kPanelCols] = {};
    double a[kPanelCols] = {};
    for (std::size_t k = 0; k < rows; ++k, w += kPanelCols) {
      const float xk = x[k];
      for (std::size_t l = 0; l < kPanelCols; ++l) {
        if (ir) {
          const float c = w[l] * xk;
          ca[l] += static_cast<double>(std::fabs(c));
          const double t = kd * ca[l];
          a[l] = std::fma(static_cast<double>(c), std::fma(-t, inv_n, 1.0),
                          a[l]);
        } else {
          a[l] = std::fma(static_cast<double>(w[l]), static_cast<double>(xk),
                          a[l]);
        }
      }
    }
    for (std::size_t l = 0; l < kPanelCols; ++l) {
      acc[p * kPanelCols + l] = static_cast<float>(a[l]);
    }
  }
}

/// One column of the ADC epilogue (the op map in the header); advances g
/// past the column's draws. Returns true when the column saturated.
inline bool adc_column(const AdcEpilogue& e, float v, float gamma,
                       const double*& g, float& y) {
  if (e.read_noise) v += static_cast<float>(std::fma(e.read_sd, *g++, 0.0));
  if (e.out_noise) v += static_cast<float>(std::fma(e.out_sd, *g++, 0.0));
  bool saturated = false;
  if (e.steps > 0.0f) {
    saturated = std::fabs(v) >= e.bound;
    const float half = e.steps / 2.0f;
    float q = noise::UniformQuantizer::round_half_away(v / e.bound * half);
    q = std::clamp(q, -half, half - 1.0f);
    v = q * e.bound / half;
  }
  y = std::fma(e.alpha * gamma, v, y);
  return saturated;
}

std::int64_t adc_epilogue_scalar(const AdcEpilogue& e, const float* acc,
                                 const float* gamma, const double* g,
                                 std::size_t j, std::size_t cols, float* y) {
  std::int64_t saturated = 0;
  for (; j < cols; ++j) saturated += adc_column(e, acc[j], gamma[j], g, y[j]);
  return saturated;
}

/// Draws each column consumes (read noise, then output noise).
inline std::size_t draws_per_col(const AdcEpilogue& e) {
  return (e.read_noise ? 1u : 0u) + (e.out_noise ? 1u : 0u);
}

#if defined(__AVX2__) && defined(__FMA__)

// --- AVX2 -------------------------------------------------------------

/// NP panels in flight; each panel is two 4-lane double chains (lo/hi).
template <bool kIr, int NP>
void panel_block_avx2(const float* w, std::size_t rows, const float* x,
                      float kappa, float* acc) {
  const std::size_t stride = rows * kPanelCols;
  const __m256d kd = _mm256_set1_pd(static_cast<double>(kappa));
  const __m256d inv_n = _mm256_set1_pd(1.0 / static_cast<double>(rows));
  const __m256d one = _mm256_set1_pd(1.0);
  const __m256d absmask =
      _mm256_castsi256_pd(_mm256_set1_epi64x(0x7fffffffffffffffLL));
  __m256d ca[2 * NP], a[2 * NP];
  for (int i = 0; i < 2 * NP; ++i) {
    ca[i] = _mm256_setzero_pd();
    a[i] = _mm256_setzero_pd();
  }
  for (std::size_t k = 0; k < rows; ++k) {
    if constexpr (kIr) {
      const __m256 xk = _mm256_set1_ps(x[k]);
      for (int p = 0; p < NP; ++p) {
        const __m256 c =
            _mm256_mul_ps(_mm256_loadu_ps(w + p * stride + k * kPanelCols), xk);
        // (double)fabsf(c) == fabs((double)c): widening is exact.
        const __m256d cd[2] = {_mm256_cvtps_pd(_mm256_castps256_ps128(c)),
                               _mm256_cvtps_pd(_mm256_extractf128_ps(c, 1))};
        for (int h = 0; h < 2; ++h) {
          __m256d& cah = ca[2 * p + h];
          cah = _mm256_add_pd(cah, _mm256_and_pd(cd[h], absmask));
          const __m256d t = _mm256_mul_pd(kd, cah);
          a[2 * p + h] = _mm256_fmadd_pd(
              cd[h], _mm256_fnmadd_pd(t, inv_n, one), a[2 * p + h]);
        }
      }
    } else {
      const __m256d xk = _mm256_set1_pd(static_cast<double>(x[k]));
      for (int p = 0; p < NP; ++p) {
        const __m256 wv = _mm256_loadu_ps(w + p * stride + k * kPanelCols);
        a[2 * p] = _mm256_fmadd_pd(
            _mm256_cvtps_pd(_mm256_castps256_ps128(wv)), xk, a[2 * p]);
        a[2 * p + 1] = _mm256_fmadd_pd(
            _mm256_cvtps_pd(_mm256_extractf128_ps(wv, 1)), xk, a[2 * p + 1]);
      }
    }
  }
  for (int p = 0; p < NP; ++p) {
    _mm_storeu_ps(acc + p * kPanelCols, _mm256_cvtpd_ps(a[2 * p]));
    _mm_storeu_ps(acc + p * kPanelCols + 4, _mm256_cvtpd_ps(a[2 * p + 1]));
  }
}

template <bool kIr>
void panel_mvm_avx2(const float* panels, std::size_t n_panels,
                    std::size_t rows, const float* x, float kappa,
                    float* acc) {
  // Two panels in flight hide the 4-cycle latency of the serial cum_abs
  // and acc chains behind each other's independent work.
  const std::size_t stride = rows * kPanelCols;
  std::size_t p = 0;
  for (; p + 2 <= n_panels; p += 2) {
    panel_block_avx2<kIr, 2>(panels + p * stride, rows, x, kappa,
                             acc + p * kPanelCols);
  }
  if (p < n_panels) {
    panel_block_avx2<kIr, 1>(panels + p * stride, rows, x, kappa,
                             acc + p * kPanelCols);
  }
}

/// Loads the draws of 4 consecutive columns for one noise source: `d`
/// draws per column, this source at offset `which` within each column.
inline __m256d load_draws4(const double* g, std::size_t d, std::size_t which) {
  if (d == 1) return _mm256_loadu_pd(g);
  // d == 2: [r0 o0 r1 o1] [r2 o2 r3 o3] -> [r0 r1 r2 r3] / [o0 o1 o2 o3].
  const __m256d p0 = _mm256_loadu_pd(g);
  const __m256d p1 = _mm256_loadu_pd(g + 4);
  const __m256d u = which == 0 ? _mm256_unpacklo_pd(p0, p1)
                               : _mm256_unpackhi_pd(p0, p1);
  return _mm256_permute4x64_pd(u, _MM_SHUFFLE(3, 1, 2, 0));
}

/// (float)fma(sd, g, 0.0) for the 8 columns at g (see load_draws4).
inline __m256 noise_term8(const double* g, std::size_t d, std::size_t which,
                          __m256d sd) {
  const __m256d zero = _mm256_setzero_pd();
  const __m128 lo =
      _mm256_cvtpd_ps(_mm256_fmadd_pd(sd, load_draws4(g, d, which), zero));
  const __m128 hi = _mm256_cvtpd_ps(
      _mm256_fmadd_pd(sd, load_draws4(g + 4 * d, d, which), zero));
  return _mm256_set_m128(hi, lo);
}

/// The quantize + scale-accumulate tail of the epilogue on 8 columns,
/// shared by the AVX2 and AVX-512 epilogues; run() returns the
/// saturation bit mask.
struct AdcTail8 {
  bool quant;
  __m256 bound, half, neg_half, top, alpha;
  explicit AdcTail8(const AdcEpilogue& e)
      : quant(e.steps > 0.0f),
        bound(_mm256_set1_ps(e.bound)),
        half(_mm256_set1_ps(e.steps / 2.0f)),
        neg_half(_mm256_set1_ps(-(e.steps / 2.0f))),
        top(_mm256_set1_ps(e.steps / 2.0f - 1.0f)),
        alpha(_mm256_set1_ps(e.alpha)) {}

  unsigned run(__m256 v, const float* gamma, float* y) const {
    const __m256 absmask = _mm256_castsi256_ps(_mm256_set1_epi32(0x7fffffff));
    const __m256 signmask =
        _mm256_castsi256_ps(_mm256_set1_epi32(static_cast<int>(0x80000000u)));
    const __m256 one = _mm256_set1_ps(1.0f);
    unsigned sat = 0;
    if (quant) {
      sat = static_cast<unsigned>(_mm256_movemask_ps(
          _mm256_cmp_ps(_mm256_and_ps(v, absmask), bound, _CMP_GE_OQ)));
      const __m256 s = _mm256_mul_ps(_mm256_div_ps(v, bound), half);
      // round_half_away: trunc, then a sign-carrying 1 blended in where
      // |frac| >= 0.5 (blend, not add-zero, so -0 lanes keep their sign).
      const __m256 t = _mm256_round_ps(s, _MM_FROUND_TO_ZERO | _MM_FROUND_NO_EXC);
      const __m256 ge = _mm256_cmp_ps(
          _mm256_and_ps(_mm256_sub_ps(s, t), absmask), _mm256_set1_ps(0.5f),
          _CMP_GE_OQ);
      const __m256 sign1 = _mm256_or_ps(one, _mm256_and_ps(s, signmask));
      __m256 q = _mm256_blendv_ps(t, _mm256_add_ps(t, sign1), ge);
      // std::clamp(q, -half, half - 1) = min(max(q, lo), hi) with
      // std::max/min's comparison order (NaN passes through).
      q = _mm256_blendv_ps(q, neg_half, _mm256_cmp_ps(q, neg_half, _CMP_LT_OQ));
      q = _mm256_blendv_ps(q, top, _mm256_cmp_ps(top, q, _CMP_LT_OQ));
      v = _mm256_div_ps(_mm256_mul_ps(q, bound), half);
    }
    const __m256 scale = _mm256_mul_ps(alpha, _mm256_loadu_ps(gamma));
    _mm256_storeu_ps(y, _mm256_fmadd_ps(scale, v, _mm256_loadu_ps(y)));
    return sat;
  }
};

std::int64_t adc_epilogue_avx2(const AdcEpilogue& e, const float* acc,
                               const float* gamma, const double* g,
                               std::size_t cols, float* y) {
  const std::size_t d = draws_per_col(e);
  const __m256d read_sd = _mm256_set1_pd(e.read_sd);
  const __m256d out_sd = _mm256_set1_pd(e.out_sd);
  const AdcTail8 tail(e);
  std::int64_t saturated = 0;
  std::size_t j = 0;
  for (; j + 8 <= cols; j += 8, g += 8 * d) {
    __m256 v = _mm256_loadu_ps(acc + j);
    if (e.read_noise) v = _mm256_add_ps(v, noise_term8(g, d, 0, read_sd));
    if (e.out_noise) {
      v = _mm256_add_ps(v, noise_term8(g, d, e.read_noise ? 1 : 0, out_sd));
    }
    saturated += _mm_popcnt_u32(tail.run(v, gamma + j, y + j));
  }
  return saturated + adc_epilogue_scalar(e, acc, gamma, g, j, cols, y);
}

#endif  // __AVX2__ && __FMA__

#if defined(__AVX512F__) && defined(__AVX2__) && defined(__FMA__)

// --- AVX-512 ----------------------------------------------------------

/// NP panels in flight; one panel is one 8-lane double chain.
template <bool kIr, int NP>
void panel_block_avx512(const float* w, std::size_t rows, const float* x,
                        float kappa, float* acc) {
  const std::size_t stride = rows * kPanelCols;
  const __m512d kd = _mm512_set1_pd(static_cast<double>(kappa));
  const __m512d inv_n = _mm512_set1_pd(1.0 / static_cast<double>(rows));
  const __m512d one = _mm512_set1_pd(1.0);
  __m512d ca[NP], a[NP];
  for (int p = 0; p < NP; ++p) {
    ca[p] = _mm512_setzero_pd();
    a[p] = _mm512_setzero_pd();
  }
  for (std::size_t k = 0; k < rows; ++k) {
    if constexpr (kIr) {
      const __m256 xk = _mm256_set1_ps(x[k]);
      for (int p = 0; p < NP; ++p) {
        const __m512d cd = _mm512_cvtps_pd(
            _mm256_mul_ps(_mm256_loadu_ps(w + p * stride + k * kPanelCols), xk));
        ca[p] = _mm512_add_pd(ca[p], _mm512_abs_pd(cd));
        const __m512d t = _mm512_mul_pd(kd, ca[p]);
        a[p] = _mm512_fmadd_pd(cd, _mm512_fnmadd_pd(t, inv_n, one), a[p]);
      }
    } else {
      const __m512d xk = _mm512_set1_pd(static_cast<double>(x[k]));
      for (int p = 0; p < NP; ++p) {
        a[p] = _mm512_fmadd_pd(
            _mm512_cvtps_pd(_mm256_loadu_ps(w + p * stride + k * kPanelCols)),
            xk, a[p]);
      }
    }
  }
  for (int p = 0; p < NP; ++p) {
    _mm256_storeu_ps(acc + p * kPanelCols, _mm512_cvtpd_ps(a[p]));
  }
}

template <bool kIr>
void panel_mvm_avx512(const float* panels, std::size_t n_panels,
                      std::size_t rows, const float* x, float kappa,
                      float* acc) {
  const std::size_t stride = rows * kPanelCols;
  std::size_t p = 0;
  for (; p + 2 <= n_panels; p += 2) {
    panel_block_avx512<kIr, 2>(panels + p * stride, rows, x, kappa,
                               acc + p * kPanelCols);
  }
  if (p < n_panels) {
    panel_block_avx512<kIr, 1>(panels + p * stride, rows, x, kappa,
                               acc + p * kPanelCols);
  }
}

/// The 8 draws of one noise source for 8 consecutive columns.
inline __m512d load_draws8(const double* g, std::size_t d, std::size_t which) {
  if (d == 1) return _mm512_loadu_pd(g);
  const __m512i idx = which == 0
                          ? _mm512_set_epi64(14, 12, 10, 8, 6, 4, 2, 0)
                          : _mm512_set_epi64(15, 13, 11, 9, 7, 5, 3, 1);
  return _mm512_permutex2var_pd(_mm512_loadu_pd(g), idx,
                                _mm512_loadu_pd(g + 8));
}

std::int64_t adc_epilogue_avx512(const AdcEpilogue& e, const float* acc,
                                 const float* gamma, const double* g,
                                 std::size_t cols, float* y) {
  const std::size_t d = draws_per_col(e);
  const __m512d read_sd = _mm512_set1_pd(e.read_sd);
  const __m512d out_sd = _mm512_set1_pd(e.out_sd);
  const __m512d zero = _mm512_setzero_pd();
  const AdcTail8 tail(e);
  std::int64_t saturated = 0;
  std::size_t j = 0;
  for (; j + 8 <= cols; j += 8, g += 8 * d) {
    __m256 v = _mm256_loadu_ps(acc + j);
    if (e.read_noise) {
      v = _mm256_add_ps(v, _mm512_cvtpd_ps(_mm512_fmadd_pd(
                               read_sd, load_draws8(g, d, 0), zero)));
    }
    if (e.out_noise) {
      v = _mm256_add_ps(
          v, _mm512_cvtpd_ps(_mm512_fmadd_pd(
                 out_sd, load_draws8(g, d, e.read_noise ? 1 : 0), zero)));
    }
    saturated += _mm_popcnt_u32(tail.run(v, gamma + j, y + j));
  }
  return saturated + adc_epilogue_scalar(e, acc, gamma, g, j, cols, y);
}

#endif  // __AVX512F__

}  // namespace

void panel_mvm(Isa isa, const float* panels, std::size_t n_panels,
               std::size_t rows, const float* x, bool ir, float kappa,
               float* acc) {
  [[maybe_unused]] const UpperClean clean;
  switch (isa) {
    case Isa::kAvx512:
#if defined(__AVX512F__) && defined(__AVX2__) && defined(__FMA__)
      if (ir) {
        panel_mvm_avx512<true>(panels, n_panels, rows, x, kappa, acc);
      } else {
        panel_mvm_avx512<false>(panels, n_panels, rows, x, kappa, acc);
      }
      return;
#else
      std::abort();
#endif
    case Isa::kAvx2:
#if defined(__AVX2__) && defined(__FMA__)
      if (ir) {
        panel_mvm_avx2<true>(panels, n_panels, rows, x, kappa, acc);
      } else {
        panel_mvm_avx2<false>(panels, n_panels, rows, x, kappa, acc);
      }
      return;
#else
      std::abort();
#endif
    case Isa::kScalar:
      break;
  }
  panel_mvm_scalar(panels, n_panels, rows, x, ir, kappa, acc);
}

std::int64_t adc_epilogue(Isa isa, const AdcEpilogue& e, const float* acc,
                          const float* gamma, const double* g,
                          std::size_t cols, float* y) {
  [[maybe_unused]] const UpperClean clean;
  switch (isa) {
    case Isa::kAvx512:
#if defined(__AVX512F__) && defined(__AVX2__) && defined(__FMA__)
      return adc_epilogue_avx512(e, acc, gamma, g, cols, y);
#else
      std::abort();
#endif
    case Isa::kAvx2:
#if defined(__AVX2__) && defined(__FMA__)
      return adc_epilogue_avx2(e, acc, gamma, g, cols, y);
#else
      std::abort();
#endif
    case Isa::kScalar:
      break;
  }
  return adc_epilogue_scalar(e, acc, gamma, g, 0, cols, y);
}

#if defined(__AVX2__) && defined(__FMA__)

std::int64_t dac_scale_clip_quantize_avx2(const float* xs, float* out,
                                          std::size_t n, float inv_alpha,
                                          float steps, float bound) {
  const UpperClean clean;
  const bool quant = steps > 0.0f;
  const float half = steps / 2.0f;
  const __m256 va = _mm256_set1_ps(inv_alpha);
  const __m256 one = _mm256_set1_ps(1.0f);
  const __m256 absmask = _mm256_castsi256_ps(_mm256_set1_epi32(0x7fffffff));
  const __m256 signmask = _mm256_castsi256_ps(_mm256_set1_epi32(
      static_cast<int>(0x80000000u)));
  const __m256 vb = _mm256_set1_ps(bound);
  const __m256 vh = _mm256_set1_ps(half);
  const __m256 vnh = _mm256_set1_ps(-half);
  const __m256 vh1 = _mm256_set1_ps(half - 1.0f);
  const __m256 vhalfc = _mm256_set1_ps(0.5f);
  std::int64_t clipped = 0;
  std::size_t k = 0;
  for (; k + 8 <= n; k += 8) {
    __m256 v = _mm256_mul_ps(_mm256_loadu_ps(xs + k), va);
    const __m256 clip =
        _mm256_cmp_ps(_mm256_and_ps(v, absmask), one, _CMP_GT_OQ);
    clipped += _mm_popcnt_u32(
        static_cast<unsigned>(_mm256_movemask_ps(clip)));
    // v > 0 ? 1 : -1, branchless: copysign(1, v); only the clipped lanes
    // (|v| > 1, so v != 0) consume it.
    const __m256 sign1 = _mm256_or_ps(one, _mm256_and_ps(v, signmask));
    v = _mm256_blendv_ps(v, sign1, clip);
    if (quant) {
      const __m256 y = _mm256_mul_ps(_mm256_div_ps(v, vb), vh);
      // round-half-away-from-zero: trunc, then +-1 where |frac| >= 0.5.
      const __m256 t =
          _mm256_round_ps(y, _MM_FROUND_TO_ZERO | _MM_FROUND_NO_EXC);
      const __m256 frac = _mm256_and_ps(_mm256_sub_ps(y, t), absmask);
      const __m256 ge = _mm256_cmp_ps(frac, vhalfc, _CMP_GE_OQ);
      // Blend, don't add-zero: t + (+0) would flip a -0 lane (y in
      // (-0.5, 0] truncates to -0, and -0 + +0 = +0) while the scalar
      // round returns trunc's -0 untouched.
      const __m256 sign1 = _mm256_or_ps(one, _mm256_and_ps(y, signmask));
      __m256 q = _mm256_blendv_ps(t, _mm256_add_ps(t, sign1), ge);
      q = _mm256_max_ps(q, vnh);
      q = _mm256_min_ps(q, vh1);
      v = _mm256_div_ps(_mm256_mul_ps(q, vb), vh);
    }
    _mm256_storeu_ps(out + k, v);
  }
  for (; k < n; ++k) {
    float v = xs[k] * inv_alpha;
    if (std::fabs(v) > 1.0f) {
      ++clipped;
      v = v > 0.0f ? 1.0f : -1.0f;
    }
    if (quant) {
      float q = std::round(v / bound * half);
      q = std::clamp(q, -half, half - 1.0f);
      v = q * bound / half;
    }
    out[k] = v;
  }
  return clipped;
}

void add_scaled_gaussian_avx2(float* v, const double* raw, std::size_t n,
                              double stddev) {
  const UpperClean clean;
  const __m256d sd = _mm256_set1_pd(stddev);
  const __m256d zero = _mm256_setzero_pd();
  std::size_t k = 0;
  for (; k + 4 <= n; k += 4) {
    const __m256d term = _mm256_fmadd_pd(sd, _mm256_loadu_pd(raw + k), zero);
    _mm_storeu_ps(v + k,
                  _mm_add_ps(_mm_loadu_ps(v + k), _mm256_cvtpd_ps(term)));
  }
  for (; k < n; ++k) {
    v[k] += static_cast<float>(std::fma(stddev, raw[k], 0.0));
  }
}

void scale_convert_avx2(float* dst, const double* raw, std::size_t n,
                        double mean, double stddev) {
  const UpperClean clean;
  const __m256d sd = _mm256_set1_pd(stddev);
  const __m256d mu = _mm256_set1_pd(mean);
  std::size_t k = 0;
  for (; k + 4 <= n; k += 4) {
    _mm_storeu_ps(dst + k, _mm256_cvtpd_ps(_mm256_fmadd_pd(
                               sd, _mm256_loadu_pd(raw + k), mu)));
  }
  for (; k < n; ++k) {
    dst[k] = static_cast<float>(std::fma(stddev, raw[k], mean));
  }
}

#else  // !(__AVX2__ && __FMA__)

// util::simd::use_avx2() is never true in a build without AVX2+FMA, so
// these are unreachable; they exist to keep the link uniform.
std::int64_t dac_scale_clip_quantize_avx2(const float*, float*, std::size_t,
                                          float, float, float) {
  std::abort();
}
void add_scaled_gaussian_avx2(float*, const double*, std::size_t, double) {
  std::abort();
}
void scale_convert_avx2(float*, const double*, std::size_t, double, double) {
  std::abort();
}

#endif

}  // namespace nora::util::simd
