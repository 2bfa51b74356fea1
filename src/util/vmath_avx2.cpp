/// AVX2+FMA lane of the kFastUlp batched transcendentals: four elements
/// per iteration, same polynomial cores as the scalar fast lane
/// (vmath_detail.hpp), FMA throughout. Blocks containing out-of-domain
/// elements (non-normal log inputs, exponent-range exp inputs) are
/// delegated whole to the scalar fast lane, which itself falls back to
/// libm per element — so domain edges are handled identically on both
/// lanes.
///
/// This TU is compiled with -mavx2 -mfma only when CMake detects an
/// x86-64 target (RAILCORR_ENABLE_AVX2); callers reach it exclusively
/// through the accuracy/SIMD dispatcher in vmath.cpp, which also checks
/// the FMA CPU bit at runtime.
#include "util/vmath.hpp"

#if defined(RAILCORR_HAVE_AVX2) && defined(__AVX2__) && defined(__FMA__)

#include <immintrin.h>

#include <cmath>

#include "util/contracts.hpp"
#include "util/vmath_detail.hpp"

namespace railcorr::vmath {

// The vector cores (log_reduce4, ln_reduced4, the log/exp cores, and
// the domain guards) live in vmath_detail.hpp's AVX2 section so the
// batched-RNG lane (util/rng_batch_avx2.cpp) can share them.
using namespace detail;

void log10_batch_fast_avx2(std::span<const double> x,
                           std::span<double> out) {
  RAILCORR_EXPECTS(out.size() == x.size());
  const std::size_t n = x.size();
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m256d v = _mm256_loadu_pd(x.data() + i);
    if (log_domain_ok4(v)) {
      _mm256_storeu_pd(out.data() + i, log10_core4(v));
    } else {
      log10_batch_fast_scalar(x.subspan(i, 4), out.subspan(i, 4));
    }
  }
  if (i < n) log10_batch_fast_scalar(x.subspan(i), out.subspan(i));
}

void log2_batch_fast_avx2(std::span<const double> x, std::span<double> out) {
  RAILCORR_EXPECTS(out.size() == x.size());
  const std::size_t n = x.size();
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m256d v = _mm256_loadu_pd(x.data() + i);
    if (log_domain_ok4(v)) {
      _mm256_storeu_pd(out.data() + i, log2_core4(v));
    } else {
      log2_batch_fast_scalar(x.subspan(i, 4), out.subspan(i, 4));
    }
  }
  if (i < n) log2_batch_fast_scalar(x.subspan(i), out.subspan(i));
}

void exp2_batch_fast_avx2(std::span<const double> x, std::span<double> out) {
  RAILCORR_EXPECTS(out.size() == x.size());
  const std::size_t n = x.size();
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m256d v = _mm256_loadu_pd(x.data() + i);
    if (range_ok4(v, kExp2Lo, kExp2Hi)) {
      _mm256_storeu_pd(out.data() + i, exp2_core4(v));
    } else {
      exp2_batch_fast_scalar(x.subspan(i, 4), out.subspan(i, 4));
    }
  }
  if (i < n) exp2_batch_fast_scalar(x.subspan(i), out.subspan(i));
}

void ratio_to_db_batch_fast_avx2(std::span<const double> x,
                                 std::span<double> out) {
  RAILCORR_EXPECTS(out.size() == x.size());
  const __m256d ten = _mm256_set1_pd(10.0);
  const std::size_t n = x.size();
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m256d v = _mm256_loadu_pd(x.data() + i);
    if (log_domain_ok4(v)) {
      _mm256_storeu_pd(out.data() + i,
                       _mm256_mul_pd(ten, log10_core4(v)));
    } else {
      ratio_to_db_batch_fast_scalar(x.subspan(i, 4), out.subspan(i, 4));
    }
  }
  if (i < n) ratio_to_db_batch_fast_scalar(x.subspan(i), out.subspan(i));
}

void exp10_batch_fast_avx2(std::span<const double> x, std::span<double> out) {
  RAILCORR_EXPECTS(out.size() == x.size());
  const std::size_t n = x.size();
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m256d v = _mm256_loadu_pd(x.data() + i);
    if (range_ok4(v, -kExp10Range, kExp10Range)) {
      _mm256_storeu_pd(out.data() + i, exp10_core4(v));
    } else {
      exp10_batch_fast_scalar(x.subspan(i, 4), out.subspan(i, 4));
    }
  }
  if (i < n) exp10_batch_fast_scalar(x.subspan(i), out.subspan(i));
}

void db_to_ratio_batch_fast_avx2(std::span<const double> x,
                                 std::span<double> out) {
  RAILCORR_EXPECTS(out.size() == x.size());
  const __m256d ten = _mm256_set1_pd(10.0);
  const std::size_t n = x.size();
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m256d v = _mm256_loadu_pd(x.data() + i);
    if (range_ok4(v, -kDbRange, kDbRange)) {
      // Divide by 10 first, sharing the scalar composition's argument
      // rounding (see the scalar lane).
      _mm256_storeu_pd(out.data() + i,
                       exp10_core4(_mm256_div_pd(v, ten)));
    } else {
      db_to_ratio_batch_fast_scalar(x.subspan(i, 4), out.subspan(i, 4));
    }
  }
  if (i < n) db_to_ratio_batch_fast_scalar(x.subspan(i), out.subspan(i));
}

}  // namespace railcorr::vmath

#endif  // RAILCORR_HAVE_AVX2 && __AVX2__ && __FMA__
