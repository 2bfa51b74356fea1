/// \file vmath_detail.hpp
/// \brief Internal tables and scalar cores of the kFastUlp lane, shared
///        by the portable TU (vmath.cpp) and the AVX2 TUs
///        (vmath_avx2.cpp, rf/batch_kernel_avx2.cpp).
///
/// The split constants were generated with tools/gen_vmath_coeffs.cpp
/// (__float128 arithmetic, hexfloat-exact doubles); regenerate rather
/// than editing by hand. Error-bound derivations live in
/// docs/ARCHITECTURE.md ("Accuracy modes").
#pragma once

#include <bit>
#include <cmath>
#include <cstdint>

namespace railcorr::vmath::detail {

// ---- generated by tools/gen_vmath_coeffs.cpp --------------------------
// log2(x) = e + ln(m) * kLog2E
inline constexpr double kLog2EHi = 0x1.71547652b82fep+0;
inline constexpr double kLog2ELo = 0x1.777d0ffda0d24p-56;
// log10(x) = e * kLog10_2 + ln(m) * kLog10E; kLog10_2Hi has its low 27
// mantissa bits zeroed so e * kLog10_2Hi is exact for |e| <= 2^27.
inline constexpr double kLog10_2Hi = 0x1.344135p-2;
inline constexpr double kLog10_2Lo = 0x1.3ef3fde623e25p-31;
inline constexpr double kLog10EHi = 0x1.bcb7b1526e50ep-2;
inline constexpr double kLog10ELo = 0x1.95355baaafad3p-57;
// 2^q reduction for 10^(x/10) = 2^(q * log2(10))
inline constexpr double kLog2_10Hi = 0x1.a934f0979a371p+1;
inline constexpr double kLog2_10Lo = 0x1.7f2495fb7fa6ep-53;
// exp2 core: 2^f = 1 + sum_n kExp2C[n-1] * f^n, f in [-0.5, 0.5]
inline constexpr double kExp2C[13] = {
    0x1.62e42fefa39efp-1,  0x1.ebfbdff82c58fp-3,  0x1.c6b08d704a0cp-5,
    0x1.3b2ab6fba4e77p-7,  0x1.5d87fe78a6731p-10, 0x1.430912f86c787p-13,
    0x1.ffcbfc588b0c7p-17, 0x1.62c0223a5c824p-20, 0x1.b5253d395e7c4p-24,
    0x1.e4cf5158b8ecap-28, 0x1.e8cac7351bb25p-32, 0x1.c3bd650fc2986p-36,
    0x1.816193166d0f9p-40};
// ln(x) = e * ln2 + ln(m); low 27 bits of hi cleared so e * kLn2Hi is
// exact for |e| <= 1074
inline constexpr double kLn2Hi = 0x1.62e42f8p-1;
inline constexpr double kLn2Lo = 0x1.be8e7bcd5e4f2p-27;
// sin(2 pi f) = f * sum_k kSinTwoPiC[k] * f^(2k), |f| <= 1/8
inline constexpr double kSinTwoPiC[10] = {
    0x1.921fb54442d18p+2,  -0x1.4abbce625be53p+5, 0x1.466bc6775aae2p+6,
    -0x1.32d2cce62bd86p+6, 0x1.50783487ee782p+5,  -0x1.e3074fde8871fp+3,
    0x1.e8f434d018d63p+1,  -0x1.6fadb9f155744p-1, 0x1.aaec32af93359p-4,
    -0x1.8a404211f9547p-7};
// cos(2 pi f) = sum_k kCosTwoPiC[k] * f^(2k), |f| <= 1/8
inline constexpr double kCosTwoPiC[10] = {
    0x1p+0,                -0x1.3bd3cc9be45dep+4, 0x1.03c1f081b5ac4p+6,
    -0x1.55d3c7e3cbffap+6, 0x1.e1f506891babbp+5,  -0x1.a6d1f2a204a8cp+4,
    0x1.f9d38a3763cc3p+2,  -0x1.b6e24f44b128fp+0, 0x1.20c62c2f2d7f5p-2,
    -0x1.2a0c591af8314p-5};
// -----------------------------------------------------------------------

/// sqrt(2), the mantissa-reduction boundary: m in [sqrt2/2, sqrt2)
/// keeps |log2 m| <= 0.5 and avoids cancellation against the exponent.
inline constexpr double kSqrt2 = 0x1.6a09e667f3bcdp+0;

/// Taylor tail of 2*atanh(r): ln(m) = 2r + r*t * sum_k kAtanhC[k] t^k
/// with r = (m-1)/(m+1), t = r^2 <= (3-2*sqrt2)^2 ~= 0.0295. Ten terms
/// put the truncation below 2^-60 relative — Taylor is within a small
/// factor of minimax on an interval this short, so no fitted
/// coefficients are needed.
inline constexpr double kAtanhC[10] = {
    2.0 / 3.0,  2.0 / 5.0,  2.0 / 7.0,  2.0 / 9.0,  2.0 / 11.0,
    2.0 / 13.0, 2.0 / 15.0, 2.0 / 17.0, 2.0 / 19.0, 2.0 / 21.0};

/// exp2 argument range handled by the polynomial core; outside it the
/// scalar fallback covers overflow, subnormal results, and non-finite
/// inputs. Conservative bounds: 2^k stays a normal double for every
/// reachable rounded k.
inline constexpr double kExp2Lo = -1021.0;
inline constexpr double kExp2Hi = 1023.0;
/// db_to_ratio argument range [dB] for the polynomial core (|x|/10 *
/// log2(10) must land inside the exp2 scale range).
inline constexpr double kDbRange = 3000.0;
/// exp10 argument range for the direct 10^x core — same headroom as the
/// dB path (|x| * log2(10) inside the exp2 scale range).
inline constexpr double kExp10Range = kDbRange / 10.0;

/// True when `x` can take the polynomial log path (positive, normal,
/// finite).
inline bool log_fast_ok(double x) {
  return x >= 0x1p-1022 && x <= 0x1.fffffffffffffp+1023;
}

/// Mantissa/exponent split: x = m * 2^e with m in [sqrt2/2, sqrt2).
/// Precondition: log_fast_ok(x).
inline double reduce_log(double x, double& e_out) {
  const std::uint64_t bits = std::bit_cast<std::uint64_t>(x);
  int e = static_cast<int>(bits >> 52) - 1023;
  double m = std::bit_cast<double>(
      (bits & 0x000FFFFFFFFFFFFFULL) | 0x3FF0000000000000ULL);
  if (m >= kSqrt2) {
    m *= 0.5;
    e += 1;
  }
  e_out = static_cast<double>(e);
  return m;
}

/// ln(m) for m in [sqrt2/2, sqrt2) as an unevaluated hi + lo pair:
/// hi = 2r is EXACT (r carries only its division rounding, which the
/// FMA residual folds into lo; 1/b is ~0.5 on the reduced interval and
/// the correction is O(2^-53), so the slope approximation error is far
/// below rounding), and |lo| <= ~0.01 |hi|. Keeping the pair
/// unevaluated lets the log cores run the dominant product at full
/// precision, which matters when the result crosses a binade below
/// ln(m)'s.
struct LnParts {
  double hi;
  double lo;
};

inline LnParts ln_reduced(double m) {
  const double a = m - 1.0;  // exact (Sterbenz)
  const double b = m + 1.0;
  const double r = a / b;
  const double r_lo = std::fma(-r, b, a) * 0.5;
  const double t = r * r;
  double p = kAtanhC[9];
  for (int k = 8; k >= 0; --k) p = std::fma(p, t, kAtanhC[k]);
  return {2.0 * r, std::fma(r * t, p, 2.0 * r_lo)};
}

/// Polynomial log10 core. Precondition: log_fast_ok(x).
inline double log10_core(double x) {
  double e;
  const LnParts lnm = ln_reduced(reduce_log(x, e));
  // (hi + lo) * (KHi + KLo) + e * (2Hi + 2Lo), with the dominant
  // hi * KHi product carried exactly via its FMA residual.
  const double p_hi = lnm.hi * kLog10EHi;
  const double p_res = std::fma(lnm.hi, kLog10EHi, -p_hi);
  double tail = std::fma(lnm.lo, kLog10EHi, p_res);
  tail = std::fma(lnm.hi, kLog10ELo, tail);
  tail = std::fma(e, kLog10_2Lo, tail);
  return std::fma(e, kLog10_2Hi, p_hi + tail);
}

/// Polynomial log2 core. Precondition: log_fast_ok(x).
inline double log2_core(double x) {
  double e;
  const LnParts lnm = ln_reduced(reduce_log(x, e));
  const double p_hi = lnm.hi * kLog2EHi;
  const double p_res = std::fma(lnm.hi, kLog2EHi, -p_hi);
  double tail = std::fma(lnm.lo, kLog2EHi, p_res);
  tail = std::fma(lnm.hi, kLog2ELo, tail);
  return e + (p_hi + tail);
}

/// 2^f for f in ~[-0.51, 0.51], ~1 ULP.
inline double exp2_reduced(double f) {
  double p = kExp2C[12];
  for (int k = 11; k >= 0; --k) p = std::fma(p, f, kExp2C[k]);
  return std::fma(p, f, 1.0);
}

/// 2^k for integral k in [-1022, 1023].
inline double pow2_int(double k) {
  return std::bit_cast<double>(
      static_cast<std::uint64_t>(static_cast<std::int64_t>(k) + 1023)
      << 52);
}

/// Polynomial exp2 core. Precondition: x in [kExp2Lo, kExp2Hi].
inline double exp2_core(double x) {
  const double k = std::nearbyint(x);
  const double f = x - k;  // exact: k is the nearest integer
  return exp2_reduced(f) * pow2_int(k);
}

/// Polynomial 10^q core (q = dB/10, already rounded like the scalar
/// composition's x/10). Precondition: |q| <= kDbRange / 10.
inline double exp10_core(double q) {
  const double u = q * kLog2_10Hi;
  const double k = std::nearbyint(u);
  const double f = std::fma(q, kLog2_10Hi, -k) + q * kLog2_10Lo;
  return exp2_reduced(f) * pow2_int(k);
}

/// Polynomial natural-log core. Precondition: log_fast_ok(x). Unlike the
/// libm-backed lanes, this core also anchors the batched Box-Muller
/// draw sequence (util/rng), so its operation order is mirrored
/// instruction-for-instruction by ln_core4 below: every step is either
/// correctly rounded (add/mul/div/fma) or pure integer manipulation,
/// which is what makes the scalar and AVX2 lanes bit-identical.
inline double ln_core(double x) {
  double e;
  const LnParts lnm = ln_reduced(reduce_log(x, e));
  const double tail = std::fma(e, kLn2Lo, lnm.lo);
  return std::fma(e, kLn2Hi, lnm.hi + tail);
}

/// sin(2 pi u) and cos(2 pi u) for u in [0, 1): quadrant reduction
/// q = nearbyint(4u) (so f = (4u - q)/4 lands in [-1/8, 1/8]; both the
/// scaling by 4 and the subtraction are exact), Taylor polynomials in
/// f^2, then the quadrant rotation. Mirrored op-for-op by
/// sincos_two_pi4 below — negation is an exact sign-bit flip on both
/// lanes, so the pair is bit-identical scalar vs AVX2.
inline void sincos_two_pi(double u, double& sin_out, double& cos_out) {
  const double t = 4.0 * u;
  const double q = std::nearbyint(t);
  const double f = 0.25 * (t - q);
  const double t2 = f * f;
  double ps = kSinTwoPiC[9];
  for (int k = 8; k >= 0; --k) ps = std::fma(ps, t2, kSinTwoPiC[k]);
  const double s = f * ps;
  double pc = kCosTwoPiC[9];
  for (int k = 8; k >= 0; --k) pc = std::fma(pc, t2, kCosTwoPiC[k]);
  const double c = pc;
  switch (static_cast<int>(q) & 3) {
    case 0:
      sin_out = s;
      cos_out = c;
      break;
    case 1:
      sin_out = c;
      cos_out = -s;
      break;
    case 2:
      sin_out = -s;
      cos_out = -c;
      break;
    default:
      sin_out = -c;
      cos_out = s;
      break;
  }
}

}  // namespace railcorr::vmath::detail

#if defined(__AVX2__) && defined(__FMA__)

#include <immintrin.h>

namespace railcorr::vmath::detail {

// The 4-wide forms of the scalar cores above, shared by vmath_avx2.cpp
// and the batched-RNG AVX2 lane (util/rng_batch_avx2.cpp). Each mirrors
// its scalar counterpart instruction for instruction.

/// Mantissa/exponent split, vector form of detail::reduce_log.
inline __m256d log_reduce4(__m256d x, __m256d& e_out) {
  const __m256i bits = _mm256_castpd_si256(x);
  // Biased exponent to double via the 2^52 magic-number trick (the
  // 11-bit field is far below the magic's mantissa width).
  const __m256i magic = _mm256_set1_epi64x(0x4330000000000000LL);
  const __m256d e_biased = _mm256_sub_pd(
      _mm256_castsi256_pd(_mm256_or_si256(_mm256_srli_epi64(bits, 52),
                                          magic)),
      _mm256_set1_pd(0x1p52));
  __m256d e = _mm256_sub_pd(e_biased, _mm256_set1_pd(1023.0));
  const __m256d mant_mask =
      _mm256_castsi256_pd(_mm256_set1_epi64x(0x000FFFFFFFFFFFFFLL));
  __m256d m =
      _mm256_or_pd(_mm256_and_pd(x, mant_mask), _mm256_set1_pd(1.0));
  const __m256d fold =
      _mm256_cmp_pd(m, _mm256_set1_pd(kSqrt2), _CMP_GE_OQ);
  m = _mm256_blendv_pd(m, _mm256_mul_pd(m, _mm256_set1_pd(0.5)), fold);
  e = _mm256_add_pd(e, _mm256_and_pd(fold, _mm256_set1_pd(1.0)));
  e_out = e;
  return m;
}

/// ln(m) for m in [sqrt2/2, sqrt2) as the hi/lo pair of
/// detail::ln_reduced (hi = 2r exact, division residual folded into lo).
inline void ln_reduced4(__m256d m, __m256d& hi, __m256d& lo) {
  const __m256d one = _mm256_set1_pd(1.0);
  const __m256d a = _mm256_sub_pd(m, one);
  const __m256d b = _mm256_add_pd(m, one);
  const __m256d r = _mm256_div_pd(a, b);
  const __m256d r_lo = _mm256_mul_pd(_mm256_fnmadd_pd(r, b, a),
                                     _mm256_set1_pd(0.5));
  const __m256d t = _mm256_mul_pd(r, r);
  __m256d p = _mm256_set1_pd(kAtanhC[9]);
  for (int k = 8; k >= 0; --k) {
    p = _mm256_fmadd_pd(p, t, _mm256_set1_pd(kAtanhC[k]));
  }
  hi = _mm256_add_pd(r, r);
  lo = _mm256_fmadd_pd(_mm256_mul_pd(r, t), p, _mm256_add_pd(r_lo, r_lo));
}

inline __m256d log10_core4(__m256d x) {
  __m256d e, hi, lo;
  ln_reduced4(log_reduce4(x, e), hi, lo);
  const __m256d k_hi = _mm256_set1_pd(kLog10EHi);
  const __m256d p_hi = _mm256_mul_pd(hi, k_hi);
  const __m256d p_res =
      _mm256_fmsub_pd(hi, k_hi, p_hi);  // exact product residual
  __m256d tail = _mm256_fmadd_pd(lo, k_hi, p_res);
  tail = _mm256_fmadd_pd(hi, _mm256_set1_pd(kLog10ELo), tail);
  tail = _mm256_fmadd_pd(e, _mm256_set1_pd(kLog10_2Lo), tail);
  return _mm256_fmadd_pd(e, _mm256_set1_pd(kLog10_2Hi),
                         _mm256_add_pd(p_hi, tail));
}

inline __m256d log2_core4(__m256d x) {
  __m256d e, hi, lo;
  ln_reduced4(log_reduce4(x, e), hi, lo);
  const __m256d k_hi = _mm256_set1_pd(kLog2EHi);
  const __m256d p_hi = _mm256_mul_pd(hi, k_hi);
  const __m256d p_res = _mm256_fmsub_pd(hi, k_hi, p_hi);
  __m256d tail = _mm256_fmadd_pd(lo, k_hi, p_res);
  tail = _mm256_fmadd_pd(hi, _mm256_set1_pd(kLog2ELo), tail);
  return _mm256_add_pd(e, _mm256_add_pd(p_hi, tail));
}

/// Vector form of detail::ln_core — the bit-identity mirror the batched
/// Box-Muller lane leans on (see the scalar core's comment).
inline __m256d ln_core4(__m256d x) {
  __m256d e, hi, lo;
  ln_reduced4(log_reduce4(x, e), hi, lo);
  const __m256d tail = _mm256_fmadd_pd(e, _mm256_set1_pd(kLn2Lo), lo);
  return _mm256_fmadd_pd(e, _mm256_set1_pd(kLn2Hi),
                         _mm256_add_pd(hi, tail));
}

/// 2^f for |f| <~ 0.51, vector form of detail::exp2_reduced.
inline __m256d exp2_reduced4(__m256d f) {
  __m256d p = _mm256_set1_pd(kExp2C[12]);
  for (int k = 11; k >= 0; --k) {
    p = _mm256_fmadd_pd(p, f, _mm256_set1_pd(kExp2C[k]));
  }
  return _mm256_fmadd_pd(p, f, _mm256_set1_pd(1.0));
}

/// 2^k for integral-valued k in [-1022, 1023].
inline __m256d pow2_int4(__m256d k) {
  const __m256i ik = _mm256_cvtepi32_epi64(_mm256_cvtpd_epi32(k));
  const __m256i bits = _mm256_slli_epi64(
      _mm256_add_epi64(ik, _mm256_set1_epi64x(1023)), 52);
  return _mm256_castsi256_pd(bits);
}

inline __m256d exp2_core4(__m256d x) {
  const __m256d k =
      _mm256_round_pd(x, _MM_FROUND_TO_NEAREST_INT | _MM_FROUND_NO_EXC);
  const __m256d f = _mm256_sub_pd(x, k);
  return _mm256_mul_pd(exp2_reduced4(f), pow2_int4(k));
}

/// 10^q, vector form of detail::exp10_core.
inline __m256d exp10_core4(__m256d q) {
  const __m256d hi = _mm256_set1_pd(kLog2_10Hi);
  const __m256d u = _mm256_mul_pd(q, hi);
  const __m256d k =
      _mm256_round_pd(u, _MM_FROUND_TO_NEAREST_INT | _MM_FROUND_NO_EXC);
  const __m256d f =
      _mm256_add_pd(_mm256_fmsub_pd(q, hi, k),
                    _mm256_mul_pd(q, _mm256_set1_pd(kLog2_10Lo)));
  return _mm256_mul_pd(exp2_reduced4(f), pow2_int4(k));
}

/// Vector form of detail::sincos_two_pi. Quadrant selection runs in the
/// integer domain (q is integral in {0..4}); the rotation uses blends
/// for the swap and a sign-mask XOR for the negations, both of which
/// reproduce the scalar switch's moves and sign flips exactly.
inline void sincos_two_pi4(__m256d u, __m256d& sin_out, __m256d& cos_out) {
  const __m256d t = _mm256_mul_pd(_mm256_set1_pd(4.0), u);
  const __m256d q =
      _mm256_round_pd(t, _MM_FROUND_TO_NEAREST_INT | _MM_FROUND_NO_EXC);
  const __m256d f =
      _mm256_mul_pd(_mm256_set1_pd(0.25), _mm256_sub_pd(t, q));
  const __m256d t2 = _mm256_mul_pd(f, f);
  __m256d ps = _mm256_set1_pd(kSinTwoPiC[9]);
  for (int k = 8; k >= 0; --k) {
    ps = _mm256_fmadd_pd(ps, t2, _mm256_set1_pd(kSinTwoPiC[k]));
  }
  const __m256d s = _mm256_mul_pd(f, ps);
  __m256d pc = _mm256_set1_pd(kCosTwoPiC[9]);
  for (int k = 8; k >= 0; --k) {
    pc = _mm256_fmadd_pd(pc, t2, _mm256_set1_pd(kCosTwoPiC[k]));
  }
  const __m256d c = pc;
  const __m256i qi = _mm256_and_si256(
      _mm256_cvtepi32_epi64(_mm256_cvtpd_epi32(q)),
      _mm256_set1_epi64x(3));
  const auto eq = [&](long long v) {
    return _mm256_cmpeq_epi64(qi, _mm256_set1_epi64x(v));
  };
  const __m256d swap =
      _mm256_castsi256_pd(_mm256_or_si256(eq(1), eq(3)));
  const __m256d s_mag = _mm256_blendv_pd(s, c, swap);
  const __m256d c_mag = _mm256_blendv_pd(c, s, swap);
  const __m256d sign = _mm256_set1_pd(-0.0);
  const __m256d neg_s =
      _mm256_castsi256_pd(_mm256_or_si256(eq(2), eq(3)));
  const __m256d neg_c =
      _mm256_castsi256_pd(_mm256_or_si256(eq(1), eq(2)));
  sin_out = _mm256_xor_pd(s_mag, _mm256_and_pd(neg_s, sign));
  cos_out = _mm256_xor_pd(c_mag, _mm256_and_pd(neg_c, sign));
}

/// All four lanes positive, normal, finite (the log-core domain)?
inline bool log_domain_ok4(__m256d x) {
  const __m256d ok = _mm256_and_pd(
      _mm256_cmp_pd(x, _mm256_set1_pd(0x1p-1022), _CMP_GE_OQ),
      _mm256_cmp_pd(x, _mm256_set1_pd(0x1.fffffffffffffp+1023),
                    _CMP_LE_OQ));
  return _mm256_movemask_pd(ok) == 0xF;
}

/// All four lanes inside [lo, hi] (rejects NaN)?
inline bool range_ok4(__m256d x, double lo, double hi) {
  const __m256d ok =
      _mm256_and_pd(_mm256_cmp_pd(x, _mm256_set1_pd(lo), _CMP_GE_OQ),
                    _mm256_cmp_pd(x, _mm256_set1_pd(hi), _CMP_LE_OQ));
  return _mm256_movemask_pd(ok) == 0xF;
}

}  // namespace railcorr::vmath::detail

#endif  // __AVX2__ && __FMA__
