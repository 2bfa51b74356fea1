#include "util/vmath.hpp"

#include <atomic>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <string>

#include "util/config.hpp"
#include "util/contracts.hpp"
#include "util/vmath_detail.hpp"

namespace railcorr::vmath {

namespace {

/// -1: no override; otherwise the forced SimdLevel.
std::atomic<int> g_forced_level{-1};
/// -1: no override; otherwise the forced AccuracyMode.
std::atomic<int> g_forced_mode{-1};

SimdLevel detected_level() {
#if defined(RAILCORR_HAVE_AVX2)
  if (__builtin_cpu_supports("avx2")) return SimdLevel::kAvx2;
#endif
  return SimdLevel::kScalar;
}

SimdLevel env_or_detected_level() {
  // Cached once: the environment cannot change mid-process in a way we
  // want to observe, and the hot paths query this per batch. A throw
  // leaves the static unset, so every later call reports it again.
  static const SimdLevel resolved = [] {
    const char* env = std::getenv("RAILCORR_SIMD");
    if (env == nullptr || std::strcmp(env, "auto") == 0) {
      return detected_level();
    }
    if (std::strcmp(env, "scalar") == 0) return SimdLevel::kScalar;
    // "avx2" on a CPU without it degrades to scalar, like a forced level.
    if (std::strcmp(env, "avx2") == 0) return detected_level();
    throw util::ConfigError(std::string("RAILCORR_SIMD must be 'scalar', "
                                        "'avx2' or 'auto', got '") +
                            env + "'");
  }();
  return resolved;
}

AccuracyMode env_or_default_mode() {
  static const AccuracyMode resolved = [] {
    const char* env = std::getenv("RAILCORR_ACCURACY");
    if (env == nullptr || std::strcmp(env, "exact") == 0) {
      return AccuracyMode::kBitExact;
    }
    if (std::strcmp(env, "fast") == 0) return AccuracyMode::kFastUlp;
    throw util::ConfigError(
        std::string("RAILCORR_ACCURACY must be 'exact' or 'fast', got '") +
        env + "'");
  }();
  return resolved;
}

/// True when the fast dispatch should take the AVX2 lane.
bool use_fast_avx2() {
#if defined(RAILCORR_HAVE_AVX2)
  return active_simd_level() == SimdLevel::kAvx2 && cpu_has_fma();
#else
  return false;
#endif
}

}  // namespace

SimdLevel active_simd_level() {
  const int forced = g_forced_level.load(std::memory_order_relaxed);
  if (forced >= 0) {
    const auto level = static_cast<SimdLevel>(forced);
    // A forced level the build/CPU cannot run degrades to scalar.
    if (level == SimdLevel::kAvx2 && detected_level() != SimdLevel::kAvx2) {
      return SimdLevel::kScalar;
    }
    return level;
  }
  return env_or_detected_level();
}

void force_simd_level(SimdLevel level) {
  g_forced_level.store(static_cast<int>(level), std::memory_order_relaxed);
}

void reset_simd_level() {
  g_forced_level.store(-1, std::memory_order_relaxed);
}

std::string_view simd_level_name(SimdLevel level) {
  switch (level) {
    case SimdLevel::kAvx2:
      return "avx2";
    case SimdLevel::kScalar:
      break;
  }
  return "scalar";
}

bool cpu_has_fma() {
#if defined(RAILCORR_HAVE_AVX2)
  static const bool has = __builtin_cpu_supports("fma");
  return has;
#else
  return false;
#endif
}

AccuracyMode active_accuracy_mode() {
  const int forced = g_forced_mode.load(std::memory_order_relaxed);
  if (forced >= 0) return static_cast<AccuracyMode>(forced);
  return env_or_default_mode();
}

void force_accuracy_mode(AccuracyMode mode) {
  g_forced_mode.store(static_cast<int>(mode), std::memory_order_relaxed);
}

void reset_accuracy_mode() {
  g_forced_mode.store(-1, std::memory_order_relaxed);
}

std::string_view accuracy_mode_name(AccuracyMode mode) {
  switch (mode) {
    case AccuracyMode::kFastUlp:
      return "fast-ulp";
    case AccuracyMode::kBitExact:
      break;
  }
  return "exact";
}

bool fast_avx2_active() { return use_fast_avx2(); }

// ---- kBitExact lane ----------------------------------------------------
// One libm call per element, in element order: byte-identical to the
// historical scalar loops at every SIMD level.

void log10_batch_exact(std::span<const double> x, std::span<double> out) {
  RAILCORR_EXPECTS(out.size() == x.size());
  for (std::size_t i = 0; i < x.size(); ++i) out[i] = std::log10(x[i]);
}

void log2_batch_exact(std::span<const double> x, std::span<double> out) {
  RAILCORR_EXPECTS(out.size() == x.size());
  for (std::size_t i = 0; i < x.size(); ++i) out[i] = std::log2(x[i]);
}

void exp2_batch_exact(std::span<const double> x, std::span<double> out) {
  RAILCORR_EXPECTS(out.size() == x.size());
  for (std::size_t i = 0; i < x.size(); ++i) out[i] = std::exp2(x[i]);
}

void exp10_batch_exact(std::span<const double> x, std::span<double> out) {
  RAILCORR_EXPECTS(out.size() == x.size());
  for (std::size_t i = 0; i < x.size(); ++i) {
    out[i] = std::pow(10.0, x[i]);
  }
}

void ratio_to_db_batch_exact(std::span<const double> x,
                             std::span<double> out) {
  RAILCORR_EXPECTS(out.size() == x.size());
  for (std::size_t i = 0; i < x.size(); ++i) {
    out[i] = 10.0 * std::log10(x[i]);
  }
}

void db_to_ratio_batch_exact(std::span<const double> x,
                             std::span<double> out) {
  RAILCORR_EXPECTS(out.size() == x.size());
  for (std::size_t i = 0; i < x.size(); ++i) {
    out[i] = std::pow(10.0, x[i] / 10.0);
  }
}

// ---- kFastUlp scalar lane ----------------------------------------------
// The same polynomial cores as the AVX2 lane, one element at a time
// (std::fma is correctly rounded on every platform, so the documented
// ULP bounds hold here too). Out-of-domain elements fall back to libm.

void log10_batch_fast_scalar(std::span<const double> x,
                             std::span<double> out) {
  RAILCORR_EXPECTS(out.size() == x.size());
  for (std::size_t i = 0; i < x.size(); ++i) {
    out[i] = detail::log_fast_ok(x[i]) ? detail::log10_core(x[i])
                                       : std::log10(x[i]);
  }
}

void log2_batch_fast_scalar(std::span<const double> x,
                            std::span<double> out) {
  RAILCORR_EXPECTS(out.size() == x.size());
  for (std::size_t i = 0; i < x.size(); ++i) {
    out[i] = detail::log_fast_ok(x[i]) ? detail::log2_core(x[i])
                                       : std::log2(x[i]);
  }
}

void exp2_batch_fast_scalar(std::span<const double> x,
                            std::span<double> out) {
  RAILCORR_EXPECTS(out.size() == x.size());
  for (std::size_t i = 0; i < x.size(); ++i) {
    const double v = x[i];
    out[i] = (v >= detail::kExp2Lo && v <= detail::kExp2Hi)
                 ? detail::exp2_core(v)
                 : std::exp2(v);
  }
}

void exp10_batch_fast_scalar(std::span<const double> x,
                             std::span<double> out) {
  RAILCORR_EXPECTS(out.size() == x.size());
  for (std::size_t i = 0; i < x.size(); ++i) {
    const double v = x[i];
    out[i] = (v >= -detail::kExp10Range && v <= detail::kExp10Range)
                 ? detail::exp10_core(v)
                 : std::pow(10.0, v);
  }
}

void ratio_to_db_batch_fast_scalar(std::span<const double> x,
                                   std::span<double> out) {
  RAILCORR_EXPECTS(out.size() == x.size());
  for (std::size_t i = 0; i < x.size(); ++i) {
    out[i] = 10.0 * (detail::log_fast_ok(x[i]) ? detail::log10_core(x[i])
                                               : std::log10(x[i]));
  }
}

void db_to_ratio_batch_fast_scalar(std::span<const double> x,
                                   std::span<double> out) {
  RAILCORR_EXPECTS(out.size() == x.size());
  for (std::size_t i = 0; i < x.size(); ++i) {
    const double v = x[i];
    // Dividing by 10 first shares the scalar composition's argument
    // rounding, so the bound is against pow(10, x/10) as documented.
    out[i] = (v >= -detail::kDbRange && v <= detail::kDbRange)
                 ? detail::exp10_core(v / 10.0)
                 : std::pow(10.0, v / 10.0);
  }
}

// ---- dispatch ----------------------------------------------------------

#if defined(RAILCORR_HAVE_AVX2)
#define RAILCORR_VMATH_DISPATCH(name, x, out)           \
  do {                                                  \
    if (active_accuracy_mode() == AccuracyMode::kFastUlp) { \
      if (use_fast_avx2()) {                            \
        name##_fast_avx2((x), (out));                   \
      } else {                                          \
        name##_fast_scalar((x), (out));                 \
      }                                                 \
      return;                                           \
    }                                                   \
    name##_exact((x), (out));                           \
  } while (false)
#else
#define RAILCORR_VMATH_DISPATCH(name, x, out)           \
  do {                                                  \
    if (active_accuracy_mode() == AccuracyMode::kFastUlp) { \
      name##_fast_scalar((x), (out));                   \
      return;                                           \
    }                                                   \
    name##_exact((x), (out));                           \
  } while (false)
#endif

void log10_batch(std::span<const double> x, std::span<double> out) {
  RAILCORR_VMATH_DISPATCH(log10_batch, x, out);
}

void log2_batch(std::span<const double> x, std::span<double> out) {
  RAILCORR_VMATH_DISPATCH(log2_batch, x, out);
}

void exp2_batch(std::span<const double> x, std::span<double> out) {
  RAILCORR_VMATH_DISPATCH(exp2_batch, x, out);
}

void exp10_batch(std::span<const double> x, std::span<double> out) {
  RAILCORR_VMATH_DISPATCH(exp10_batch, x, out);
}

void ratio_to_db_batch(std::span<const double> x, std::span<double> out) {
  RAILCORR_VMATH_DISPATCH(ratio_to_db_batch, x, out);
}

void db_to_ratio_batch(std::span<const double> x, std::span<double> out) {
  RAILCORR_VMATH_DISPATCH(db_to_ratio_batch, x, out);
}

#undef RAILCORR_VMATH_DISPATCH

}  // namespace railcorr::vmath
