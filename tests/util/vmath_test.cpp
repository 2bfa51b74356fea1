/// Accuracy-mode contract of the batched vector math (util/vmath.hpp):
/// the default mode is bit-identical to scalar libm at every SIMD
/// level, and kFastUlp stays inside its documented ULP bounds over the
/// kernels' input ranges — wide log-uniform power ratios, dB-domain
/// spans, the cancellation-prone near-1 region, and the non-finite /
/// denormal edges that fall back to libm.
#include "util/vmath.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <random>
#include <vector>

#include "ulp_distance.hpp"

namespace railcorr::vmath {
namespace {

using bench::ulp_distance;

/// Inputs covering the fast lanes' domain plus every fallback edge.
std::vector<double> log_domain_inputs() {
  std::mt19937_64 rng(0xC0FFEE);
  std::uniform_real_distribution<double> decades(-30.0, 30.0);
  std::uniform_real_distribution<double> near_one(0.5, 2.0);
  std::vector<double> x;
  for (int i = 0; i < 60000; ++i) x.push_back(std::pow(10.0, decades(rng)));
  for (int i = 0; i < 60000; ++i) x.push_back(near_one(rng));
  for (int e = -300; e <= 300; e += 7) x.push_back(std::ldexp(1.0, e));
  // Fallback edges: zero, negatives, non-finite, subnormal.
  x.insert(x.end(), {0.0, -0.0, -1.5, 1.0, 10.0, 100.0,
                     std::numeric_limits<double>::infinity(),
                     -std::numeric_limits<double>::infinity(),
                     std::numeric_limits<double>::quiet_NaN(),
                     std::numeric_limits<double>::denorm_min(),
                     5e-324, 1e-310,
                     std::numeric_limits<double>::max(),
                     std::numeric_limits<double>::min()});
  return x;
}

std::vector<double> db_domain_inputs() {
  std::mt19937_64 rng(0xBEEF);
  std::uniform_real_distribution<double> db(-320.0, 320.0);
  std::vector<double> x;
  for (int i = 0; i < 120000; ++i) x.push_back(db(rng));
  x.insert(x.end(), {0.0, -200.0, 29.0, -10.0, 3001.0, -3001.0,
                     std::numeric_limits<double>::infinity(),
                     -std::numeric_limits<double>::infinity(),
                     std::numeric_limits<double>::quiet_NaN()});
  return x;
}

using BatchFn = void (*)(std::span<const double>, std::span<double>);
using ScalarFn = double (*)(double);

/// Check `batch` against the scalar reference within `bound` ULP.
void expect_within_ulp(BatchFn batch, ScalarFn reference,
                       const std::vector<double>& inputs,
                       std::int64_t bound, const char* what) {
  std::vector<double> out(inputs.size());
  batch(inputs, out);
  std::int64_t worst = 0;
  double worst_x = 0.0;
  for (std::size_t i = 0; i < inputs.size(); ++i) {
    const std::int64_t d = ulp_distance(out[i], reference(inputs[i]));
    if (d > worst) {
      worst = d;
      worst_x = inputs[i];
    }
  }
  EXPECT_LE(worst, bound) << what << " worst at x = " << worst_x;
}

double ref_log10(double x) { return std::log10(x); }
double ref_log2(double x) { return std::log2(x); }
double ref_exp2(double x) { return std::exp2(x); }
double ref_exp10(double x) { return std::pow(10.0, x); }
double ref_ratio_to_db(double x) { return 10.0 * std::log10(x); }
double ref_db_to_ratio(double x) { return std::pow(10.0, x / 10.0); }

bool fast_avx2_built() {
#if defined(RAILCORR_HAVE_AVX2)
  return active_simd_level() == SimdLevel::kAvx2 && cpu_has_fma();
#else
  return false;
#endif
}

class VmathTest : public ::testing::Test {
 protected:
  void TearDown() override {
    reset_simd_level();
    reset_accuracy_mode();
  }
};

// ---- mode & level plumbing ---------------------------------------------

TEST_F(VmathTest, ModeAndLevelNames) {
  EXPECT_EQ(accuracy_mode_name(AccuracyMode::kBitExact), "exact");
  EXPECT_EQ(accuracy_mode_name(AccuracyMode::kFastUlp), "fast-ulp");
  EXPECT_EQ(simd_level_name(SimdLevel::kScalar), "scalar");
  EXPECT_EQ(simd_level_name(SimdLevel::kAvx2), "avx2");
}

TEST_F(VmathTest, DefaultModeIsBitExactAndForcingSticks) {
  // No env override in the test harness: the default must be exact.
  EXPECT_EQ(active_accuracy_mode(), AccuracyMode::kBitExact);
  force_accuracy_mode(AccuracyMode::kFastUlp);
  EXPECT_EQ(active_accuracy_mode(), AccuracyMode::kFastUlp);
  reset_accuracy_mode();
  EXPECT_EQ(active_accuracy_mode(), AccuracyMode::kBitExact);
}

// ---- bit-exact default -------------------------------------------------

TEST_F(VmathTest, DefaultModeBitIdenticalToLibmAtEverySimdLevel) {
  const auto logs = log_domain_inputs();
  const auto dbs = db_domain_inputs();
  std::vector<double> out(logs.size());
  for (const SimdLevel level : {SimdLevel::kScalar, SimdLevel::kAvx2}) {
    force_simd_level(level);
    log10_batch(logs, out);
    for (std::size_t i = 0; i < logs.size(); ++i) {
      ASSERT_EQ(ulp_distance(out[i], std::log10(logs[i])), 0)
          << "log10 at level " << simd_level_name(level);
    }
    ratio_to_db_batch(logs, out);
    for (std::size_t i = 0; i < logs.size(); ++i) {
      ASSERT_EQ(ulp_distance(out[i], 10.0 * std::log10(logs[i])), 0);
    }
    out.resize(dbs.size());
    db_to_ratio_batch(dbs, out);
    for (std::size_t i = 0; i < dbs.size(); ++i) {
      ASSERT_EQ(ulp_distance(out[i], std::pow(10.0, dbs[i] / 10.0)), 0);
    }
    out.resize(logs.size());
  }
}

TEST_F(VmathTest, BatchesSupportExactAliasing) {
  std::vector<double> data = {1.0, 10.0, 100.0, 1000.0, 2.5};
  log10_batch(data, data);
  EXPECT_EQ(data[1], 1.0);
  EXPECT_EQ(data[3], 3.0);
}

// ---- kFastUlp property bounds ------------------------------------------

TEST_F(VmathTest, FastScalarLaneWithinDocumentedUlpBounds) {
  const auto logs = log_domain_inputs();
  const auto dbs = db_domain_inputs();
  expect_within_ulp(log10_batch_fast_scalar, ref_log10, logs, 4,
                    "log10 fast scalar");
  expect_within_ulp(log2_batch_fast_scalar, ref_log2, logs, 4,
                    "log2 fast scalar");
  expect_within_ulp(ratio_to_db_batch_fast_scalar, ref_ratio_to_db, logs, 4,
                    "ratio_to_db fast scalar");
  expect_within_ulp(exp2_batch_fast_scalar, ref_exp2, dbs, 4,
                    "exp2 fast scalar");
  expect_within_ulp(db_to_ratio_batch_fast_scalar, ref_db_to_ratio, dbs, 4,
                    "db_to_ratio fast scalar");
  expect_within_ulp(exp10_batch_fast_scalar, ref_exp10, dbs, 4,
                    "exp10 fast scalar");
}

TEST_F(VmathTest, FastAvx2LaneWithinDocumentedUlpBounds) {
  if (!fast_avx2_built()) GTEST_SKIP() << "no AVX2+FMA fast lane";
#if defined(RAILCORR_HAVE_AVX2)
  const auto logs = log_domain_inputs();
  const auto dbs = db_domain_inputs();
  expect_within_ulp(log10_batch_fast_avx2, ref_log10, logs, 4,
                    "log10 fast avx2");
  expect_within_ulp(log2_batch_fast_avx2, ref_log2, logs, 4,
                    "log2 fast avx2");
  expect_within_ulp(ratio_to_db_batch_fast_avx2, ref_ratio_to_db, logs, 4,
                    "ratio_to_db fast avx2");
  expect_within_ulp(exp2_batch_fast_avx2, ref_exp2, dbs, 4,
                    "exp2 fast avx2");
  expect_within_ulp(db_to_ratio_batch_fast_avx2, ref_db_to_ratio, dbs, 4,
                    "db_to_ratio fast avx2");
  expect_within_ulp(exp10_batch_fast_avx2, ref_exp10, dbs, 4,
                    "exp10 fast avx2");
#endif
}

TEST_F(VmathTest, Exp10ExactModeBitIdenticalToLibmAtEverySimdLevel) {
  const auto dbs = db_domain_inputs();
  std::vector<double> out(dbs.size());
  for (const SimdLevel level : {SimdLevel::kScalar, SimdLevel::kAvx2}) {
    force_simd_level(level);
    exp10_batch(dbs, out);
    for (std::size_t i = 0; i < dbs.size(); ++i) {
      ASSERT_EQ(ulp_distance(out[i], std::pow(10.0, dbs[i])), 0)
          << "exp10 at level " << simd_level_name(level);
    }
  }
}

// ---- monotonicity properties -------------------------------------------

/// Strictly increasing grids whose consecutive reference values are far
/// enough apart (many ULP) that a lane honouring its documented ULP
/// bound must preserve order. exp10 spans the fast domain plus the
/// libm-fallback edges beyond |x| = 300.
std::vector<double> sorted_exp10_grid() {
  std::mt19937_64 rng(0xD1CE);
  std::uniform_real_distribution<double> db(-320.0, 320.0);
  std::vector<double> x;
  for (int i = 0; i < 20000; ++i) x.push_back(db(rng));
  std::sort(x.begin(), x.end());
  // Collapse near-duplicates: 1e-9 in the exponent is ~2e-9 relative in
  // the value, orders of magnitude above a 4-ULP wiggle.
  std::vector<double> grid;
  for (const double v : x) {
    if (grid.empty() || v - grid.back() > 1e-9) grid.push_back(v);
  }
  return grid;
}

std::vector<double> sorted_log10_grid() {
  std::mt19937_64 rng(0xFACE);
  std::uniform_real_distribution<double> decades(-30.0, 30.0);
  std::vector<double> x;
  for (int i = 0; i < 20000; ++i) x.push_back(std::pow(10.0, decades(rng)));
  std::sort(x.begin(), x.end());
  std::vector<double> grid;
  for (const double v : x) {
    if (grid.empty() || v > grid.back() * (1.0 + 1e-9)) grid.push_back(v);
  }
  return grid;
}

TEST_F(VmathTest, Exp10MonotoneInBothAccuracyModes) {
  const auto grid = sorted_exp10_grid();
  std::vector<double> out(grid.size());
  for (const AccuracyMode mode : {AccuracyMode::kBitExact,
                                  AccuracyMode::kFastUlp}) {
    force_accuracy_mode(mode);
    for (const SimdLevel level : {SimdLevel::kScalar, SimdLevel::kAvx2}) {
      force_simd_level(level);
      exp10_batch(grid, out);
      for (std::size_t i = 1; i < out.size(); ++i) {
        ASSERT_LE(out[i - 1], out[i])
            << "exp10 non-monotone at x = " << grid[i] << " mode "
            << accuracy_mode_name(mode) << " level "
            << simd_level_name(level);
      }
    }
  }
}

TEST_F(VmathTest, Log10MonotoneInBothAccuracyModes) {
  const auto grid = sorted_log10_grid();
  std::vector<double> out(grid.size());
  for (const AccuracyMode mode : {AccuracyMode::kBitExact,
                                  AccuracyMode::kFastUlp}) {
    force_accuracy_mode(mode);
    for (const SimdLevel level : {SimdLevel::kScalar, SimdLevel::kAvx2}) {
      force_simd_level(level);
      log10_batch(grid, out);
      for (std::size_t i = 1; i < out.size(); ++i) {
        ASSERT_LE(out[i - 1], out[i])
            << "log10 non-monotone at x = " << grid[i] << " mode "
            << accuracy_mode_name(mode) << " level "
            << simd_level_name(level);
      }
    }
  }
}

TEST_F(VmathTest, FastDispatchHonoursForcedModeAndLevel) {
  // Exact powers of 10 are not exactly representable beyond 10^22, but
  // log10(100) is exact in both modes; use a value where the fast
  // polynomial differs from libm in the last place to observe the
  // switch. Scan for one such value first.
  std::vector<double> probe;
  std::mt19937_64 rng(17);
  std::uniform_real_distribution<double> decades(-20.0, 20.0);
  for (int i = 0; i < 4096; ++i) probe.push_back(std::pow(10.0, decades(rng)));
  std::vector<double> exact(probe.size());
  std::vector<double> fast(probe.size());

  force_accuracy_mode(AccuracyMode::kBitExact);
  log10_batch(probe, exact);
  force_accuracy_mode(AccuracyMode::kFastUlp);
  log10_batch(probe, fast);

  bool any_difference = false;
  for (std::size_t i = 0; i < probe.size(); ++i) {
    const auto d = ulp_distance(exact[i], fast[i]);
    ASSERT_LE(d, 4);
    any_difference = any_difference || d != 0;
  }
  // The polynomial lane and libm disagree somewhere in the last place
  // over 4096 samples — otherwise the dispatch is not actually
  // switching implementations.
  EXPECT_TRUE(any_difference);
}

TEST_F(VmathTest, ForcedAvx2DegradesToScalarWhenUnavailable) {
  force_simd_level(SimdLevel::kAvx2);
#if defined(RAILCORR_HAVE_AVX2)
  if (__builtin_cpu_supports("avx2")) {
    EXPECT_EQ(active_simd_level(), SimdLevel::kAvx2);
  } else {
    EXPECT_EQ(active_simd_level(), SimdLevel::kScalar);
  }
#else
  EXPECT_EQ(active_simd_level(), SimdLevel::kScalar);
#endif
}

// ---- special values through the dispatched fast path -------------------

TEST_F(VmathTest, FastModeEdgeCasesMatchLibmSemantics) {
  force_accuracy_mode(AccuracyMode::kFastUlp);
  const std::vector<double> x = {0.0, -1.0,
                                 std::numeric_limits<double>::infinity(),
                                 std::numeric_limits<double>::quiet_NaN(),
                                 1.0};
  std::vector<double> out(x.size());
  log10_batch(x, out);
  EXPECT_TRUE(std::isinf(out[0]) && out[0] < 0.0);  // log10(0) = -inf
  EXPECT_TRUE(std::isnan(out[1]));                  // log10(-1) = NaN
  EXPECT_TRUE(std::isinf(out[2]) && out[2] > 0.0);
  EXPECT_TRUE(std::isnan(out[3]));
  EXPECT_EQ(out[4], 0.0);

  const std::vector<double> e = {-2000.0, 2000.0, 0.0};
  std::vector<double> r(e.size());
  exp2_batch(e, r);
  EXPECT_EQ(r[0], 0.0);
  EXPECT_TRUE(std::isinf(r[1]));
  EXPECT_EQ(r[2], 1.0);
}

}  // namespace
}  // namespace railcorr::vmath
