/// The RAILCORR_ACCURACY / RAILCORR_SIMD overrides accept only their
/// documented spellings. Anything else is a util::ConfigError naming
/// the variable, the value and the accepted spellings, never a silent
/// fallback to the default.
///
/// Each variable is read once per process and cached only on success,
/// so this binary is the only place that resolves them: each test sets
/// its variable before the first read, checks the rejections, then
/// checks that a valid value resolves.
#include <gtest/gtest.h>

#include <cstdlib>
#include <string>

#include "util/config.hpp"
#include "util/vmath.hpp"

namespace railcorr::vmath {
namespace {

/// The ConfigError message `call` throws, or a marker when it does not.
template <typename Call>
std::string config_error_of(Call&& call) {
  try {
    (void)call();
  } catch (const util::ConfigError& error) {
    return error.what();
  }
  return "<no ConfigError>";
}

TEST(VmathEnvironment, UnknownAccuracyValuesAreConfigErrors) {
  // "fast-ulp" is the mode's own printed name; it used to run exact.
  for (const char* bad : {"fast-ulp", "FAST", "bitexact", ""}) {
    ASSERT_EQ(setenv("RAILCORR_ACCURACY", bad, 1), 0);
    EXPECT_EQ(config_error_of([] { return active_accuracy_mode(); }),
              "RAILCORR_ACCURACY must be 'exact' or 'fast', got '" +
                  std::string(bad) + "'");
  }
  ASSERT_EQ(setenv("RAILCORR_ACCURACY", "fast", 1), 0);
  EXPECT_EQ(active_accuracy_mode(), AccuracyMode::kFastUlp);
  unsetenv("RAILCORR_ACCURACY");
}

TEST(VmathEnvironment, UnknownSimdValuesAreConfigErrors) {
  // "avx" used to fall through to CPU detection.
  for (const char* bad : {"avx", "AVX2", "sse4", ""}) {
    ASSERT_EQ(setenv("RAILCORR_SIMD", bad, 1), 0);
    EXPECT_EQ(config_error_of([] { return active_simd_level(); }),
              "RAILCORR_SIMD must be 'scalar', 'avx2' or 'auto', got '" +
                  std::string(bad) + "'");
  }
  ASSERT_EQ(setenv("RAILCORR_SIMD", "scalar", 1), 0);
  EXPECT_EQ(active_simd_level(), SimdLevel::kScalar);
  unsetenv("RAILCORR_SIMD");
}

}  // namespace
}  // namespace railcorr::vmath
