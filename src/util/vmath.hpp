/// \file vmath.hpp
/// \brief Batched vector math with explicit accuracy modes, and the
///        process-wide SIMD dispatch shared by every batch kernel.
///
/// Two orthogonal switches govern every batched entry point in this
/// header and the SoA link kernels built on top of it:
///
///  * **SimdLevel** — which instruction set the batch runs on. All
///    levels of a given accuracy mode satisfy that mode's contract;
///    `kBitExact` results are additionally bit-identical across levels.
///  * **AccuracyMode** — which numeric contract the batch honours:
///    - `kBitExact` (default): every transcendental is evaluated with
///      the exact same scalar-libm call sequence as the historical
///      per-element loops. Output is byte-identical to the seed code at
///      every SIMD level, on every machine with the same libm — this is
///      the mode the sweep-merge determinism contract is stated in.
///    - `kFastUlp`: polynomial SIMD transcendentals (log10 / log2 /
///      exp2 and the dB conversions composed from them), each with a
///      documented, property-tested ULP bound against scalar libm (see
///      the per-function bounds below and docs/ARCHITECTURE.md). Results
///      are deterministic for a fixed (mode, SIMD level, libm) but NOT
///      bit-identical to `kBitExact`; fast-mode shard documents are
///      tagged so `railcorr merge` rejects mixed-mode grids.
///
/// Mode selection mirrors the SIMD dispatch: a `force_accuracy_mode`
/// override (tests/benches), else the `RAILCORR_ACCURACY` environment
/// variable (`exact` / `fast`), else `kBitExact`. The SoA link kernels
/// (rf/batch_kernel.hpp) have no fast variant: they run bit-exact in
/// both modes.
///
/// \par Documented kFastUlp error bounds (property-tested)
///  - `log10_batch`, `log2_batch`, `exp2_batch`: <= 4 ULP against the
///    correctly-rounded scalar `std::log10` / `std::log2` / `std::exp2`
///    over the full finite input domain (non-normal inputs and
///    out-of-range exponents fall back to scalar libm element-wise and
///    are therefore exact).
///  - `ratio_to_db_batch` (10*log10(x)): <= 4 ULP against the scalar
///    composition `10.0 * std::log10(x)`.
///  - `db_to_ratio_batch` (10^(x/10)): <= 4 ULP against the scalar
///    composition `std::pow(10.0, x / 10.0)` (the fast path divides by
///    10 first, sharing the composition's argument rounding).
///  - `exp10_batch` (10^x): <= 4 ULP against scalar `std::pow(10.0, x)`
///    for |x| <= 300; larger magnitudes fall back to libm element-wise
///    and are therefore exact.
///
/// \par Thread safety
/// All batch entry points are pure over their inputs and reentrant.
/// The force/reset switches are process-global relaxed atomics and must
/// not race with concurrent batches that expect a specific setting.
#pragma once

#include <cstddef>
#include <span>
#include <string_view>

namespace railcorr::vmath {

/// Instruction-set level a batch runs at (shared by the vmath batches
/// and the rf SoA link kernels).
enum class SimdLevel {
  kScalar,  ///< portable C++ loop (auto-vectorizable)
  kAvx2,    ///< 4-wide AVX2 intrinsics
};

/// The level the dispatcher will use: a `force_simd_level` override if
/// set, else the `RAILCORR_SIMD` environment variable (`scalar` /
/// `avx2` / `auto`), else the widest level the CPU and build support.
/// Throws util::ConfigError when `RAILCORR_SIMD` holds any other value;
/// drivers call this once on their main thread before any parallel
/// region so the error surfaces there.
[[nodiscard]] SimdLevel active_simd_level();

/// Pin the dispatcher to `level` (a level the build/CPU cannot run
/// degrades to scalar). For tests and benchmarks.
void force_simd_level(SimdLevel level);

/// Drop any `force_simd_level` override; dispatch returns to automatic
/// (environment variable, then CPU detection).
void reset_simd_level();

/// Human-readable name of a level ("scalar", "avx2").
[[nodiscard]] std::string_view simd_level_name(SimdLevel level);

/// True when the CPU supports FMA3 (cached). The fast-mode AVX2 lanes
/// require FMA on top of AVX2; virtually every AVX2 CPU has it, but the
/// dispatch checks rather than assumes.
[[nodiscard]] bool cpu_has_fma();

/// Numeric contract of the batched transcendentals (see file header).
enum class AccuracyMode {
  kBitExact,  ///< scalar-libm call sequence; byte-identical output
  kFastUlp,   ///< polynomial SIMD with documented ULP bounds
};

/// The mode the dispatcher will use: a `force_accuracy_mode` override
/// if set, else `RAILCORR_ACCURACY` (`exact` / `fast`), else kBitExact.
/// Throws util::ConfigError when `RAILCORR_ACCURACY` holds any other
/// value (resolve it early, like active_simd_level).
[[nodiscard]] AccuracyMode active_accuracy_mode();

/// Pin the accuracy mode. For tests, benchmarks, and drivers that take
/// the mode from their own command line.
void force_accuracy_mode(AccuracyMode mode);

/// Drop any `force_accuracy_mode` override.
void reset_accuracy_mode();

/// Human-readable name of a mode ("exact", "fast-ulp").
[[nodiscard]] std::string_view accuracy_mode_name(AccuracyMode mode);

/// True when the fast AVX2 lane is runnable (build has the TU, CPU has
/// AVX2 + FMA, and the active SIMD level is kAvx2).
[[nodiscard]] bool fast_avx2_active();

/// \name Dispatched batches
/// `out.size()` must equal `x.size()`; `out` may alias `x` exactly
/// (in-place) or not at all — every slot is read once before it is
/// written. Each call honours the active accuracy mode and SIMD level.
///@{

/// out[i] = log10(x[i]).
void log10_batch(std::span<const double> x, std::span<double> out);
/// out[i] = log2(x[i]).
void log2_batch(std::span<const double> x, std::span<double> out);
/// out[i] = 2^x[i].
void exp2_batch(std::span<const double> x, std::span<double> out);
/// out[i] = 10^x[i].
void exp10_batch(std::span<const double> x, std::span<double> out);
/// out[i] = 10 * log10(x[i]) — linear power ratio to dB.
void ratio_to_db_batch(std::span<const double> x, std::span<double> out);
/// out[i] = 10^(x[i] / 10) — dB to linear power ratio.
void db_to_ratio_batch(std::span<const double> x, std::span<double> out);
///@}

/// \name Fixed-path variants
/// The concrete implementations behind the dispatcher, exposed so the
/// property tests and benches can pin each lane directly. The `_exact`
/// functions are the kBitExact path (identical at every SIMD level);
/// `_fast_scalar` is the portable polynomial lane; `_fast_avx2` the
/// 4-wide lane (present only in AVX2 builds; requires a CPU with AVX2
/// and FMA).
///@{
void log10_batch_exact(std::span<const double> x, std::span<double> out);
void log2_batch_exact(std::span<const double> x, std::span<double> out);
void exp2_batch_exact(std::span<const double> x, std::span<double> out);
void exp10_batch_exact(std::span<const double> x, std::span<double> out);
void ratio_to_db_batch_exact(std::span<const double> x,
                             std::span<double> out);
void db_to_ratio_batch_exact(std::span<const double> x,
                             std::span<double> out);

void log10_batch_fast_scalar(std::span<const double> x,
                             std::span<double> out);
void log2_batch_fast_scalar(std::span<const double> x,
                            std::span<double> out);
void exp2_batch_fast_scalar(std::span<const double> x,
                            std::span<double> out);
void exp10_batch_fast_scalar(std::span<const double> x,
                             std::span<double> out);
void ratio_to_db_batch_fast_scalar(std::span<const double> x,
                                   std::span<double> out);
void db_to_ratio_batch_fast_scalar(std::span<const double> x,
                                   std::span<double> out);

#if defined(RAILCORR_HAVE_AVX2)
void log10_batch_fast_avx2(std::span<const double> x, std::span<double> out);
void log2_batch_fast_avx2(std::span<const double> x, std::span<double> out);
void exp2_batch_fast_avx2(std::span<const double> x, std::span<double> out);
void exp10_batch_fast_avx2(std::span<const double> x, std::span<double> out);
void ratio_to_db_batch_fast_avx2(std::span<const double> x,
                                 std::span<double> out);
void db_to_ratio_batch_fast_avx2(std::span<const double> x,
                                 std::span<double> out);
#endif
///@}

}  // namespace railcorr::vmath
