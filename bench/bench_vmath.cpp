/// Vectorized-math and batched-sizing benchmark: measures the kFastUlp
/// accuracy mode against the bit-exact default (and scalar libm) on the
/// dB-conversion passes, the Shannon SE mapping, and the full SoA
/// snr_batch path, plus the shared-weather batched off-grid sizing
/// against the per-cell walk — and verifies, in the same run, that the
/// default mode stays bitwise-libm and the fast mode stays inside its
/// documented ULP bounds, and that batched sizing reproduces the
/// per-cell results exactly.
///
/// Usage: bench_vmath [--json=PATH] [--min-seconds=S] [--baseline=PATH]
///          [--baseline-tolerance=F] [--check-abs-times]
///
/// With --baseline, speedup metrics are gated against recorded floors
/// (bench/baselines/vmath.json; see bench/baseline_gate.hpp). Exit
/// status: 0 ok, 1 accuracy-contract violation, 2 usage error, 3 perf
/// regression against the baseline.
#include <cmath>
#include <cstdint>
#include <cstring>
#include <fstream>
#include <iostream>
#include <optional>
#include <random>
#include <sstream>
#include <string>
#include <vector>

#include "baseline_gate.hpp"
#include "bench_harness.hpp"
#include "corridor/deployment.hpp"
#include "power/earth_model.hpp"
#include "rf/link.hpp"
#include "rf/throughput.hpp"
#include "sizing_workload.hpp"
#include "solar/consumption.hpp"
#include "solar/sizing.hpp"
#include "traffic/timetable.hpp"
#include "ulp_distance.hpp"
#include "util/vmath.hpp"

namespace {

using namespace railcorr;
using bench::ulp_distance;

/// Attach `speedup_key = reference.ns_per_op / result.ns_per_op`.
void add_speedup(bench::BenchHarness& harness, bench::BenchResult& result,
                 const std::string& reference, const char* key) {
  if (const auto* base = harness.find(reference, 1)) {
    result.metrics.emplace_back(key, base->ns_per_op / result.ns_per_op);
  }
}

}  // namespace

int main(int argc, char** argv) {
  std::optional<std::string> json_path;
  std::optional<std::string> baseline_path;
  double baseline_tolerance = 0.5;
  bool check_abs_times = false;
  double min_seconds = 0.2;
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--json=", 7) == 0) {
      json_path = std::string(argv[i] + 7);
    } else if (std::strncmp(argv[i], "--baseline=", 11) == 0) {
      baseline_path = std::string(argv[i] + 11);
    } else if (std::strncmp(argv[i], "--baseline-tolerance=", 21) == 0) {
      try {
        baseline_tolerance = std::stod(argv[i] + 21);
      } catch (const std::exception&) {
        std::cerr << "invalid --baseline-tolerance value: " << (argv[i] + 21)
                  << '\n';
        return 2;
      }
    } else if (std::strcmp(argv[i], "--check-abs-times") == 0) {
      check_abs_times = true;
    } else if (std::strncmp(argv[i], "--min-seconds=", 14) == 0) {
      try {
        min_seconds = std::stod(argv[i] + 14);
      } catch (const std::exception&) {
        std::cerr << "invalid --min-seconds value: " << (argv[i] + 14) << '\n';
        return 2;
      }
    } else {
      std::cerr << "unknown argument: " << argv[i]
                << " (usage: bench_vmath [--json=PATH] [--min-seconds=S]"
                   " [--baseline=PATH] [--baseline-tolerance=F]"
                   " [--check-abs-times])\n";
      return 2;
    }
  }

  bench::BenchHarness harness("vmath");
  harness.add_context(
      "simd", std::string(vmath::simd_level_name(vmath::active_simd_level())));
  harness.add_context("fast_avx2",
                      vmath::fast_avx2_active() ? "yes" : "no");
  bool contract_ok = true;
  const auto violate = [&](const std::string& what) {
    std::cerr << "ACCURACY CONTRACT VIOLATION: " << what << '\n';
    contract_ok = false;
  };

  // ---- inputs ----------------------------------------------------------
  constexpr std::size_t kN = 32768;
  std::mt19937_64 rng(0x5EED);
  std::uniform_real_distribution<double> decades(-15.0, 12.0);
  std::vector<double> ratios(kN);
  for (auto& v : ratios) v = std::pow(10.0, decades(rng));
  std::vector<double> dbs(kN);
  std::uniform_real_distribution<double> db_span(-200.0, 90.0);
  for (auto& v : dbs) v = db_span(rng);
  std::vector<double> out(kN), reference(kN);
  double sink = 0.0;

  // ---- dB-conversion pass: libm loop vs exact batch vs fast batch ------
  harness.run(
      "db_pass_libm_32k", 1,
      [&] {
        for (std::size_t i = 0; i < kN; ++i) {
          out[i] = 10.0 * std::log10(ratios[i]);
        }
        sink += out[0];
      },
      min_seconds);
  reference = out;

  vmath::force_accuracy_mode(vmath::AccuracyMode::kBitExact);
  harness.run(
      "db_pass_exact_32k", 1,
      [&] { vmath::ratio_to_db_batch(ratios, out); }, min_seconds);
  for (std::size_t i = 0; i < kN; ++i) {
    if (out[i] != reference[i]) {
      violate("default-mode ratio_to_db differs from libm");
      break;
    }
  }

  vmath::force_accuracy_mode(vmath::AccuracyMode::kFastUlp);
  auto& db_fast = harness.run(
      "db_pass_fast_32k", 1,
      [&] { vmath::ratio_to_db_batch(ratios, out); }, min_seconds);
  add_speedup(harness, db_fast, "db_pass_libm_32k", "fast_speedup_vs_libm");
  for (std::size_t i = 0; i < kN; ++i) {
    if (ulp_distance(out[i], reference[i]) > 4) {
      violate("fast ratio_to_db beyond 4 ULP of libm");
      break;
    }
  }

  // ---- individual transcendentals --------------------------------------
  auto& log10_fast = harness.run(
      "log10_batch_fast_32k", 1,
      [&] { vmath::log10_batch(ratios, out); }, min_seconds);
  add_speedup(harness, log10_fast, "db_pass_libm_32k",
              "fast_speedup_vs_libm");
  for (std::size_t i = 0; i < kN; ++i) {
    if (ulp_distance(out[i], std::log10(ratios[i])) > 4) {
      violate("fast log10 beyond 4 ULP of libm");
      break;
    }
  }

  harness.run(
      "exp2_libm_32k", 1,
      [&] {
        for (std::size_t i = 0; i < kN; ++i) out[i] = std::exp2(dbs[i]);
        sink += out[0];
      },
      min_seconds);
  auto& exp2_fast = harness.run(
      "exp2_batch_fast_32k", 1, [&] { vmath::exp2_batch(dbs, out); },
      min_seconds);
  add_speedup(harness, exp2_fast, "exp2_libm_32k", "fast_speedup_vs_libm");
  for (std::size_t i = 0; i < kN; ++i) {
    if (ulp_distance(out[i], std::exp2(dbs[i])) > 4) {
      violate("fast exp2 beyond 4 ULP of libm");
      break;
    }
  }

  // ---- Shannon SE pass -------------------------------------------------
  const rf::ThroughputModel throughput = rf::ThroughputModel::paper_model();
  vmath::force_accuracy_mode(vmath::AccuracyMode::kBitExact);
  harness.run(
      "se_scalar_32k", 1,
      [&] {
        for (std::size_t i = 0; i < kN; ++i) {
          out[i] = throughput.spectral_efficiency(Db(dbs[i]));
        }
        sink += out[0];
      },
      min_seconds);
  reference = out;
  harness.run(
      "se_batch_exact_32k", 1,
      [&] { throughput.spectral_efficiency_batch(dbs, out); }, min_seconds);
  for (std::size_t i = 0; i < kN; ++i) {
    if (out[i] != reference[i]) {
      violate("default-mode SE batch differs from scalar");
      break;
    }
  }
  vmath::force_accuracy_mode(vmath::AccuracyMode::kFastUlp);
  auto& se_fast = harness.run(
      "se_batch_fast_32k", 1,
      [&] { throughput.spectral_efficiency_batch(dbs, out); }, min_seconds);
  add_speedup(harness, se_fast, "se_scalar_32k", "fast_speedup_vs_scalar");
  for (std::size_t i = 0; i < kN; ++i) {
    if (std::fabs(out[i] - reference[i]) > 1e-12) {
      violate("fast SE batch beyond 1e-12 bps/Hz of scalar");
      break;
    }
  }

  // ---- full snr_batch path ---------------------------------------------
  const auto deployment =
      corridor::SegmentDeployment::with_repeaters(2400.0, 8);
  rf::LinkModelConfig link_config;
  const rf::CorridorLinkModel model(
      link_config, deployment.transmitters(link_config.carrier));
  constexpr std::size_t kPositions = 10000;
  std::vector<double> positions(kPositions), snr_db(kPositions);
  for (std::size_t i = 0; i < kPositions; ++i) {
    positions[i] =
        2400.0 * static_cast<double>(i) / static_cast<double>(kPositions - 1);
  }
  vmath::force_accuracy_mode(vmath::AccuracyMode::kBitExact);
  harness.run(
      "snr_batch_exact_10k", 1,
      [&] { model.snr_batch(positions, snr_db); }, min_seconds);
  std::vector<double> snr_exact = snr_db;
  vmath::force_accuracy_mode(vmath::AccuracyMode::kFastUlp);
  auto& snr_fast = harness.run(
      "snr_batch_fast_10k", 1,
      [&] { model.snr_batch(positions, snr_db); }, min_seconds);
  add_speedup(harness, snr_fast, "snr_batch_exact_10k",
              "fast_speedup_vs_exact");
  for (std::size_t i = 0; i < kPositions; ++i) {
    if (std::fabs(snr_db[i] - snr_exact[i]) > 1e-12) {
      violate("fast snr_batch beyond 1e-12 dB of exact");
      break;
    }
  }
  vmath::reset_accuracy_mode();

  // ---- batched sizing vs per-cell --------------------------------------
  {
    const auto base_profile = solar::repeater_consumption(
        power::EarthPowerModel::paper_low_power_repeater(),
        traffic::TimetableConfig::paper_timetable(), 200.0);
    solar::SizingOptions sizing_options;
    sizing_options.years = 1;
    const auto jobs =
        bench::sizing_sweep_cells(base_profile, sizing_options, 8);
    // The two paths alternate over rounds and each keeps its fastest
    // round, so the gated ratio compares them under the same host load
    // rather than across two separate windows of it.
    constexpr std::size_t kSizingRounds = 9;
    std::vector<std::vector<solar::SizingResult>> per_cell;
    std::vector<std::vector<solar::SizingResult>> batched;
    auto& sizing_batched = harness.run_interleaved(
        "sizing_per_cell_8cells",
        [&] { per_cell = bench::sizing_per_cell(jobs); },
        "sizing_batched_8cells", [&] { batched = solar::size_jobs(jobs); },
        kSizingRounds, 3.0 * min_seconds);
    add_speedup(harness, sizing_batched, "sizing_per_cell_8cells",
                "batched_speedup_vs_per_cell");
    if (!bench::sizing_results_identical(per_cell, batched)) {
      violate("batched sizing differs from per-cell walk");
    }
  }

  if (sink == 42.0) std::cerr << "";  // keep the scalar loops observable

  harness.write_json(std::cout);
  if (json_path && !harness.write_json_file(*json_path)) {
    std::cerr << "failed to write " << *json_path << '\n';
    return 2;
  }
  if (!contract_ok) return 1;

  if (baseline_path) {
    std::ifstream file(*baseline_path);
    if (!file) {
      std::cerr << "failed to read baseline " << *baseline_path << '\n';
      return 2;
    }
    std::ostringstream text;
    text << file.rdbuf();
    const auto baseline = bench::parse_harness_json(text.str());
    if (baseline.empty()) {
      std::cerr << "baseline " << *baseline_path
                << " contains no benchmarks\n";
      return 2;
    }
    const auto gate = bench::check_against_baseline(
        harness.results(), baseline, baseline_tolerance, std::cerr,
        check_abs_times);
    std::cerr << "perf gate: " << gate.checked << " checks, "
              << gate.violations << " violations (tolerance "
              << baseline_tolerance << ")\n";
    if (!gate.passed()) return 3;
  }
  return 0;
}
