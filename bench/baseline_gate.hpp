/// \file baseline_gate.hpp
/// \brief Recorded-baseline comparison for harness JSON: lets CI fail on
///        performance *regressions*, not just determinism violations.
///
/// The gate compares a fresh BenchHarness run against a checked-in
/// baseline produced by an earlier `--json=` run (bench/baselines/).
/// Only dimensionless metrics — keys containing "speedup" — are gated
/// by default: they measure algorithmic shape (batched vs scalar,
/// parallel vs serial) and transfer across machines, unlike absolute
/// ns/op, which varies several-fold between CI hosts. Absolute times
/// can be opted into for same-machine comparisons.
///
/// Baseline values are treated as floors with a tolerance band: a
/// current speedup S passes against baseline B when
///   S >= B / (1 + tolerance).
/// Checked-in baselines should therefore record *conservative floors*
/// (measured values rounded down), not the best observed numbers.
///
/// A baseline entry may also record `ns_per_op_ceiling`: a time budget
/// checked on every run (T <= ceiling * (1 + tolerance)), for a figure
/// whose only honest ratio has a denominator that keeps moving.
#pragma once

#include <cctype>
#include <cstddef>
#include <map>
#include <ostream>
#include <string>
#include <vector>

#include "bench_harness.hpp"

namespace railcorr::bench {

/// One benchmark entry of a parsed baseline file. All numeric fields of
/// the JSON object land in `metrics` (including ns_per_op).
struct BaselineEntry {
  std::string name;
  std::size_t threads = 1;
  std::map<std::string, double> metrics;
};

/// Minimal parser for the harness's own JSON output (flat benchmark
/// objects of string and number fields inside a "benchmarks" array).
/// Not a general JSON parser; unknown constructs are skipped.
inline std::vector<BaselineEntry> parse_harness_json(const std::string& text) {
  std::vector<BaselineEntry> entries;
  const std::size_t array_pos = text.find("\"benchmarks\"");
  if (array_pos == std::string::npos) return entries;

  std::size_t pos = text.find('[', array_pos);
  if (pos == std::string::npos) return entries;
  const std::size_t array_end = text.find(']', pos);

  while (pos < text.size()) {
    const std::size_t obj_begin = text.find('{', pos);
    if (obj_begin == std::string::npos || obj_begin > array_end) break;
    const std::size_t obj_end = text.find('}', obj_begin);
    if (obj_end == std::string::npos) break;

    BaselineEntry entry;
    std::size_t cursor = obj_begin;
    while (cursor < obj_end) {
      const std::size_t key_begin = text.find('"', cursor);
      if (key_begin == std::string::npos || key_begin >= obj_end) break;
      const std::size_t key_end = text.find('"', key_begin + 1);
      if (key_end == std::string::npos || key_end >= obj_end) break;
      const std::string key = text.substr(key_begin + 1,
                                          key_end - key_begin - 1);
      std::size_t value_begin = text.find(':', key_end);
      if (value_begin == std::string::npos || value_begin >= obj_end) break;
      ++value_begin;
      while (value_begin < obj_end &&
             std::isspace(static_cast<unsigned char>(text[value_begin]))) {
        ++value_begin;
      }
      if (value_begin >= obj_end) break;
      if (text[value_begin] == '"') {  // string value
        const std::size_t str_end = text.find('"', value_begin + 1);
        if (str_end == std::string::npos) break;
        if (key == "name") {
          entry.name = text.substr(value_begin + 1,
                                   str_end - value_begin - 1);
        }
        cursor = str_end + 1;
      } else {  // numeric value
        std::size_t parsed = 0;
        double value = 0.0;
        try {
          value = std::stod(text.substr(value_begin, obj_end - value_begin),
                            &parsed);
        } catch (const std::exception&) {
          break;
        }
        if (key == "threads") {
          entry.threads = static_cast<std::size_t>(value);
        } else {
          entry.metrics[key] = value;
        }
        cursor = value_begin + parsed;
      }
    }
    if (!entry.name.empty()) entries.push_back(entry);
    pos = obj_end + 1;
  }
  return entries;
}

/// Outcome of one gate run.
struct GateResult {
  int checked = 0;     ///< metric comparisons performed
  int violations = 0;  ///< comparisons that regressed beyond tolerance

  [[nodiscard]] bool passed() const { return violations == 0; }
};

/// Compare `current` against `baseline`. Gated metrics: every baseline
/// metric whose key contains "speedup" (floor check, see file header),
/// `ns_per_op_ceiling`, and with `check_absolute_times` also ns_per_op
/// (both ceiling checks on the current ns_per_op). A
/// baseline entry missing from the current run is a violation — a
/// silently dropped benchmark must not pass the gate.
inline GateResult check_against_baseline(
    const std::vector<BenchResult>& current,
    const std::vector<BaselineEntry>& baseline, double tolerance,
    std::ostream& log, bool check_absolute_times = false) {
  GateResult gate;
  for (const auto& expected : baseline) {
    const BenchResult* result = nullptr;
    for (const auto& r : current) {
      if (r.name == expected.name && r.threads == expected.threads) {
        result = &r;
        break;
      }
    }
    if (result == nullptr) {
      log << "PERF GATE: benchmark \"" << expected.name << "\" (threads="
          << expected.threads << ") missing from the current run\n";
      ++gate.checked;
      ++gate.violations;
      continue;
    }
    for (const auto& [key, floor] : expected.metrics) {
      if (key.find("speedup") != std::string::npos) {
        double observed = 0.0;
        bool found = false;
        for (const auto& [mkey, mvalue] : result->metrics) {
          if (mkey == key) {
            observed = mvalue;
            found = true;
            break;
          }
        }
        ++gate.checked;
        const double required = floor / (1.0 + tolerance);
        if (!found || observed < required) {
          log << "PERF GATE: " << expected.name << " (threads="
              << expected.threads << ") " << key << " = "
              << (found ? observed : 0.0) << " < required " << required
              << " (baseline " << floor << ", tolerance " << tolerance
              << ")\n";
          ++gate.violations;
        }
      } else if (key == "ns_per_op_ceiling" ||
                 (check_absolute_times && key == "ns_per_op")) {
        ++gate.checked;
        const double ceiling = floor * (1.0 + tolerance);
        if (result->ns_per_op > ceiling) {
          log << "PERF GATE: " << expected.name << " (threads="
              << expected.threads << ") ns_per_op = " << result->ns_per_op
              << " > allowed " << ceiling << " (baseline " << floor
              << ")\n";
          ++gate.violations;
        }
      }
    }
  }
  return gate;
}

}  // namespace railcorr::bench
