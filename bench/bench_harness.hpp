/// \file bench_harness.hpp
/// \brief Shared timing harness for railcorr benchmarks that need
///        machine-readable output: wall-clock timing per benchmark and a
///        JSON document with ns/op, throughput, and thread count.
///
/// google-benchmark remains the tool for microbenchmarks with statistical
/// repetition; this harness covers the orchestration-level benchmarks
/// (parallel scaling, CI smoke runs) where a single self-describing JSON
/// artifact matters more than variance control.
#pragma once

#include <chrono>
#include <cstddef>
#include <fstream>
#include <ostream>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

namespace railcorr::bench {

/// Outcome of one timed benchmark.
struct BenchResult {
  std::string name;
  std::size_t threads = 1;
  std::size_t iterations = 0;
  double ns_per_op = 0.0;
  double ops_per_second = 0.0;
  /// Additional metrics (e.g. {"speedup_vs_1_thread", 3.7}).
  std::vector<std::pair<std::string, double>> metrics;
};

/// Times callables and renders the collected results as one JSON object.
class BenchHarness {
 public:
  explicit BenchHarness(std::string suite) : suite_(std::move(suite)) {}

  /// Attach a suite-level context string (e.g. {"simd", "avx2"}),
  /// rendered into a "context" object in the JSON document.
  void add_context(std::string key, std::string value) {
    context_.emplace_back(std::move(key), std::move(value));
  }

  /// Run `fn` repeatedly until at least `min_seconds` of wall clock has
  /// accumulated (and at least once), then record and return the result.
  template <typename Fn>
  BenchResult& run(const std::string& name, std::size_t threads, Fn&& fn,
                   double min_seconds = 0.2) {
    const Timing timing = time(fn, min_seconds);
    return record(name, threads, timing.iterations, timing.ns_per_op());
  }

  /// Time `fn_a` and `fn_b` (one thread each) in `rounds` alternating
  /// rounds of min_seconds / rounds and record each one's fastest
  /// round. The two sides of a ratio then sample the same stretch of
  /// host load, and a noisy neighbour during one round cannot sink
  /// either side. Returns `name_b`'s result (recorded after `name_a`'s).
  template <typename FnA, typename FnB>
  BenchResult& run_interleaved(const std::string& name_a, FnA&& fn_a,
                               const std::string& name_b, FnB&& fn_b,
                               std::size_t rounds, double min_seconds) {
    Timing best_a;
    Timing best_b;
    std::size_t iterations_a = 0;
    std::size_t iterations_b = 0;
    for (std::size_t round = 0; round < rounds; ++round) {
      const double seconds = min_seconds / static_cast<double>(rounds);
      const Timing a = time(fn_a, seconds);
      const Timing b = time(fn_b, seconds);
      iterations_a += a.iterations;
      iterations_b += b.iterations;
      if (round == 0 || a.ns_per_op() < best_a.ns_per_op()) best_a = a;
      if (round == 0 || b.ns_per_op() < best_b.ns_per_op()) best_b = b;
    }
    record(name_a, 1, iterations_a, best_a.ns_per_op());
    return record(name_b, 1, iterations_b, best_b.ns_per_op());
  }

  [[nodiscard]] const std::vector<BenchResult>& results() const {
    return results_;
  }

  /// Look up a recorded result by name and thread count (nullptr if absent).
  [[nodiscard]] const BenchResult* find(const std::string& name,
                                        std::size_t threads) const {
    for (const auto& r : results_) {
      if (r.name == name && r.threads == threads) return &r;
    }
    return nullptr;
  }

  /// The whole suite as a JSON document.
  [[nodiscard]] std::string json() const {
    std::ostringstream os;
    os << "{\n  \"suite\": \"" << suite_ << "\",\n";
    if (!context_.empty()) {
      os << "  \"context\": {";
      for (std::size_t i = 0; i < context_.size(); ++i) {
        os << (i == 0 ? "" : ", ") << "\"" << context_[i].first << "\": \""
           << context_[i].second << "\"";
      }
      os << "},\n";
    }
    os << "  \"benchmarks\": [";
    for (std::size_t i = 0; i < results_.size(); ++i) {
      const auto& r = results_[i];
      os << (i == 0 ? "\n" : ",\n");
      os << "    {\"name\": \"" << r.name << "\", \"threads\": " << r.threads
         << ", \"iterations\": " << r.iterations
         << ", \"ns_per_op\": " << r.ns_per_op
         << ", \"ops_per_second\": " << r.ops_per_second;
      for (const auto& [key, value] : r.metrics) {
        os << ", \"" << key << "\": " << value;
      }
      os << "}";
    }
    os << "\n  ]\n}\n";
    return os.str();
  }

  void write_json(std::ostream& os) const { os << json(); }

  /// Write the JSON document to `path`; returns false on I/O failure.
  bool write_json_file(const std::string& path) const {
    std::ofstream file(path);
    if (!file) return false;
    file << json();
    return static_cast<bool>(file);
  }

 private:
  std::string suite_;
  std::vector<std::pair<std::string, std::string>> context_;
  /// Iterations and wall time of one timing window.
  struct Timing {
    std::size_t iterations = 0;
    double elapsed_s = 0.0;
    [[nodiscard]] double ns_per_op() const {
      return elapsed_s * 1e9 / static_cast<double>(iterations);
    }
  };

  template <typename Fn>
  static Timing time(Fn& fn, double min_seconds) {
    using clock = std::chrono::steady_clock;
    Timing timing;
    const auto start = clock::now();
    do {
      fn();
      ++timing.iterations;
      timing.elapsed_s =
          std::chrono::duration<double>(clock::now() - start).count();
    } while (timing.elapsed_s < min_seconds);
    return timing;
  }

  BenchResult& record(const std::string& name, std::size_t threads,
                      std::size_t iterations, double ns_per_op) {
    BenchResult result;
    result.name = name;
    result.threads = threads;
    result.iterations = iterations;
    result.ns_per_op = ns_per_op;
    result.ops_per_second = 1e9 / ns_per_op;
    results_.push_back(std::move(result));
    return results_.back();
  }

  std::vector<BenchResult> results_;
};

}  // namespace railcorr::bench
