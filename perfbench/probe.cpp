/// \file probe.cpp
/// \brief In-process helper of the end-to-end sweep benchmark (run.py).
///
///   perfbench_probe info
///       Run context as one JSON line: SIMD level, accuracy mode,
///       hardware threads, compiler.
///   perfbench_probe ref --plan P --out F [--include-sizing]
///       Reference document for the output check, made by a different
///       path than the CLI: core::run_sweep_shard at 1 thread over a
///       2-way shard split, merged with corridor::merge_shards.
///   perfbench_probe layers --plan P --ref F --threads T --trace-out F
///                          [--include-sizing]
///                          [--cache-dir D --prewarm-plan P0]
///                          [--merge-shards S]
///       Per-layer timings: replays up to 1000 cells (evenly spaced over
///       the grid, so p99 has ten samples beyond it) through the public
///       functions of core, corridor, rf and traffic (plus solar, cache
///       and merge where the workload uses them), each call wrapped in
///       an obs span recorded from this file only. Writes the trace to
///       --trace-out and prints one JSON line {"metrics":..,"info":..}.
///
/// Exit codes: 0 ok, 1 usage or I/O error, 2 a replayed row differs
/// from the reference.

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "cache/result_cache.hpp"
#include "core/evaluator.hpp"
#include "core/scenario_spec.hpp"
#include "core/sweep_runner.hpp"
#include "corridor/multi_segment.hpp"
#include "corridor/sweep.hpp"
#include "exec/parallel.hpp"
#include "obs/trace.hpp"
#include "traffic/duty.hpp"
#include "util/config.hpp"
#include "util/vmath.hpp"

namespace {

namespace core = railcorr::core;
namespace corridor = railcorr::corridor;
namespace obs = railcorr::obs;
using Clock = std::chrono::steady_clock;

constexpr std::size_t kMaxSampledCells = 1000;
/// Events per thread ring; a replay of 1000 cells records ~7000.
constexpr std::size_t kTraceRingCapacity = 1 << 16;

struct Args {
  std::map<std::string, std::string> values;
  std::set<std::string> flags;

  [[nodiscard]] const std::string& get(const std::string& key) const {
    const auto it = values.find(key);
    if (it == values.end()) throw std::runtime_error(key + " required");
    return it->second;
  }
  [[nodiscard]] bool has(const std::string& key) const {
    return values.count(key) != 0;
  }
};

Args parse_args(int argc, char** argv) {
  Args args;
  for (int i = 2; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--include-sizing") {
      args.flags.insert(arg);
    } else if (arg.starts_with("--") && i + 1 < argc) {
      args.values[arg] = argv[++i];
    } else {
      throw std::runtime_error("unexpected argument '" + arg + "'");
    }
  }
  return args;
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error("cannot read '" + path + "'");
  std::ostringstream text;
  text << in.rdbuf();
  return text.str();
}

void write_file(const std::string& path, const std::string& text) {
  std::ofstream out(path, std::ios::binary);
  out << text;
  if (!out) throw std::runtime_error("cannot write '" + path + "'");
}

std::vector<std::string> split(const std::string& text, char sep) {
  std::vector<std::string> parts;
  std::size_t start = 0;
  while (true) {
    const std::size_t end = text.find(sep, start);
    parts.push_back(text.substr(start, end - start));
    if (end == std::string::npos) break;
    start = end + 1;
  }
  return parts;
}

/// Rows of a reference document by grid index.
std::map<std::size_t, std::string> rows_by_index(const std::string& doc) {
  std::map<std::size_t, std::string> rows;
  const auto lines = split(doc, '\n');
  for (std::size_t i = 2; i < lines.size(); ++i) {
    if (lines[i].empty()) continue;
    rows[std::stoul(lines[i].substr(0, lines[i].find(',')))] = lines[i];
  }
  return rows;
}

/// A row without its last `n` comma-separated fields.
std::string drop_fields(const std::string& row, std::size_t n) {
  std::size_t end = row.size();
  for (std::size_t i = 0; i < n; ++i) end = row.rfind(',', end - 1);
  return row.substr(0, end);
}

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

/// Run `f` inside an obs span named `name`; returns its wall seconds.
template <class F>
double timed(const char* name, F&& f) {
  const obs::ObsSpan span(name, "perfbench");
  const auto start = Clock::now();
  f();
  return seconds_since(start);
}

double percentile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const auto rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(values.size())));
  return values[std::min(values.size() - 1, rank == 0 ? 0 : rank - 1)];
}

double sum(const std::vector<double>& values) {
  double total = 0.0;
  for (const double v : values) total += v;
  return total;
}

/// The canonical spec of the fields the ISD search reads: link,
/// throughput (through the capacity analyzer), radio, search settings,
/// repeater count and spacing. Two cells with equal keys run the
/// identical search.
std::string isd_search_key(const core::Scenario& scenario) {
  std::string key;
  for (const auto& line : split(core::to_spec(scenario), '\n')) {
    if (line.starts_with("link.") || line.starts_with("throughput.") ||
        line.starts_with("radio.") || line.starts_with("isd_search.") ||
        line.starts_with("max_repeaters ") ||
        line.starts_with("corridor.repeater_spacing_m ")) {
      key += line;
      key += '\n';
    }
  }
  return key;
}

/// The weather tuple solar::size_jobs groups by: location and every
/// sizing option except the ladder.
std::string weather_key(const core::Scenario& scenario,
                        const std::string& location) {
  std::string key = location + "\n";
  for (const auto& line : split(core::to_spec(scenario), '\n')) {
    if (line.starts_with("sizing.") && !line.starts_with("sizing.ladder ") &&
        !line.starts_with("sizing.locations ")) {
      key += line;
      key += '\n';
    }
  }
  return key;
}

std::string json_number(double value) {
  char buffer[64];
  std::snprintf(buffer, sizeof buffer, "%.9g", value);
  return buffer;
}

#if defined(__clang__)
constexpr const char* kCompiler = "clang " __clang_version__;
#elif defined(__GNUC__)
constexpr const char* kCompiler = "gcc " __VERSION__;
#else
constexpr const char* kCompiler = "unknown";
#endif

int cmd_info() {
  std::cout << "{\"simd\": \""
            << railcorr::vmath::simd_level_name(
                   railcorr::vmath::active_simd_level())
            << "\", \"accuracy\": \""
            << railcorr::vmath::accuracy_mode_name(
                   railcorr::vmath::active_accuracy_mode())
            << "\", \"nproc\": " << railcorr::exec::hardware_thread_count()
            << ", \"compiler\": \"" << kCompiler << "\"}\n";
  return 0;
}

int cmd_ref(const Args& args) {
  const auto plan = corridor::SweepPlan::from_spec(read_file(args.get("--plan")));
  core::SweepRunOptions options;
  options.include_sizing = args.flags.count("--include-sizing") != 0;
  railcorr::exec::set_default_thread_count(1);
  std::vector<std::string> shards;
  for (std::size_t k = 0; k < 2; ++k) {
    shards.push_back(
        core::run_sweep_shard(plan, corridor::ShardSpec{k, 2}, options));
  }
  const auto merged = corridor::merge_shards(shards);
  if (!merged.ok) {
    for (const auto& error : merged.errors) std::cerr << error << "\n";
    return 2;
  }
  write_file(args.get("--out"), merged.merged);
  return 0;
}

/// One replayed cell's stage timings [s].
struct CellTimes {
  double cell = 0.0;
  double scenario = 0.0;
  double isd = 0.0;
  double energy = 0.0;
  double duty = 0.0;
  double multi = 0.0;
  bool multi_ran = false;
  double min_snr = 0.0;
  double track_samples = 0.0;
};

CellTimes replay_cell(const corridor::SweepPlan& plan, std::size_t index,
                      const core::SweepRunOptions& options) {
  CellTimes t;
  t.cell = timed("cell", [&] {
    const std::string row = core::evaluate_sweep_cell(plan, index, options);
    (void)row;
  });
  core::Scenario scenario;
  t.scenario = timed("scenario_at",
                     [&] { scenario = core::scenario_at(plan, index); });
  const core::PaperEvaluator evaluator(scenario);
  std::vector<corridor::MaxIsdResult> sweep;
  t.isd = timed("isd_search", [&] { sweep = evaluator.max_isd_sweep(); });

  corridor::SegmentGeometry geometry;
  geometry.repeater_spacing_m = scenario.repeater_spacing_m;
  for (auto it = sweep.rbegin(); it != sweep.rend(); ++it) {
    if (it->max_isd_m.has_value()) {
      geometry.repeater_count = it->repeater_count;
      geometry.isd_m = *it->max_isd_m;
      break;
    }
  }
  const bool deployed = geometry.repeater_count > 0;

  // Every timed result feeds a sink the probe inspects, so no timed
  // call's result is dead.
  double sink = 0.0;
  t.energy = timed("energy", [&] {
    const auto model = scenario.make_energy_model();
    sink += model.conventional_baseline().mains_wh_per_km_hour().value();
    if (deployed) {
      for (const auto mode : {corridor::RepeaterOperationMode::kContinuous,
                              corridor::RepeaterOperationMode::kSleepMode,
                              corridor::RepeaterOperationMode::kSolarPowered}) {
        sink += model.evaluate(geometry, mode).mains_wh_per_km_hour().value();
      }
    }
  });
  t.duty = timed("duty", [&] {
    if (deployed) {
      sink +=
          railcorr::traffic::full_load_fraction(scenario.timetable, geometry.isd_m);
    }
    sink += railcorr::traffic::average_unit_power(
                       scenario.energy.lp_node, scenario.timetable,
                       scenario.repeater_spacing_m, /*sleep_when_idle=*/true)
                       .value();
  });
  if (deployed && scenario.corridor_segments > 1) {
    t.multi_ran = true;
    corridor::SegmentDeployment segment;
    segment.geometry = geometry;
    segment.radio = scenario.radio;
    t.multi = timed("multi_segment", [&] {
      const corridor::MultiSegmentAnalyzer analyzer(
          scenario.link, scenario.isd_search.sample_step_m);
      const auto per_segment = analyzer.per_segment(
          corridor::CorridorDeployment::repeat(segment,
                                               scenario.corridor_segments));
      sink += per_segment.front().min_snr.value();
    });
  }
  if (deployed) {
    corridor::SegmentDeployment deployment;
    deployment.geometry = geometry;
    deployment.radio = scenario.radio;
    const auto model = scenario.make_analyzer().link_model(deployment);
    const double step = scenario.isd_search.sample_step_m;
    t.min_snr = timed("min_snr", [&] {
      sink += model.min_snr(0.0, geometry.isd_m, step).value();
    });
    t.track_samples = (std::floor(geometry.isd_m / step + 1e-9) + 1.0) *
                      static_cast<double>(model.transmitters().size());
  }
  if (!std::isfinite(sink)) std::cerr << "probe: non-finite stage\n";
  return t;
}

int cmd_layers(const Args& args) {
  const auto plan = corridor::SweepPlan::from_spec(read_file(args.get("--plan")));
  const std::string reference = read_file(args.get("--ref"));
  const auto ref_rows = rows_by_index(reference);
  const bool sizing = args.flags.count("--include-sizing") != 0;
  const std::size_t threads = std::stoul(args.get("--threads"));
  const std::size_t cells = plan.size();
  const std::size_t sample = std::min(cells, kMaxSampledCells);
  railcorr::exec::set_default_thread_count(threads);

  std::vector<std::size_t> indices;
  for (std::size_t j = 0; j < sample; ++j) indices.push_back(j * cells / sample);

  // Rows are checked against the reference; the cell timing runs
  // without the per-cell sizing path (the sweep sizes a whole shard in
  // one batch), so the sizing columns are compared separately below.
  core::SweepRunOptions cell_options;
  std::size_t checked = 0;
  std::size_t mismatches = 0;
  const auto check_row = [&](std::size_t index, const std::string& row) {
    ++checked;
    const auto it = ref_rows.find(index);
    if (it == ref_rows.end() || drop_fields(it->second, sizing ? 2 : 0) != row) {
      ++mismatches;
    }
  };

  // The cells with the recorder off, once before and once after the
  // traced replay (which cancels a linear drift in machine speed), for
  // the tracing overhead.
  const auto untraced_pass = [&] {
    double seconds = 0.0;
    for (const std::size_t index : indices) {
      const auto start = Clock::now();
      const std::string row = core::evaluate_sweep_cell(plan, index, cell_options);
      seconds += seconds_since(start);
      check_row(index, row);
    }
    return seconds;
  };
  // Each enable() starts a fresh recording, so the cell replay and the
  // other layer probes are two recordings, merged into two trace lanes.
  auto& recorder = obs::TraceRecorder::instance();
  std::vector<obs::TraceInput> lanes;
  std::size_t trace_dropped = 0;
  const auto end_recording = [&](const char* label) {
    recorder.disable();
    lanes.push_back({label, obs::parse_trace(recorder.serialize())});
    trace_dropped += recorder.dropped();
  };

  double untraced_s = untraced_pass();
  recorder.enable(kTraceRingCapacity);
  std::vector<CellTimes> times;
  for (const std::size_t index : indices) {
    times.push_back(replay_cell(plan, index, cell_options));
  }
  end_recording("cells");
  untraced_s = (untraced_s + untraced_pass()) / 2.0;
  recorder.enable(kTraceRingCapacity);
  std::vector<double> cell_s, scenario_s, isd_s, energy_s, duty_s, multi_s,
      min_snr_s;
  double track_samples = 0.0;
  for (const auto& t : times) {
    cell_s.push_back(t.cell);
    scenario_s.push_back(t.scenario);
    isd_s.push_back(t.isd);
    energy_s.push_back(t.energy);
    duty_s.push_back(t.duty);
    if (t.multi_ran) multi_s.push_back(t.multi);
    if (t.track_samples > 0) {
      min_snr_s.push_back(t.min_snr);
      track_samples += t.track_samples;
    }
  }
  const double cell_total = sum(cell_s);
  const double attributed = sum(scenario_s) + sum(isd_s) + sum(energy_s) +
                            sum(duty_s) + sum(multi_s);

  std::map<std::string, double> m;
  m["core.cells"] = static_cast<double>(times.size());
  m["core.cell_ms_p50"] = 1e3 * percentile(cell_s, 0.50);
  m["core.cell_ms_p99"] = 1e3 * percentile(cell_s, 0.99);
  m["core.scenario_at_us"] = 1e6 * percentile(scenario_s, 0.50);
  m["core.unattributed_share"] = 1.0 - attributed / cell_total;
  m["corridor.isd_search_ms"] = 1e3 * percentile(isd_s, 0.50);
  m["corridor.isd_search_share"] = sum(isd_s) / cell_total;
  m["corridor.energy_us"] = 1e6 * percentile(energy_s, 0.50);
  m["corridor.multi_segment_ms"] = 1e3 * percentile(multi_s, 0.50);
  m["corridor.multi_segment_share"] = sum(multi_s) / cell_total;
  m["rf.min_snr_us"] = 1e6 * percentile(min_snr_s, 0.50);
  m["rf.track_samples_per_s"] =
      min_snr_s.empty() ? 0.0 : track_samples / sum(min_snr_s);
  m["traffic.duty_us"] = 1e6 * percentile(duty_s, 0.50);

  // The property a per-input memo of the ISD search would exploit.
  {
    std::set<std::string> distinct;
    for (std::size_t i = 0; i < cells; ++i) {
      distinct.insert(isd_search_key(core::scenario_at(plan, i)));
    }
    m["corridor.isd_search_repeat_ratio"] =
        1.0 - static_cast<double>(distinct.size()) / static_cast<double>(cells);
  }

  // Thread scaling of the ISD search on a fixed sample of cells.
  {
    std::vector<core::Scenario> scenarios;
    for (std::size_t j = 0; j < std::min<std::size_t>(8, indices.size()); ++j) {
      scenarios.push_back(core::scenario_at(plan, indices[j]));
    }
    const auto search_all = [&](std::size_t n, const char* name) {
      railcorr::exec::set_default_thread_count(n);
      return timed(name, [&] {
        for (const auto& scenario : scenarios) {
          const auto sweep = core::PaperEvaluator(scenario).max_isd_sweep();
          if (sweep.empty()) std::cerr << "probe: empty sweep\n";
        }
      });
    };
    const double t1 = search_all(1, "isd_search_1t");
    const double t4 = search_all(4, "isd_search_4t");
    railcorr::exec::set_default_thread_count(threads);
    m["exec.isd_search_speedup_4t"] = t1 / t4;
    m["exec.scaling_eff_4t"] = t1 / t4 / 4.0;
  }

  // Off-grid sizing: the shard-wide batch the sweep runs, over every
  // cell of the plan (one shard).
  m["solar.jobs"] = 0;
  m["solar.weather_tuples"] = 0;
  m["solar.size_jobs_s"] = 0;
  m["solar.size_jobs_share"] = 0;
  if (sizing) {
    std::vector<railcorr::solar::SizingJob> jobs;
    std::set<std::string> tuples;
    for (std::size_t i = 0; i < cells; ++i) {
      const core::Scenario scenario = core::scenario_at(plan, i);
      for (const auto& location : scenario.sizing_locations) {
        tuples.insert(weather_key(scenario, location.name));
      }
      jobs.push_back(railcorr::solar::SizingJob{
          scenario.sizing_locations, scenario.repeater_consumption_profile(),
          scenario.sizing, scenario.sizing_ladder});
    }
    std::vector<std::vector<railcorr::solar::SizingResult>> sized;
    const double size_s =
        timed("size_jobs", [&] { sized = railcorr::solar::size_jobs(jobs); });
    for (std::size_t i = 0; i < cells; ++i) {
      double pv_wp = 0.0;
      int exhausted = 0;
      for (const auto& result : sized[i]) {
        pv_wp += result.chosen.pv_wp;
        if (result.ladder_exhausted) ++exhausted;
      }
      const auto it = ref_rows.find(i);
      const std::string tail = "," + railcorr::util::format_double(pv_wp) +
                               "," + railcorr::util::format_int(exhausted);
      ++checked;
      if (it == ref_rows.end() || !it->second.ends_with(tail)) ++mismatches;
    }
    const double cells_s =
        cell_total / static_cast<double>(times.size()) * static_cast<double>(cells);
    m["solar.jobs"] = static_cast<double>(jobs.size());
    m["solar.weather_tuples"] = static_cast<double>(tuples.size());
    m["solar.size_jobs_s"] = size_s;
    m["solar.size_jobs_share"] = size_s / (size_s + cells_s);
  }

  // Result cache: the lookups, inserts and flush one sweep process
  // makes over the whole plan against the (restored) store.
  for (const char* key : {"cache.open_ms", "cache.lookup_us", "cache.insert_us",
                          "cache.flush_ms", "cache.hit_ratio",
                          "cache.reusable_ratio", "cache.store_bytes"}) {
    m[key] = 0;
  }
  if (args.has("--cache-dir")) {
    core::SweepRunOptions options;
    options.include_sizing = sizing;
    const std::string banner = corridor::shard_banner(plan);
    const std::string header =
        corridor::shard_header(plan, core::sweep_metric_columns(options));
    railcorr::cache::ResultCache store;
    railcorr::cache::ResultCache::Options store_options;
    store_options.dir = args.get("--cache-dir");
    std::string error;
    bool opened = false;
    m["cache.open_ms"] =
        1e3 * timed("cache_open", [&] { opened = store.open(store_options, &error); });
    if (!opened) throw std::runtime_error("cache open: " + error);
    std::vector<std::size_t> missed;
    const double lookup_s = timed("cache_lookup", [&] {
      for (std::size_t i = 0; i < cells; ++i) {
        if (!store.lookup(railcorr::cache::cell_key(banner, i, header))) {
          missed.push_back(i);
        }
      }
    });
    const double insert_s = timed("cache_insert", [&] {
      for (const std::size_t i : missed) {
        store.insert(railcorr::cache::cell_key(banner, i, header), ref_rows.at(i));
      }
    });
    m["cache.flush_ms"] = 1e3 * timed("cache_flush", [&] { store.flush(); });
    const auto& stats = store.stats();
    m["cache.lookup_us"] = 1e6 * lookup_s / static_cast<double>(cells);
    m["cache.insert_us"] =
        missed.empty() ? 0.0 : 1e6 * insert_s / static_cast<double>(missed.size());
    m["cache.hit_ratio"] = static_cast<double>(stats.hits) /
                           static_cast<double>(stats.hits + stats.misses);
    m["cache.store_bytes"] = static_cast<double>(
        railcorr::cache::scan_dir(store_options.dir, false).bytes);
    if (args.has("--prewarm-plan")) {
      const auto prewarm = corridor::SweepPlan::from_spec(
          read_file(args.get("--prewarm-plan")));
      std::set<std::vector<std::string>> computed;
      for (std::size_t i = 0; i < prewarm.size(); ++i) {
        computed.insert(prewarm.axis_values_at(i));
      }
      std::size_t reusable = 0;
      for (std::size_t i = 0; i < cells; ++i) {
        reusable += computed.count(plan.axis_values_at(i));
      }
      m["cache.reusable_ratio"] =
          static_cast<double>(reusable) / static_cast<double>(cells);
    }
  }

  // Shard merge: the reference rows split the way a fleet of
  // --merge-shards shards would write them, merged back.
  m["corridor.merge_ms"] = 0;
  const std::size_t merge_shards =
      args.has("--merge-shards") ? std::stoul(args.get("--merge-shards")) : 0;
  if (merge_shards > 1) {
    const auto head = split(reference, '\n');
    std::vector<std::string> documents(merge_shards, head[0] + "\n" + head[1] + "\n");
    for (const auto& [index, row] : ref_rows) {
      documents[index % merge_shards] += row + "\n";
    }
    std::vector<double> merge_s;
    for (int rep = 0; rep < 5; ++rep) {
      corridor::MergeResult merged;
      merge_s.push_back(timed("merge_shards", [&] {
        merged = corridor::merge_shards(documents);
      }));
      ++checked;
      if (!merged.ok || merged.merged != reference) ++mismatches;
    }
    m["corridor.merge_ms"] = 1e3 * percentile(merge_s, 0.50);
  }

  end_recording("layer probes");
  write_file(args.get("--trace-out"), obs::merge_traces(lanes));

  double traced_cells = 0.0;
  for (const auto& t : times) traced_cells += t.cell;
  std::cout << "{\"metrics\": {";
  bool first = true;
  for (const auto& [name, value] : m) {
    std::cout << (first ? "" : ", ") << "\"" << name
              << "\": " << json_number(value);
    first = false;
  }
  std::cout << "}, \"info\": {\"checked\": " << checked
            << ", \"mismatches\": " << mismatches
            << ", \"untraced_cells_s\": " << json_number(untraced_s)
            << ", \"traced_cells_s\": " << json_number(traced_cells)
            << ", \"trace_dropped\": " << trace_dropped << "}}\n";
  return mismatches == 0 ? 0 : 2;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const std::string verb = argc > 1 ? argv[1] : "";
    const Args args = parse_args(argc, argv);
    if (verb == "info") return cmd_info();
    if (verb == "ref") return cmd_ref(args);
    if (verb == "layers") return cmd_layers(args);
    std::cerr << "usage: perfbench_probe info|ref|layers [options]\n";
    return 1;
  } catch (const std::exception& error) {
    std::cerr << "perfbench_probe: " << error.what() << "\n";
    return 1;
  }
}
