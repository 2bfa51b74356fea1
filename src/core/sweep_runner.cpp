#include "core/sweep_runner.hpp"

#include <algorithm>
#include <new>
#include <optional>
#include <string_view>
#include <unordered_map>

#include "core/evaluator.hpp"
#include "exec/parallel.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "core/scenario_registry.hpp"
#include "core/scenario_spec.hpp"
#include "corridor/multi_segment.hpp"
#include "traffic/duty.hpp"
#include "util/config.hpp"

namespace railcorr::core {

namespace {

/// Headline quantities of one scenario, reduced from the evaluator's
/// deterministic paths.
struct CellMetrics {
  int max_n = 0;
  double max_isd_m = 0.0;
  double min_snr_at_max_db = 0.0;
  double corridor_min_snr_db = 0.0;
  double baseline_wh_km_h = 0.0;
  double continuous_wh_km_h = 0.0;
  double sleep_wh_km_h = 0.0;
  double solar_wh_km_h = 0.0;
  double sleep_savings = 0.0;
  double solar_savings = 0.0;
  double duty_at_max_isd = 0.0;
  double lp_sleep_avg_w = 0.0;
  // Only populated with SweepRunOptions::include_sizing.
  double sized_pv_wp_total = 0.0;
  int ladder_exhausted = 0;
};

/// Per-call memo of a cell's heavy stages. Each result is keyed by the
/// full stage_spec text of the fields its stage reads, never by a bare
/// hash: a collision would hand a cell another input's result and emit
/// a silently wrong row. One memo lives for one run_sweep_shard call,
/// so the accuracy mode and SIMD level are constant over its lifetime.
class StageMemo {
 public:
  /// Index of the scenario's ISD search in `searches`, which holds the
  /// grid index of the first cell needing each distinct search (the
  /// search's scenario is rebuilt from it), appended on first sight.
  std::size_t isd_search_index(const Scenario& scenario, std::size_t cell,
                               std::vector<std::size_t>& searches) {
    return lookup(isd_searches_, stage_spec(scenario, Stage::kIsdSearch),
                  [&] {
                    searches.push_back(cell);
                    return searches.size() - 1;
                  });
  }

  double corridor_min_snr(const Scenario& scenario,
                          const DeepestDeployment& deployment) {
    // The stage also reads the ISD search's result.
    std::string key = stage_spec(scenario, Stage::kMultiSegment);
    key += "@deployment ";
    key += util::format_int(deployment.repeater_count);
    key += ' ';
    key += util::format_double(deployment.isd_m);
    return lookup(corridor_min_snr_, std::move(key),
                  [&] { return corridor_min_snr_db(scenario, deployment); });
  }

  /// Index of the scenario's sizing job in `jobs`, appended on first
  /// sight, so identical jobs are simulated once.
  std::size_t sizing_job_index(const Scenario& scenario,
                               std::vector<solar::SizingJob>& jobs) {
    return lookup(sizing_, stage_spec(scenario, Stage::kSizing), [&] {
      jobs.push_back(sizing_job(scenario));
      return jobs.size() - 1;
    });
  }

 private:
  template <class T, class Compute>
  T lookup(std::unordered_map<std::string, T>& memo, std::string key,
           Compute&& compute) {
    if (const auto it = memo.find(key); it != memo.end()) {
      hits_.add();
      return it->second;
    }
    misses_.add();
    return memo.emplace(std::move(key), compute()).first->second;
  }

  obs::Counter& hits_ =
      obs::MetricsRegistry::instance().counter("sweep.stage_memo_hits");
  obs::Counter& misses_ =
      obs::MetricsRegistry::instance().counter("sweep.stage_memo_misses");
  std::unordered_map<std::string, std::size_t> isd_searches_;
  std::unordered_map<std::string, double> corridor_min_snr_;
  std::unordered_map<std::string, std::size_t> sizing_;
};

/// The row's metrics from the cell's ISD-search result. Without a memo
/// every other stage is computed here (the per-cell oracle); with one,
/// the heavy stages come from it.
CellMetrics evaluate_metrics(const Scenario& scenario,
                             const DeepestDeployment& deepest,
                             const SweepRunOptions& options,
                             const std::vector<solar::SizingResult>* sized,
                             StageMemo* memo) {
  CellMetrics m;
  m.max_n = deepest.repeater_count;
  m.max_isd_m = deepest.isd_m;
  m.min_snr_at_max_db = deepest.min_snr_db;

  const auto energy_model = scenario.make_energy_model();
  const auto baseline = energy_model.conventional_baseline();
  m.baseline_wh_km_h = baseline.mains_wh_per_km_hour().value();

  if (m.max_n > 0) {
    corridor::SegmentGeometry geometry;
    geometry.isd_m = m.max_isd_m;
    geometry.repeater_count = m.max_n;
    geometry.repeater_spacing_m = scenario.repeater_spacing_m;
    const auto continuous = energy_model.evaluate(
        geometry, corridor::RepeaterOperationMode::kContinuous);
    const auto sleep = energy_model.evaluate(
        geometry, corridor::RepeaterOperationMode::kSleepMode);
    const auto solar = energy_model.evaluate(
        geometry, corridor::RepeaterOperationMode::kSolarPowered);
    m.continuous_wh_km_h = continuous.mains_wh_per_km_hour().value();
    m.sleep_wh_km_h = sleep.mains_wh_per_km_hour().value();
    m.solar_wh_km_h = solar.mains_wh_per_km_hour().value();
    m.sleep_savings = sleep.savings_vs(baseline);
    m.solar_savings = solar.savings_vs(baseline);
    m.duty_at_max_isd =
        traffic::full_load_fraction(scenario.timetable, m.max_isd_m);

    // Whole-corridor worst case with every neighbour contributing;
    // equals the single-segment minimum when corridor.segments == 1.
    if (scenario.corridor_segments > 1) {
      m.corridor_min_snr_db =
          memo != nullptr ? memo->corridor_min_snr(scenario, deepest)
                          : corridor_min_snr_db(scenario, deepest);
    } else {
      m.corridor_min_snr_db = m.min_snr_at_max_db;
    }
  }

  m.lp_sleep_avg_w =
      traffic::average_unit_power(scenario.energy.lp_node, scenario.timetable,
                                  scenario.repeater_spacing_m,
                                  /*sleep_when_idle=*/true)
          .value();

  if (options.include_sizing) {
    // A caller-provided sizing result (the shard runner's batched
    // simulation) is bit-identical to the per-cell evaluator path, so
    // the reduced columns cannot depend on which route produced it.
    const auto results = sized != nullptr
                             ? *sized
                             : PaperEvaluator(scenario).table4_sizing();
    for (const auto& result : results) {
      m.sized_pv_wp_total += result.chosen.pv_wp;
      if (result.ladder_exhausted) ++m.ladder_exhausted;
    }
  }
  return m;
}

/// Render one cell row from an already-built scenario and its ISD-search
/// result (and, for sizing runs, pre-computed sizing results).
std::string render_row(const corridor::SweepPlan& plan, std::size_t index,
                       const Scenario& scenario,
                       const DeepestDeployment& deepest,
                       const SweepRunOptions& options,
                       const std::vector<solar::SizingResult>* sized,
                       StageMemo* memo) {
  const CellMetrics m =
      evaluate_metrics(scenario, deepest, options, sized, memo);

  std::string row = util::format_u64(index);
  const auto field = [&row](const std::string& value) {
    row += ',';
    row += value;
  };
  // Axis values verbatim from the plan: the row echoes the cell's
  // coordinates exactly as declared, independent of field formatting.
  for (const auto& value : plan.axis_values_at(index)) field(value);

  field(util::format_int(m.max_n));
  field(util::format_double(m.max_isd_m));
  field(util::format_double(m.min_snr_at_max_db));
  field(util::format_double(m.corridor_min_snr_db));
  field(util::format_double(m.baseline_wh_km_h));
  field(util::format_double(m.continuous_wh_km_h));
  field(util::format_double(m.sleep_wh_km_h));
  field(util::format_double(m.solar_wh_km_h));
  field(util::format_double(m.sleep_savings));
  field(util::format_double(m.solar_savings));
  field(util::format_double(m.duty_at_max_isd));
  field(util::format_double(m.lp_sleep_avg_w));
  if (options.include_sizing) {
    field(util::format_double(m.sized_pv_wp_total));
    field(util::format_int(m.ladder_exhausted));
  }
  return row;
}

/// Cells one shard may own. Each owned cell keeps its index and
/// bookkeeping (~64 bytes) and its row text (~100+ bytes) in memory
/// until the document returns, so a shard at this cap already needs
/// hundreds of GB: the cap refuses, before allocating anything, shards
/// no machine holds. It is an upper bound, not a promise that a smaller
/// shard fits; one whose index list fails to allocate is refused too.
constexpr std::size_t kMaxShardCells = std::size_t{1} << 32;

/// The shard's ascending owned indices, or a ConfigError naming the
/// grid and the shard's cell count when they cannot be held.
std::vector<std::size_t> owned_indices(const corridor::SweepPlan& plan,
                                       corridor::ShardSpec shard) {
  const std::size_t grid = plan.size();
  const std::size_t owned = shard.cell_count(grid);
  const auto too_large = [&](const std::string& split) {
    return util::ConfigError(
        "the plan's grid has " + std::to_string(grid) + " cells and shard " +
        std::to_string(shard.index) + "/" + std::to_string(shard.count) +
        " owns " + std::to_string(owned) +
        " of them, more than one process can hold; split the grid " + split);
  };
  if (owned > kMaxShardCells) {
    // The fewest shards that bring every shard under the cap.
    throw too_large("with --shard i/N, N >= " +
                    std::to_string((grid - 1) / kMaxShardCells + 1));
  }
  try {
    return shard.indices(grid);
  } catch (const std::bad_alloc&) {
    // How many shards would fit depends on this machine's memory, which
    // the allocation failure does not measure: name no number.
    throw too_large("into more shards with --shard i/N");
  }
}

}  // namespace

DeepestDeployment deepest_deployment(const Scenario& scenario) {
  const auto sweep = PaperEvaluator(scenario).max_isd_sweep();
  for (auto it = sweep.rbegin(); it != sweep.rend(); ++it) {
    if (it->max_isd_m.has_value()) {
      return {it->repeater_count, *it->max_isd_m, it->min_snr_at_max.value()};
    }
  }
  return {};
}

double corridor_min_snr_db(const Scenario& scenario,
                           const DeepestDeployment& deployment) {
  corridor::SegmentDeployment segment;
  segment.geometry.isd_m = deployment.isd_m;
  segment.geometry.repeater_count = deployment.repeater_count;
  segment.geometry.repeater_spacing_m = scenario.repeater_spacing_m;
  segment.radio = scenario.radio;
  const corridor::MultiSegmentAnalyzer analyzer(
      scenario.link, scenario.isd_search.sample_step_m);
  const auto per_segment = analyzer.per_segment(
      corridor::CorridorDeployment::repeat(segment,
                                           scenario.corridor_segments));
  double worst = per_segment.front().min_snr.value();
  for (const auto& seg : per_segment) {
    worst = std::min(worst, seg.min_snr.value());
  }
  return worst;
}

solar::SizingJob sizing_job(const Scenario& scenario) {
  return solar::SizingJob{scenario.sizing_locations,
                          scenario.repeater_consumption_profile(),
                          scenario.sizing, scenario.sizing_ladder};
}

std::vector<std::string> sweep_metric_columns(const SweepRunOptions& options) {
  std::vector<std::string> columns = {
      "max_n",           "max_isd_m",         "min_snr_at_max_db",
      "corridor_min_snr_db", "baseline_wh_km_h", "continuous_wh_km_h",
      "sleep_wh_km_h",   "solar_wh_km_h",     "sleep_savings",
      "solar_savings",   "duty_at_max_isd",   "lp_sleep_avg_w",
  };
  if (options.include_sizing) {
    columns.emplace_back("sized_pv_wp_total");
    columns.emplace_back("ladder_exhausted");
  }
  return columns;
}

Scenario scenario_at(const corridor::SweepPlan& plan, std::size_t index) {
  Scenario scenario = make_scenario(plan.base);
  for (const auto& entry : plan.overrides_at(index)) {
    apply_override(scenario, entry);
  }
  return scenario;
}

std::string evaluate_sweep_cell(const corridor::SweepPlan& plan,
                                std::size_t index,
                                const SweepRunOptions& options) {
  const Scenario scenario = scenario_at(plan, index);
  return render_row(plan, index, scenario, deepest_deployment(scenario),
                    options, nullptr, nullptr);
}

std::string run_sweep_shard(const corridor::SweepPlan& plan,
                            corridor::ShardSpec shard,
                            const SweepRunOptions& options) {
  const std::string banner = corridor::shard_banner(plan);
  const std::string header =
      corridor::shard_header(plan, sweep_metric_columns(options));
  std::string document = banner + "\n" + header + "\n";
  const auto indices = owned_indices(plan, shard);

  // Telemetry is observation only: timing wraps rows that are already
  // (or about to be) rendered by the unchanged evaluation paths, so
  // traced and untraced runs emit byte-identical documents. Per-cell
  // clocks are read only when someone consumes them (a progress
  // callback or an enabled metrics registry).
  auto& metrics = obs::MetricsRegistry::instance();
  static obs::Counter& cells_counter = metrics.counter("sweep.cells");
  static obs::Counter& cached_counter = metrics.counter("sweep.cells_cached");
  static obs::Histogram& cell_hist = metrics.histogram("sweep.cell_usec");
  const bool timed = static_cast<bool>(options.progress) || metrics.enabled();
  const auto cell_usec = [timed](std::uint64_t start) -> std::uint64_t {
    if (!timed) return 0;
    const std::uint64_t now = obs::usec_now();
    return now >= start ? now - start : 0;
  };
  const obs::ObsSpan shard_span("shard", "sweep", "cells", indices.size());

  // The cache key covers everything a row's bytes depend on: the
  // banner (plan fingerprint + grid + accuracy tag), the cell index,
  // and the header (column set). A hit therefore IS the row a cold
  // evaluation would render, byte for byte.
  cache::ResultCache* cache =
      options.cache != nullptr && options.cache->is_open() ? options.cache
                                                           : nullptr;
  const std::vector<std::uint64_t> keys =
      cache != nullptr ? cache::cell_keys(banner, indices, header)
                       : std::vector<std::uint64_t>{};

  // Cache hits are resolved first (each key looked up once; the views
  // live as long as the cache), so only missed cells feed the batches
  // below.
  std::vector<std::optional<std::string_view>> hits(indices.size());
  std::vector<std::uint64_t> usecs(indices.size(), 0);
  std::vector<std::size_t> missed;
  missed.reserve(indices.size());
  for (std::size_t i = 0; i < indices.size(); ++i) {
    if (cache == nullptr) {
      missed.push_back(i);
      continue;
    }
    const std::uint64_t start = timed ? obs::usec_now() : 0;
    hits[i] = cache->lookup(keys[i]);
    if (hits[i].has_value()) {
      usecs[i] = cell_usec(start);
      cached_counter.add();
    } else {
      missed.push_back(i);
    }
  }

  // Cells of this call that share a stage's inputs share its result.
  // The heavy stages run as shard-wide batches before any row renders:
  // every distinct ISD search (one per distinct stage_spec text) in one
  // parallel region across the thread pool, each search's own per-N
  // region running inline inside it, and with include_sizing every
  // distinct sizing job in one size_jobs call, which synthesizes each
  // distinct weather tuple once and steps all systems through it in
  // batches. Both are bit-identical to the per-cell evaluator path, so
  // the emitted rows are byte-identical to evaluate_sweep_cell's (the
  // merge contract does not see the batching). Only the first cell of
  // each distinct search keeps a trace here (its grid index): scenarios
  // are rebuilt where needed, never held per cell.
  StageMemo memo;
  std::vector<std::size_t> searches;
  std::vector<std::size_t> search_of;  // per missed cell, into `searches`
  std::vector<solar::SizingJob> jobs;
  std::vector<std::size_t> job_of;     // per missed cell, into `jobs`
  search_of.reserve(missed.size());
  if (options.include_sizing) job_of.reserve(missed.size());
  for (const std::size_t i : missed) {
    const Scenario scenario = scenario_at(plan, indices[i]);
    search_of.push_back(memo.isd_search_index(scenario, indices[i], searches));
    if (options.include_sizing) {
      job_of.push_back(memo.sizing_job_index(scenario, jobs));
    }
  }
  // Each batch is shared across cells, so it gets its own span rather
  // than being smeared into per-cell figures.
  const auto deepest = [&] {
    const obs::ObsSpan batch_span("isd_batch", "sweep", "searches",
                                  searches.size());
    return exec::parallel_map(searches.size(), [&](std::size_t k) {
      return deepest_deployment(scenario_at(plan, searches[k]));
    });
  }();
  const auto sized = [&]() -> std::vector<std::vector<solar::SizingResult>> {
    if (!options.include_sizing) return {};
    const obs::ObsSpan batch_span("sizing_batch", "sweep", "jobs",
                                  jobs.size());
    return solar::size_jobs(jobs);
  }();

  // Rows render sequentially in index order, so the document is
  // trivially ordered and progress follows the rows.
  std::size_t next_missed = 0;
  for (std::size_t i = 0; i < indices.size(); ++i) {
    const std::size_t index = indices[i];
    if (hits[i].has_value()) {
      document += *hits[i];
    } else {
      const std::size_t j = next_missed++;
      const std::uint64_t start = timed ? obs::usec_now() : 0;
      std::string row;
      {
        const obs::ObsSpan span("cell", "sweep", "index", index);
        row = render_row(plan, index, scenario_at(plan, index),
                         deepest[search_of[j]], options,
                         options.include_sizing ? &sized[job_of[j]] : nullptr,
                         &memo);
      }
      usecs[i] = cell_usec(start);
      if (cache != nullptr) cache->insert(keys[i], row);
      document += row;
    }
    document += '\n';
    cells_counter.add();
    if (metrics.enabled()) cell_hist.record(usecs[i]);
    if (options.progress) {
      options.progress(index, i + 1, indices.size(), usecs[i]);
    }
  }
  if (cache != nullptr) cache->flush();
  return document;
}

}  // namespace railcorr::core
