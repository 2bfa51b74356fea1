/// The sweep runner's cross-process determinism contract: rows are pure
/// functions of (plan, index), shards merge back to the single-process
/// document byte for byte, and cells materialize the right scenarios.
#include "core/sweep_runner.hpp"

#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <filesystem>
#include <string>

#include "exec/parallel.hpp"
#include "obs/metrics.hpp"

namespace railcorr::core {
namespace {

/// A grid that evaluates in milliseconds: shallow repeater sweep and
/// coarse search steps.
corridor::SweepPlan tiny_plan() {
  return corridor::SweepPlan::from_spec(
      "base = paper\n"
      "set max_repeaters = 2\n"
      "set isd_search.isd_step_m = 100\n"
      "set isd_search.sample_step_m = 50\n"
      "axis radio.lp_eirp_dbm = 37, 40\n"
      "axis timetable.trains_per_hour = 8, 12\n");
}

TEST(SweepRunner, ScenarioAtAppliesBaseFixedAndAxes) {
  const auto plan = tiny_plan();
  const Scenario cell3 = scenario_at(plan, 3);  // (40 dBm, 12 trains/h)
  EXPECT_EQ(cell3.max_repeaters, 2);
  EXPECT_DOUBLE_EQ(cell3.isd_search.isd_step_m, 100.0);
  EXPECT_DOUBLE_EQ(cell3.radio.lp_eirp.value(), 40.0);
  EXPECT_DOUBLE_EQ(cell3.timetable.trains_per_hour, 12.0);
}

TEST(SweepRunner, RowsArePureFunctionsOfPlanAndIndex) {
  const auto plan = tiny_plan();
  for (std::size_t i = 0; i < plan.size(); ++i) {
    EXPECT_EQ(evaluate_sweep_cell(plan, i), evaluate_sweep_cell(plan, i));
  }
}

TEST(SweepRunner, RowsAreThreadCountInvariant) {
  const auto plan = tiny_plan();
  exec::set_default_thread_count(1);
  const std::string one_thread = evaluate_sweep_cell(plan, 0);
  exec::set_default_thread_count(0);
  const std::string many_threads = evaluate_sweep_cell(plan, 0);
  EXPECT_EQ(one_thread, many_threads);
}

TEST(SweepRunner, ShardedRunsMergeToSingleProcessBytes) {
  const auto plan = tiny_plan();
  const std::string shard0 =
      run_sweep_shard(plan, corridor::ShardSpec{0, 2});
  const std::string shard1 =
      run_sweep_shard(plan, corridor::ShardSpec{1, 2});
  const std::string full = run_sweep_shard(plan, corridor::ShardSpec{0, 1});

  const auto sharded = corridor::merge_shards({shard0, shard1});
  ASSERT_TRUE(sharded.ok) << (sharded.errors.empty() ? ""
                                                     : sharded.errors[0]);
  const auto single = corridor::merge_shards({full});
  ASSERT_TRUE(single.ok);
  EXPECT_EQ(sharded.merged, single.merged);
}

TEST(SweepRunner, AShardTooLargeToHoldIsAConfigErrorSuggestingShards) {
  // 42 two-value axes: 2^42 cells fit in size_t but no process holds
  // their indices, let alone their rows. The shard is refused before
  // anything is allocated for it.
  std::string text = "base = paper\n";
  for (int axis = 0; axis < 42; ++axis) {
    text += "axis k" + std::to_string(axis) + " = 1, 2\n";
  }
  const auto plan = corridor::SweepPlan::from_spec(text);
  ASSERT_EQ(plan.size(), std::size_t{1} << 42);
  try {
    (void)run_sweep_shard(plan, corridor::ShardSpec{1, 4});
    FAIL() << "a 2^40-cell shard ran";
  } catch (const util::ConfigError& error) {
    const std::string what = error.what();
    EXPECT_NE(what.find("grid has 4398046511104 cells"), std::string::npos)
        << what;
    EXPECT_NE(what.find("shard 1/4 owns 1099511627776"), std::string::npos)
        << what;
    EXPECT_NE(what.find("--shard i/N, N >= 1024"), std::string::npos) << what;
  }
}

TEST(SweepRunner, HeaderNamesEveryColumn) {
  const auto plan = tiny_plan();
  const std::string document =
      run_sweep_shard(plan, corridor::ShardSpec{0, 1});
  const std::size_t header_start = document.find('\n') + 1;
  const std::string header = document.substr(
      header_start, document.find('\n', header_start) - header_start);
  EXPECT_EQ(header.rfind("index,radio.lp_eirp_dbm,timetable.trains_per_hour,",
                         0),
            0u);
  // One comma-separated column per header entry in every row.
  const auto columns = static_cast<std::size_t>(
      std::count(header.begin(), header.end(), ',') + 1);
  std::size_t row_start = document.find('\n', header_start) + 1;
  while (row_start < document.size()) {
    const std::size_t row_end = document.find('\n', row_start);
    const std::string row = document.substr(row_start, row_end - row_start);
    EXPECT_EQ(static_cast<std::size_t>(
                  std::count(row.begin(), row.end(), ',') + 1),
              columns)
        << row;
    row_start = row_end + 1;
  }
}

TEST(SweepRunner, MetricColumnsMatchOptions) {
  SweepRunOptions with_sizing;
  with_sizing.include_sizing = true;
  EXPECT_EQ(sweep_metric_columns({}).size() + 2,
            sweep_metric_columns(with_sizing).size());
}

TEST(SweepRunner, ListValuedKeysSweepViaSemicolonSpelling) {
  // An axis over a list-valued key must use ';' inside each axis value
  // (the axis parser splits on commas): two cells, each with its whole
  // ladder intact.
  const auto plan = corridor::SweepPlan::from_spec(
      "base = paper\n"
      "axis sizing.ladder = 540:720;540:1440, 600:1440\n");
  ASSERT_EQ(plan.size(), 2u);
  const Scenario cell0 = scenario_at(plan, 0);
  ASSERT_EQ(cell0.sizing_ladder.size(), 2u);
  EXPECT_DOUBLE_EQ(cell0.sizing_ladder[1].battery_wh, 1440.0);
  const Scenario cell1 = scenario_at(plan, 1);
  ASSERT_EQ(cell1.sizing_ladder.size(), 1u);
  EXPECT_DOUBLE_EQ(cell1.sizing_ladder[0].pv_wp, 600.0);
}

TEST(SweepRunner, BatchedSizingShardMatchesPerCellRowsByteExact) {
  // --include-sizing shards run ONE batched off-grid simulation across
  // all owned cells (shared weather per location); the emitted rows
  // must be byte-identical to the per-cell pure-function path, or the
  // merge determinism contract would see the batching.
  const auto plan = corridor::SweepPlan::from_spec(
      "base = paper\n"
      "set max_repeaters = 2\n"
      "set isd_search.isd_step_m = 100\n"
      "set isd_search.sample_step_m = 50\n"
      "set sizing.years = 1\n"
      "axis timetable.trains_per_hour = 6, 10, 14\n");
  SweepRunOptions options;
  options.include_sizing = true;
  const std::string document =
      run_sweep_shard(plan, corridor::ShardSpec{0, 1}, options);

  std::string expected = corridor::shard_banner(plan) + "\n" +
                         corridor::shard_header(
                             plan, sweep_metric_columns(options)) +
                         "\n";
  for (std::size_t i = 0; i < plan.size(); ++i) {
    expected += evaluate_sweep_cell(plan, i, options) + "\n";
  }
  EXPECT_EQ(document, expected);
}

/// A mixed-axis grid in which every stage memo hits: 2 radios (ISD
/// searches), x 2 segment counts (multi-segment worst cases), while the
/// segment and radio axes leave the 3 x 2 sizing jobs untouched.
corridor::SweepPlan memo_plan() {
  return corridor::SweepPlan::from_spec(
      "base = paper\n"
      "set max_repeaters = 2\n"
      "set isd_search.isd_step_m = 100\n"
      "set isd_search.sample_step_m = 50\n"
      "set sizing.years = 1\n"
      "axis radio.lp_eirp_dbm = 37, 40\n"
      "axis timetable.trains_per_hour = 6, 10, 14\n"
      "axis corridor.segments = 2, 3\n"
      "axis sizing.weather.kt_sigma = 0.1, 0.15\n");
}

/// The shard document built from memo-free evaluate_sweep_cell rows.
std::string oracle_shard(const corridor::SweepPlan& plan,
                         corridor::ShardSpec shard,
                         const SweepRunOptions& options) {
  std::string document =
      corridor::shard_banner(plan) + "\n" +
      corridor::shard_header(plan, sweep_metric_columns(options)) + "\n";
  for (const std::size_t index : shard.indices(plan.size())) {
    document += evaluate_sweep_cell(plan, index, options) + "\n";
  }
  return document;
}

TEST(SweepRunner, StageMemoShardsMatchPerCellOracleByteExact) {
  const auto plan = memo_plan();
  ASSERT_EQ(plan.size(), 24u);
  const auto dir = std::filesystem::temp_directory_path() /
                   ("railcorr_stage_memo_test_" + std::to_string(::getpid()));
  for (const bool sizing : {false, true}) {
    SCOPED_TRACE(sizing ? "with sizing" : "without sizing");
    SweepRunOptions options;
    options.include_sizing = sizing;
    for (const std::size_t threads : {1u, 4u}) {
      SCOPED_TRACE(threads);
      exec::set_default_thread_count(threads);
      for (const std::size_t ways : {1u, 2u, 3u}) {
        for (std::size_t k = 0; k < ways; ++k) {
          const corridor::ShardSpec shard{k, ways};
          EXPECT_EQ(run_sweep_shard(plan, shard, options),
                    oracle_shard(plan, shard, options))
              << "shard " << k << "/" << ways;
        }
      }

      // Cold store, then a whole grid over a store holding one third
      // of it (memo and cache hits interleave), then fully warm.
      std::filesystem::remove_all(dir);
      cache::ResultCache store;
      ASSERT_TRUE(store.open({dir.string(), 0}));
      SweepRunOptions cached = options;
      cached.cache = &store;
      const corridor::ShardSpec third{1, 3};
      const corridor::ShardSpec whole{0, 1};
      EXPECT_EQ(run_sweep_shard(plan, third, cached),
                oracle_shard(plan, third, options));
      const std::string expected = oracle_shard(plan, whole, options);
      EXPECT_EQ(run_sweep_shard(plan, whole, cached), expected);
      EXPECT_EQ(run_sweep_shard(plan, whole, cached), expected);
    }
  }
  std::filesystem::remove_all(dir);
  exec::set_default_thread_count(0);
}

TEST(SweepRunner, StageMemoRunsEachDistinctStageInputOnce) {
  const auto plan = memo_plan();
  auto& metrics = obs::MetricsRegistry::instance();
  const obs::Counter& hits = metrics.counter("sweep.stage_memo_hits");
  const obs::Counter& misses = metrics.counter("sweep.stage_memo_misses");
  const auto counts = [&](const SweepRunOptions& options) {
    const std::uint64_t hits0 = hits.value();
    const std::uint64_t misses0 = misses.value();
    (void)run_sweep_shard(plan, corridor::ShardSpec{0, 1}, options);
    return std::pair{hits.value() - hits0, misses.value() - misses0};
  };
  // 24 cells: 2 distinct searches, 2 x 2 distinct corridors.
  EXPECT_EQ(counts({}), std::pair(std::uint64_t{42}, std::uint64_t{6}));
  // Plus 24 sizing lookups over 3 x 2 distinct jobs.
  SweepRunOptions sizing;
  sizing.include_sizing = true;
  EXPECT_EQ(counts(sizing), std::pair(std::uint64_t{60}, std::uint64_t{12}));
}

}  // namespace
}  // namespace railcorr::core
