/// \file sweep_runner.hpp
/// \brief Binds corridor::SweepPlan to core::Scenario: materializes grid
///        cells as scenarios, evaluates them on the existing parallel
///        exec engine, and renders byte-deterministic shard documents.
///
/// Each grid cell's row is a pure function of (plan, index): the
/// scenario is rebuilt from the registry base plus the cell's overrides,
/// every metric comes from the deterministic evaluator paths, and all
/// numbers are rendered with util::format_double. Two processes
/// evaluating the same cell therefore emit byte-identical rows — the
/// property corridor::merge_shards verifies.
///
/// run_sweep_shard shares work between the cells it owns without that
/// showing in the output bytes: each heavy stage (the ISD search, the
/// multi-segment worst case, the sizing job) runs once per distinct
/// stage_spec text, with every cell sharing that text reusing the
/// result, and the distinct ISD searches and sizing jobs each run as
/// one batch before the rows render. evaluate_sweep_cell computes every
/// stage itself and is the per-cell oracle both are checked against.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "cache/result_cache.hpp"
#include "core/scenario.hpp"
#include "corridor/sweep.hpp"
#include "solar/sizing.hpp"

namespace railcorr::core {

/// Evaluation depth of a sweep cell.
struct SweepRunOptions {
  /// Also run the Table IV off-grid PV sizing per cell (adds the
  /// sized_pv_wp_total / ladder_exhausted columns; much slower).
  bool include_sizing = false;
  /// Content-addressed result store: cells whose (banner, index,
  /// header, schema) key is already cached skip evaluation and emit the
  /// stored bytes; evaluated cells are inserted and flushed at the end
  /// of the shard. Null or unopened = every cell computes. The
  /// byte-identity contract makes the two paths indistinguishable in
  /// the output.
  cache::ResultCache* cache = nullptr;
  /// Called by run_sweep_shard after each owned cell's row is rendered
  /// with (grid cell index, cells finished, cells owned by the shard,
  /// the cell's compute wall time in usec). The CLI's `--progress`
  /// mode forwards these to the orchestrator's line protocol. Progress
  /// emission cannot perturb the evaluation: rows are already rendered
  /// when the callback fires. Empty = off.
  ///
  /// Timing semantics: cache hits report (near-)zero usec, and an
  /// evaluated cell reports only its per-cell render time — the
  /// shard-wide batches run before any row renders and are not
  /// attributed to individual cells (they appear as the `isd_batch`
  /// and `sizing_batch` spans in a trace instead), so progress events
  /// follow the batches in a burst. Likewise a cell whose multi-segment
  /// stage was already computed for an earlier cell of the shard (a
  /// stage memo hit) reports only its own residual time; the stage's
  /// cost lands on the first cell that needed it. The figure is a
  /// scheduling signal for adaptive shard sizing, not an exact cost
  /// accounting.
  std::function<void(std::size_t index, std::size_t done, std::size_t total,
                     std::uint64_t usec)>
      progress;
};

/// The deepest deployment a scenario's criterion still supports: the
/// result of its Stage::kIsdSearch. repeater_count 0 = none.
struct DeepestDeployment {
  int repeater_count = 0;
  double isd_m = 0.0;
  double min_snr_db = 0.0;
};

/// Stage::kIsdSearch of a cell.
DeepestDeployment deepest_deployment(const Scenario& scenario);

/// Stage::kMultiSegment of a cell: the worst segment's min SNR [dB]
/// when `deployment` repeats over scenario.corridor_segments segments.
double corridor_min_snr_db(const Scenario& scenario,
                           const DeepestDeployment& deployment);

/// Stage::kSizing of a cell: its off-grid sizing study as one job.
solar::SizingJob sizing_job(const Scenario& scenario);

/// The metric column names, in row order (after index + axis columns).
std::vector<std::string> sweep_metric_columns(const SweepRunOptions& options);

/// The scenario of one grid cell: registry base + cell overrides.
/// Throws util::ConfigError on unknown base or bad overrides.
Scenario scenario_at(const corridor::SweepPlan& plan, std::size_t index);

/// Evaluate one cell into its CSV row (no trailing newline).
std::string evaluate_sweep_cell(const corridor::SweepPlan& plan,
                                std::size_t index,
                                const SweepRunOptions& options = {});

/// Evaluate a whole shard into a shard document (banner + header +
/// ascending-index rows, one per owned cell). Each heavy stage runs once
/// per distinct stage_spec text among the cells the call evaluates (a
/// memo scoped to this call, so accuracy mode and SIMD level are fixed
/// over its lifetime). The distinct ISD searches of all cache-missed
/// cells run first, as one exec::parallel_map across the thread pool;
/// with include_sizing their distinct sizing jobs then run as one
/// batched solar::size_jobs call (each distinct weather tuple
/// synthesized once for the shard). Both are bit-identical to the
/// per-cell path, so the emitted rows byte-match evaluate_sweep_cell's.
std::string run_sweep_shard(const corridor::SweepPlan& plan,
                            corridor::ShardSpec shard,
                            const SweepRunOptions& options = {});

}  // namespace railcorr::core
