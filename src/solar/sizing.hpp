/// \file sizing.hpp
/// \brief PV/battery sizing search reproducing Table IV: the smallest
///        standard configuration that achieves zero-downtime operation.
///
/// The paper starts from 540 Wp / 720 Wh (three standard modules, one
/// battery) and, where winter resource is insufficient (Vienna, Berlin),
/// doubles the battery and/or moves to slightly larger modules (600 Wp).
#pragma once

#include <span>
#include <vector>

#include "solar/offgrid.hpp"

namespace railcorr::solar {

/// One candidate configuration on the sizing ladder.
struct SizingCandidate {
  double pv_wp = 540.0;
  double battery_wh = 720.0;
};

/// The paper's ladder, in increasing cost order:
/// 540/720 -> 540/1440 -> 600/1440 -> 600/2160 -> 720/2160.
std::vector<SizingCandidate> paper_sizing_ladder();

/// Result of sizing one location.
struct SizingResult {
  Location location;
  SizingCandidate chosen;
  OffGridReport report;
  /// True when even the largest ladder entry had downtime.
  bool ladder_exhausted = false;
};

/// Options for the sizing run.
struct SizingOptions {
  /// Weather years simulated per candidate (more years -> stricter
  /// zero-downtime requirement).
  int years = 3;
  /// Calibration constant: together with the WeatherModel defaults this
  /// seed reproduces Table IV's ladder exactly (see irradiance.hpp).
  /// Re-pinned when the batched normal sampler changed the draw
  /// sequence (ARCHITECTURE.md, "Random variates").
  std::uint64_t seed = 0x5EEDC003ULL;
  WeatherModel weather;
  PlaneOfArray plane;  ///< vertical, equator-facing by default
};

/// Walk the ladder until a configuration runs without downtime (the
/// single-site API). The site's weather is synthesized once and every
/// rung steps through it; a rung that is not the ladder's last stops at
/// its first day with unmet load, since only its pass/fail is used.
SizingResult size_for_location(const Location& location,
                               const ConsumptionProfile& consumption,
                               const SizingOptions& options = SizingOptions{},
                               const std::vector<SizingCandidate>& ladder =
                                   paper_sizing_ladder());

/// Size many locations at once: size_for_location per site through
/// exec::parallel_map (inline at one thread or inside a parallel
/// region). Every site depends only on its fixed seed, so the results
/// are bit-identical at any thread count.
std::vector<SizingResult> size_locations(
    const std::vector<Location>& locations,
    const ConsumptionProfile& consumption,
    const SizingOptions& options = SizingOptions{},
    const std::vector<SizingCandidate>& ladder = paper_sizing_ladder());

/// Size all four paper locations (Table IV) via the batched grid.
std::vector<SizingResult> size_paper_locations(
    const ConsumptionProfile& consumption,
    const SizingOptions& options = SizingOptions{});

/// One study of a batched sizing run: a locations x ladder grid with
/// its own consumption profile and options — e.g. one `--include-sizing`
/// sweep cell.
struct SizingJob {
  std::vector<Location> locations;
  ConsumptionProfile consumption;
  SizingOptions options;
  std::vector<SizingCandidate> ladder = paper_sizing_ladder();
};

/// Run many sizing studies as ONE batched simulation: the weather-year
/// sequence is synthesized once per distinct (location, plane, weather,
/// seed, years) tuple across ALL jobs, and every system sharing a tuple
/// steps through it in a single batched pass. Sweep grids whose cells vary
/// only non-sizing axes therefore pay for each location's weather once
/// for the whole grid instead of once per cell. `result[j]` equals
/// `size_locations(jobs[j].locations, ...)` element-wise, bit for bit:
/// both run the same rung-wave walk, whose per-case arithmetic does not
/// depend on the other cases of its batch.
std::vector<std::vector<SizingResult>> size_jobs(
    std::span<const SizingJob> jobs);

}  // namespace railcorr::solar
