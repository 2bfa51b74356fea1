#include "corridor/isd_search.hpp"

#include <algorithm>
#include <cmath>
#include <utility>

#include "exec/parallel.hpp"
#include "util/contracts.hpp"

namespace railcorr::corridor {

namespace {

/// Every kRejectStride-th position of the exact min-SNR scan forms the
/// subset a candidate is first tested on.
constexpr std::size_t kRejectStride = 8;

}  // namespace

CandidateLinks::CandidateLinks(const CapacityAnalyzer& analyzer,
                               SegmentGeometry geometry,
                               const RadioParameters& radio)
    : config_(analyzer.link_config()), geometry_(geometry) {
  SegmentDeployment deployment;
  deployment.geometry = geometry_;
  deployment.radio = radio;
  const auto model = analyzer.link_model(deployment);
  kernels_ = model.kernels();
  soa_ = model.soa();
}

const rf::DownlinkTxSoA& CandidateLinks::place(double isd_m) {
  geometry_.isd_m = isd_m;
  RAILCORR_EXPECTS(geometry_.valid());
  // SegmentDeployment::transmitters lists the masts at 0 and isd first,
  // then the repeaters in ascending order. Gains of the masts and the
  // repeaters' signal and literal-noise gains do not depend on where
  // they stand; a repeater's fronthaul factor does, via its donor link.
  soa_.position_m[1] = isd_m;
  for (int i = 0; i < geometry_.repeater_count; ++i) {
    const std::size_t slot = 2 + static_cast<std::size_t>(i);
    rf::TxKernel& k = kernels_[slot];
    k.position_m = geometry_.repeater_position(i);
    k.fronthaul_factor_lin = rf::fronthaul_factor_lin(
        config_, geometry_.donor_distance_m(k.position_m));
    soa_.position_m[slot] = k.position_m;
    soa_.noise_gain_lin[slot] = rf::folded_noise_gain(config_, k);
  }
  return soa_;
}

IsdSearch::IsdSearch(CapacityAnalyzer analyzer, IsdSearchConfig config,
                     RadioParameters radio)
    : analyzer_(std::move(analyzer)), config_(config), radio_(radio) {
  RAILCORR_EXPECTS(config_.isd_step_m > 0.0);
  RAILCORR_EXPECTS(config_.max_isd_m > 0.0);
  RAILCORR_EXPECTS(config_.sample_step_m > 0.0);
  RAILCORR_EXPECTS(config_.repeater_spacing_m > 0.0);
}

MaxIsdResult IsdSearch::find_max_isd(int repeater_count) const {
  return sweep(repeater_count, repeater_count).front();
}

std::vector<double> IsdSearch::candidates(int repeater_count) const {
  RAILCORR_EXPECTS(repeater_count >= 0);
  // Smallest geometrically valid ISD on the grid: the node cluster span
  // plus one spacing of edge gap on either side.
  const double span =
      repeater_count > 0
          ? config_.repeater_spacing_m * static_cast<double>(repeater_count - 1)
          : 0.0;
  const double min_isd = std::max(
      config_.isd_step_m,
      std::ceil((span + 1.0) / config_.isd_step_m) * config_.isd_step_m);
  std::vector<double> isds;
  for (double isd = min_isd; isd <= config_.max_isd_m + 1e-9;
       isd += config_.isd_step_m) {
    SegmentGeometry geometry;
    geometry.isd_m = isd;
    geometry.repeater_count = repeater_count;
    geometry.repeater_spacing_m = config_.repeater_spacing_m;
    if (geometry.valid()) isds.push_back(isd);
  }
  return isds;
}

std::vector<MaxIsdResult> IsdSearch::sweep(int from, int to) const {
  RAILCORR_EXPECTS(from >= 0);
  RAILCORR_EXPECTS(to >= from);
  const std::size_t counts = static_cast<std::size_t>(to - from) + 1;

  std::vector<std::vector<double>> isds(counts);
  double scan_end = 0.0;
  for (std::size_t k = 0; k < counts; ++k) {
    isds[k] = candidates(from + static_cast<int>(k));
    if (!isds[k].empty()) {
      scan_end = std::max(scan_end,
                          isds[k].back() + 0.5 * config_.sample_step_m);
    }
  }
  // The min-SNR scan of a candidate at ISD `hi` samples min(d, hi) for
  // the accumulated d = 0, step, 2 step, ... while d <= hi + step/2
  // (rf::blocked_range_ratio_blocks). The accumulation does not depend
  // on `hi`, so one sequence up to the largest candidate's end serves
  // every candidate of every repeater count.
  std::vector<double> samples;
  for (double d = 0.0; d <= scan_end; d += config_.sample_step_m) {
    samples.push_back(d);
  }

  // Repeater counts are independent searches, each writing its own
  // slot, so the result is independent of the thread count. Inside an
  // enclosing parallel region (a sweep shard's batch of searches) the
  // map runs inline.
  return exec::parallel_map(counts, [&](std::size_t k) {
    return search(from + static_cast<int>(k), isds[k], samples);
  });
}

MaxIsdResult IsdSearch::search(int repeater_count,
                               const std::vector<double>& candidates,
                               const std::vector<double>& samples) const {
  MaxIsdResult result;
  result.repeater_count = repeater_count;
  if (candidates.empty()) return result;

  SegmentGeometry geometry;
  geometry.isd_m = candidates.back();
  geometry.repeater_count = repeater_count;
  geometry.repeater_spacing_m = config_.repeater_spacing_m;
  CandidateLinks links(analyzer_, geometry, radio_);
  const auto passes = [&](Db min_snr) {
    return min_snr >= config_.snr_threshold;
  };

  // Scan from the largest candidate down; the first that passes is the
  // answer. Min SNR is not monotone in ISD near the cluster-geometry
  // transitions, so no candidate is skipped on a neighbour's result.
  // Instead each candidate is first tested on a subset of its own exact
  // sample positions: every kRejectStride-th d of the accumulated
  // sequence, clamped to the candidate's end exactly as the full scan
  // clamps it. The batch kernel is a pure per-position function, so
  // each subset ratio equals the full scan's ratio at that position,
  // the subset minimum is >= the full minimum, and (log10 being
  // monotone, both going through rf::snr_ratio_db) a candidate whose
  // subset fails would fail the full scan too. Only survivors pay for
  // the full scan, whose minimum is the one reported.
  std::vector<double> subset;
  subset.reserve(samples.size() / kRejectStride + 1);
  for (auto it = candidates.rbegin(); it != candidates.rend(); ++it) {
    const double isd = *it;
    const rf::DownlinkTxSoA& soa = links.place(isd);
    const double end = isd + 0.5 * config_.sample_step_m;
    subset.clear();
    for (std::size_t i = 0; i < samples.size() && samples[i] <= end;
         i += kRejectStride) {
      subset.push_back(std::min(samples[i], isd));
    }
    if (!passes(rf::snr_ratio_db(rf::min_snr_ratio(soa, subset)))) continue;
    const Db min_snr = rf::snr_ratio_db(
        rf::min_snr_ratio(soa, 0.0, isd, config_.sample_step_m));
    if (passes(min_snr)) {
      result.max_isd_m = isd;
      result.min_snr_at_max = min_snr;
      break;
    }
  }
  return result;
}

const std::vector<double>& paper_published_max_isds() {
  static const std::vector<double> kValues = {1250.0, 1450.0, 1600.0, 1800.0,
                                              1950.0, 2100.0, 2250.0, 2400.0,
                                              2500.0, 2650.0};
  return kValues;
}

}  // namespace railcorr::corridor
