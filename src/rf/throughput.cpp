#include "rf/throughput.hpp"

#include <cmath>

#include "util/contracts.hpp"
#include "util/vmath.hpp"

namespace railcorr::rf {

ThroughputModel::ThroughputModel(double alpha, double se_max_bps_hz, Db snr_min)
    : alpha_(alpha), se_max_(se_max_bps_hz), snr_min_(snr_min) {
  RAILCORR_EXPECTS(alpha_ > 0.0 && alpha_ <= 1.0);
  RAILCORR_EXPECTS(se_max_ > 0.0);
}

double ThroughputModel::spectral_efficiency(Db snr) const {
  if (snr < snr_min_) return 0.0;
  const double se = alpha_ * std::log2(1.0 + snr.linear());
  return se >= se_max_ ? se_max_ : se;
}

void ThroughputModel::spectral_efficiency_batch(
    std::span<const double> snr_db, std::span<double> out_se) const {
  RAILCORR_EXPECTS(out_se.size() == snr_db.size());
  // Bit-exact mode runs the scalar path per element: the batched libm
  // passes below produce the same bytes but measure slower than it.
  if (vmath::active_accuracy_mode() == vmath::AccuracyMode::kBitExact) {
    for (std::size_t i = 0; i < out_se.size(); ++i) {
      out_se[i] = spectral_efficiency(Db(snr_db[i]));
    }
    return;
  }
  // Fast mode: the SIMD linear ratio, 1 + x, attenuated Shannon log2,
  // then the SNR_MIN and SE_MAX clamps per element.
  vmath::db_to_ratio_batch(snr_db, out_se);
  for (double& v : out_se) v = 1.0 + v;
  vmath::log2_batch(out_se, out_se);
  const double snr_min = snr_min_.value();
  for (std::size_t i = 0; i < out_se.size(); ++i) {
    if (snr_db[i] < snr_min) {
      out_se[i] = 0.0;
      continue;
    }
    const double se = alpha_ * out_se[i];
    out_se[i] = se >= se_max_ ? se_max_ : se;
  }
}

double ThroughputModel::throughput_bps(Db snr, double bandwidth_hz) const {
  RAILCORR_EXPECTS(bandwidth_hz > 0.0);
  return spectral_efficiency(snr) * bandwidth_hz;
}

Db ThroughputModel::peak_snr() const {
  // alpha * log2(1 + snr) = se_max  =>  snr = 2^(se_max/alpha) - 1
  const double snr_linear = std::pow(2.0, se_max_ / alpha_) - 1.0;
  return Db(10.0 * std::log10(snr_linear));
}

Db ThroughputModel::snr_for(double se_bps_hz) const {
  RAILCORR_EXPECTS(se_bps_hz > 0.0);
  RAILCORR_EXPECTS(se_bps_hz <= se_max_);
  const double snr_linear = std::pow(2.0, se_bps_hz / alpha_) - 1.0;
  const Db snr(10.0 * std::log10(snr_linear));
  return snr < snr_min_ ? snr_min_ : snr;
}

ThroughputModel ThroughputModel::paper_model() {
  return ThroughputModel(0.6, 5.84, Db(-10.0));
}

}  // namespace railcorr::rf
