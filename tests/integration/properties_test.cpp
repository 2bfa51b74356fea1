/// Cross-module property batteries, parameterized over the paper's ten
/// published operating points (N, max ISD). These pin structural
/// invariants rather than absolute values: symmetry, monotonicity, and
/// accounting identities that must hold for every deployment.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <optional>
#include <string>
#include <vector>

#include "core/scenario.hpp"
#include "core/scenario_spec.hpp"
#include "core/sweep_runner.hpp"
#include "corridor/capacity.hpp"
#include "corridor/cost.hpp"
#include "corridor/energy.hpp"
#include "corridor/isd_search.hpp"
#include "rf/uplink.hpp"
#include "traffic/duty.hpp"
#include "util/config.hpp"
#include "util/rng.hpp"

namespace railcorr {
namespace {

struct OperatingPoint {
  int n;
  double isd;
};

OperatingPoint point(int n) {
  return OperatingPoint{
      n, corridor::paper_published_max_isds()[static_cast<std::size_t>(n - 1)]};
}

class OperatingPointTest : public ::testing::TestWithParam<int> {};

// --- RF / capacity invariants ------------------------------------------

TEST_P(OperatingPointTest, SnrProfileIsSymmetric) {
  const auto p = point(GetParam());
  const auto d = corridor::SegmentDeployment::with_repeaters(p.isd, p.n);
  const rf::LinkModelConfig config;
  const rf::CorridorLinkModel link(config, d.transmitters(config.carrier));
  for (double x = 0.0; x <= p.isd / 2.0; x += 97.0) {
    EXPECT_NEAR(link.snr(x).value(), link.snr(p.isd - x).value(), 1e-6)
        << "x=" << x;
  }
}

TEST_P(OperatingPointTest, SignalDecomposesAdditively) {
  const auto p = point(GetParam());
  const auto d = corridor::SegmentDeployment::with_repeaters(p.isd, p.n);
  const rf::LinkModelConfig config;
  const rf::CorridorLinkModel link(config, d.transmitters(config.carrier));
  const double pos = p.isd * 0.37;
  double sum = 0.0;
  for (std::size_t i = 0; i < link.transmitters().size(); ++i) {
    sum += link.rsrp_of(i, pos).to_milliwatts().value();
  }
  EXPECT_NEAR(link.total_signal(pos).value(), sum, sum * 1e-12);
}

TEST_P(OperatingPointTest, MaskedSumNeverExceedsFull) {
  const auto p = point(GetParam());
  const auto d = corridor::SegmentDeployment::with_repeaters(p.isd, p.n);
  const rf::LinkModelConfig config;
  const rf::CorridorLinkModel link(config, d.transmitters(config.carrier));
  std::vector<bool> half(link.transmitters().size(), false);
  for (std::size_t i = 0; i < half.size(); i += 2) half[i] = true;
  const double pos = p.isd * 0.5;
  EXPECT_LE(link.total_signal(pos, half).value(),
            link.total_signal(pos).value() + 1e-15);
  EXPECT_LE(link.total_noise(pos, half).value(),
            link.total_noise(pos).value() + 1e-15);
}

TEST_P(OperatingPointTest, PeakThroughputAtCriterion) {
  const auto p = point(GetParam());
  const auto analyzer = corridor::CapacityAnalyzer::paper_analyzer();
  const auto d = corridor::SegmentDeployment::with_repeaters(p.isd, p.n);
  const auto summary = analyzer.summarize(d);
  // Published operating points hold the criterion within two grid steps
  // of calibration tolerance; the mean is always comfortably above.
  EXPECT_GE(summary.mean_snr_db.value(), 29.0);
  EXPECT_GE(summary.min_throughput_bps, 0.97 * 584e6);
}

TEST_P(OperatingPointTest, UplinkNeverBinds) {
  const auto p = point(GetParam());
  const auto d = corridor::SegmentDeployment::with_repeaters(p.isd, p.n);
  const rf::LinkModelConfig config;
  const rf::UplinkModel ul(config, d.transmitters(config.carrier));
  EXPECT_GE(ul.min_snr(0.0, p.isd, 25.0).value(), 0.0);
}

// --- Energy invariants ---------------------------------------------------

TEST_P(OperatingPointTest, EnergyBreakdownAddsUp) {
  const auto p = point(GetParam());
  const corridor::CorridorEnergyModel model;
  corridor::SegmentGeometry g;
  g.isd_m = p.isd;
  g.repeater_count = p.n;
  for (const auto mode : {corridor::RepeaterOperationMode::kContinuous,
                          corridor::RepeaterOperationMode::kSleepMode,
                          corridor::RepeaterOperationMode::kSolarPowered}) {
    const auto b = model.evaluate(g, mode);
    EXPECT_NEAR(b.total_mains_per_km().value(),
                b.hp_mains_per_km.value() + b.lp_service_mains_per_km.value() +
                    b.lp_donor_mains_per_km.value(),
                1e-9);
    EXPECT_GE(b.hp_mains_per_km.value(), 0.0);
    // Daily energy identity.
    EXPECT_NEAR(b.mains_wh_per_km_day().value(),
                24.0 * b.mains_wh_per_km_hour().value(), 1e-9);
  }
}

TEST_P(OperatingPointTest, SleepSavesOverContinuousSolarOverSleep) {
  const auto p = point(GetParam());
  const corridor::CorridorEnergyModel model;
  corridor::SegmentGeometry g;
  g.isd_m = p.isd;
  g.repeater_count = p.n;
  const double cont =
      model.evaluate(g, corridor::RepeaterOperationMode::kContinuous)
          .total_mains_per_km()
          .value();
  const double sleep =
      model.evaluate(g, corridor::RepeaterOperationMode::kSleepMode)
          .total_mains_per_km()
          .value();
  const double solar =
      model.evaluate(g, corridor::RepeaterOperationMode::kSolarPowered)
          .total_mains_per_km()
          .value();
  EXPECT_GT(cont, sleep);
  EXPECT_GT(sleep, solar);
  EXPECT_GT(solar, 0.0);
}

TEST_P(OperatingPointTest, SolarOffgridEqualsSleepLpMains) {
  // The off-grid power in solar mode equals exactly what the LP nodes
  // would have drawn from mains in sleep mode (same duty cycles).
  const auto p = point(GetParam());
  const corridor::CorridorEnergyModel model;
  corridor::SegmentGeometry g;
  g.isd_m = p.isd;
  g.repeater_count = p.n;
  const auto sleep =
      model.evaluate(g, corridor::RepeaterOperationMode::kSleepMode);
  const auto solar =
      model.evaluate(g, corridor::RepeaterOperationMode::kSolarPowered);
  EXPECT_NEAR(solar.lp_offgrid_per_km.value(),
              sleep.lp_service_mains_per_km.value() +
                  sleep.lp_donor_mains_per_km.value(),
              1e-9);
}

// --- Cost invariants -----------------------------------------------------

TEST_P(OperatingPointTest, CostScalesWithEnergy) {
  const auto p = point(GetParam());
  const corridor::CostAnalyzer analyzer{corridor::CostModel{},
                                        corridor::CorridorEnergyModel{}};
  corridor::SegmentGeometry g;
  g.isd_m = p.isd;
  g.repeater_count = p.n;
  const auto sleep =
      analyzer.evaluate(g, corridor::RepeaterOperationMode::kSleepMode);
  const auto solar =
      analyzer.evaluate(g, corridor::RepeaterOperationMode::kSolarPowered);
  EXPECT_GT(sleep.energy_opex_eur_km_year, solar.energy_opex_eur_km_year);
  EXPECT_GT(sleep.co2_kg_km_year, solar.co2_kg_km_year);
  // CO2 proportional to energy under a fixed grid intensity.
  EXPECT_NEAR(sleep.co2_kg_km_year / sleep.energy_opex_eur_km_year,
              solar.co2_kg_km_year / solar.energy_opex_eur_km_year, 1e-9);
}

// --- Duty-cycle invariants ------------------------------------------------

TEST_P(OperatingPointTest, MastDutyConsistentWithOccupancy) {
  const auto p = point(GetParam());
  const auto tt = traffic::TimetableConfig::paper_timetable();
  const double f = traffic::full_load_fraction(tt, p.isd);
  EXPECT_NEAR(f,
              tt.trains_per_day() * tt.train.occupancy_seconds(p.isd) / 86400.0,
              1e-12);
  EXPECT_GT(f, 0.0);
  EXPECT_LT(f, 0.12);
}

INSTANTIATE_TEST_SUITE_P(AllPublishedPoints, OperatingPointTest,
                         ::testing::Range(1, 11));

// --- Model invariants over the radio_grid ranges --------------------------

/// A seeded radio/geometry point from the ranges of the radio_grid
/// benchmark plans: LP EIRP 34-46 dBm, HP EIRP 58-68 dBm, repeater
/// spacing on the 120..300 m ladder with up to +-2 m of jitter.
struct RadioPoint {
  double lp_eirp_dbm;
  double hp_eirp_dbm;
  double spacing_m;

  [[nodiscard]] std::string describe() const {
    return "lp=" + std::to_string(lp_eirp_dbm) +
           " hp=" + std::to_string(hp_eirp_dbm) +
           " spacing=" + std::to_string(spacing_m);
  }
};

std::vector<RadioPoint> radio_grid_points() {
  Rng rng(0x4AD10C01ULL);
  std::vector<RadioPoint> points;
  for (int k = 0; k < 24; ++k) {
    const double lp = rng.uniform(34.0, 46.0);
    const double hp = rng.uniform(58.0, 68.0);
    const auto rung = static_cast<double>(rng.uniform_index(10));
    const auto jitter = static_cast<double>(rng.uniform_index(9)) - 4.0;
    points.push_back({lp, hp, 120.0 + 20.0 * rung + 0.5 * jitter});
  }
  return points;
}

/// Max ISD per N = 1..10 of `point` under `threshold_db`.
std::vector<corridor::MaxIsdResult> max_isds(const RadioPoint& point,
                                             double threshold_db) {
  corridor::IsdSearchConfig config;
  config.repeater_spacing_m = point.spacing_m;
  config.snr_threshold = Db(threshold_db);
  corridor::RadioParameters radio;
  radio.lp_eirp = Dbm(point.lp_eirp_dbm);
  radio.hp_eirp = Dbm(point.hp_eirp_dbm);
  return corridor::IsdSearch(corridor::CapacityAnalyzer::paper_analyzer(),
                             config, radio)
      .sweep(1, 10);
}

/// A missing max ISD (no candidate passes) ranks below every ISD.
double rank(const std::optional<double>& isd) { return isd.value_or(-1.0); }

TEST(RadioGridInvariants, MaxIsdIsNonIncreasingInSnrThreshold) {
  for (const auto& point : radio_grid_points()) {
    std::vector<corridor::MaxIsdResult> looser;
    for (const double threshold : {24.0, 27.0, 29.0, 30.5, 33.0}) {
      const auto tighter = max_isds(point, threshold);
      for (std::size_t i = 0; i < looser.size(); ++i) {
        EXPECT_LE(rank(tighter[i].max_isd_m), rank(looser[i].max_isd_m))
            << point.describe() << " N=" << i + 1
            << " threshold=" << threshold;
      }
      looser = tighter;
    }
  }
}

TEST(RadioGridInvariants, MaxIsdIsNonDecreasingInHpEirp) {
  // More HP EIRP adds mast signal everywhere and no noise.
  for (const auto& point : radio_grid_points()) {
    const auto base = max_isds(point, 29.0);
    RadioPoint stronger = point;
    stronger.hp_eirp_dbm += 1.5;
    const auto boosted = max_isds(stronger, 29.0);
    for (std::size_t i = 0; i < base.size(); ++i) {
      EXPECT_GE(rank(boosted[i].max_isd_m), rank(base[i].max_isd_m))
          << point.describe() << " N=" << i + 1;
    }
  }
}

TEST(RadioGridInvariants, SleepAndSolarSavingsLieInUnitInterval) {
  for (const auto& point : radio_grid_points()) {
    core::Scenario scenario = core::Scenario::paper();
    scenario.radio.lp_eirp = Dbm(point.lp_eirp_dbm);
    scenario.radio.hp_eirp = Dbm(point.hp_eirp_dbm);
    scenario.repeater_spacing_m = point.spacing_m;
    const auto deepest = core::deepest_deployment(scenario);
    if (deepest.repeater_count == 0) continue;
    corridor::SegmentGeometry geometry;
    geometry.isd_m = deepest.isd_m;
    geometry.repeater_count = deepest.repeater_count;
    geometry.repeater_spacing_m = scenario.repeater_spacing_m;
    const auto model = scenario.make_energy_model();
    const auto baseline = model.conventional_baseline();
    for (const auto mode : {corridor::RepeaterOperationMode::kSleepMode,
                            corridor::RepeaterOperationMode::kSolarPowered}) {
      const double savings =
          model.evaluate(geometry, mode).savings_vs(baseline);
      EXPECT_GE(savings, 0.0) << point.describe();
      EXPECT_LE(savings, 1.0) << point.describe();
    }
  }
}

// --- Model invariants over the ops_grid ranges ----------------------------

/// A seeded operations point from the ranges of the ops_grid benchmark
/// plans (night pause 3-7 h, LP sleep power 3.5-6 W, 2 or 3 segments,
/// weather sigma 0.08-0.18), with an ascending ladder of train rates
/// from its 4-20 trains/h range.
struct OpsPoint {
  std::string spec;  // every ops_grid key but timetable.trains_per_hour
  std::vector<double> trains_per_hour;
};

std::vector<OpsPoint> ops_grid_points() {
  Rng rng(0x0B5621D5ULL);
  std::vector<OpsPoint> points;
  for (int k = 0; k < 24; ++k) {
    OpsPoint point;
    point.spec =
        "timetable.night_hours = " +
        util::format_double(rng.uniform(3.0, 7.0)) +
        "\nenergy.lp_node.p_sleep_w = " +
        util::format_double(rng.uniform(3.5, 6.0)) +
        "\ncorridor.segments = " + std::to_string(2 + rng.uniform_index(2)) +
        "\nsizing.weather.kt_sigma = " +
        util::format_double(rng.uniform(0.08, 0.18)) + "\n";
    for (int t = 0; t < 6; ++t) {
      point.trains_per_hour.push_back(rng.uniform(4.0, 20.0));
    }
    std::sort(point.trains_per_hour.begin(), point.trains_per_hour.end());
    points.push_back(point);
  }
  return points;
}

TEST(OpsGridInvariants, SleepAndSolarEnergyAreNonDecreasingInTrainsPerHour) {
  // More trains keep the nodes at full load longer and never shorten a
  // sleep phase. The radio is the paper's at every point, so one ISD
  // search serves them all.
  const auto deepest = core::deepest_deployment(core::Scenario::paper());
  ASSERT_GT(deepest.repeater_count, 0);
  for (const auto& point : ops_grid_points()) {
    double sleep_before = 0.0;
    double solar_before = 0.0;
    for (const double trains : point.trains_per_hour) {
      core::Scenario scenario = core::Scenario::paper();
      core::apply_spec(scenario,
                       point.spec + "timetable.trains_per_hour = " +
                           util::format_double(trains) + "\n");
      corridor::SegmentGeometry geometry;
      geometry.isd_m = deepest.isd_m;
      geometry.repeater_count = deepest.repeater_count;
      geometry.repeater_spacing_m = scenario.repeater_spacing_m;
      const auto model = scenario.make_energy_model();
      const double sleep =
          model.evaluate(geometry, corridor::RepeaterOperationMode::kSleepMode)
              .mains_wh_per_km_hour()
              .value();
      const double solar =
          model
              .evaluate(geometry,
                        corridor::RepeaterOperationMode::kSolarPowered)
              .mains_wh_per_km_hour()
              .value();
      EXPECT_GE(sleep, sleep_before) << point.spec << "trains=" << trains;
      EXPECT_GE(solar, solar_before) << point.spec << "trains=" << trains;
      sleep_before = sleep;
      solar_before = solar;
    }
  }
}

}  // namespace
}  // namespace railcorr
