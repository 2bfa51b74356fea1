#include "solar/sizing.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <string>

#include "exec/parallel.hpp"
#include "solar/battery.hpp"
#include "util/rng.hpp"

namespace railcorr::solar {
namespace {

ConsumptionProfile paper_load() {
  return repeater_consumption(
      power::EarthPowerModel::paper_low_power_repeater(),
      traffic::TimetableConfig::paper_timetable(), 200.0);
}

TEST(Sizing, LadderIsOrderedByCost) {
  const auto ladder = paper_sizing_ladder();
  ASSERT_GE(ladder.size(), 3u);
  EXPECT_DOUBLE_EQ(ladder[0].pv_wp, 540.0);
  EXPECT_DOUBLE_EQ(ladder[0].battery_wh, 720.0);
  for (std::size_t i = 1; i < ladder.size(); ++i) {
    EXPECT_GE(ladder[i].pv_wp * ladder[i].battery_wh,
              ladder[i - 1].pv_wp * ladder[i - 1].battery_wh);
  }
}

TEST(Sizing, SouthernSitesNeedTheSmallConfig) {
  // Madrid and Lyon run on 540 Wp / 720 Wh (paper Table IV).
  const auto madrid_result = size_for_location(madrid(), paper_load());
  EXPECT_FALSE(madrid_result.ladder_exhausted);
  EXPECT_DOUBLE_EQ(madrid_result.chosen.pv_wp, 540.0);
  EXPECT_DOUBLE_EQ(madrid_result.chosen.battery_wh, 720.0);
  EXPECT_TRUE(madrid_result.report.continuous_operation());

  const auto lyon_result = size_for_location(lyon(), paper_load());
  EXPECT_DOUBLE_EQ(lyon_result.chosen.pv_wp, 540.0);
  EXPECT_DOUBLE_EQ(lyon_result.chosen.battery_wh, 720.0);
}

TEST(Sizing, NorthernSitesNeedMore) {
  // Vienna and Berlin require enlarged storage (paper: 1440 Wh, Berlin
  // additionally 600 Wp). Our synthetic weather must reproduce at least
  // the *ordering*: Berlin >= Vienna > Madrid in required capacity.
  const auto vienna_result = size_for_location(vienna(), paper_load());
  const auto berlin_result = size_for_location(berlin(), paper_load());
  EXPECT_GE(vienna_result.chosen.battery_wh, 1440.0);
  EXPECT_GE(berlin_result.chosen.battery_wh, 1440.0);
  EXPECT_GE(berlin_result.chosen.pv_wp * berlin_result.chosen.battery_wh,
            vienna_result.chosen.pv_wp * vienna_result.chosen.battery_wh);
  EXPECT_TRUE(vienna_result.report.continuous_operation());
  EXPECT_TRUE(berlin_result.report.continuous_operation());
}

TEST(Sizing, AllFourPaperLocations) {
  const auto results = size_paper_locations(paper_load());
  ASSERT_EQ(results.size(), 4u);
  EXPECT_EQ(results[0].location.name, "Madrid");
  EXPECT_EQ(results[3].location.name, "Berlin");
  for (const auto& r : results) {
    EXPECT_TRUE(r.report.continuous_operation()) << r.location.name;
    // Most days end with a full battery everywhere (paper: 88-98 %).
    EXPECT_GT(r.report.days_with_full_battery_pct, 75.0) << r.location.name;
  }
  // Full-battery percentage decreases northwards (paper's trend).
  EXPECT_GT(results[0].report.days_with_full_battery_pct,
            results[3].report.days_with_full_battery_pct);
}

TEST(Sizing, ImpossibleLoadExhaustsLadder) {
  const auto result = size_for_location(berlin(), constant_consumption(Watts(200.0)));
  EXPECT_TRUE(result.ladder_exhausted);
  EXPECT_FALSE(result.report.continuous_operation());
}

TEST(Sizing, CustomLadderRespected) {
  const std::vector<SizingCandidate> ladder = {{2000.0, 5000.0}};
  const auto result =
      size_for_location(berlin(), paper_load(), SizingOptions{}, ladder);
  EXPECT_DOUBLE_EQ(result.chosen.pv_wp, 2000.0);
  EXPECT_TRUE(result.report.continuous_operation());
}

TEST(Sizing, BatchedGridMatchesSequentialWalk) {
  // The parallel locations x ladder grid must reproduce the sequential
  // early-exit ladder walk exactly: same chosen candidate, same report.
  const auto load = paper_load();
  const auto batched = size_locations(paper_locations(), load);
  ASSERT_EQ(batched.size(), 4u);
  for (const auto& result : batched) {
    const auto sequential = size_for_location(result.location, load);
    EXPECT_EQ(result.chosen.pv_wp, sequential.chosen.pv_wp)
        << result.location.name;
    EXPECT_EQ(result.chosen.battery_wh, sequential.chosen.battery_wh);
    EXPECT_EQ(result.ladder_exhausted, sequential.ladder_exhausted);
    EXPECT_EQ(result.report.downtime_hours, sequential.report.downtime_hours);
    EXPECT_EQ(result.report.annual_pv_energy.value(),
              sequential.report.annual_pv_energy.value());
    EXPECT_EQ(result.report.min_soc_fraction,
              sequential.report.min_soc_fraction);
  }
}

/// Restores automatic thread-count resolution even when an ASSERT
/// bails out of the test body early.
class SizingThreads : public ::testing::Test {
 protected:
  void TearDown() override { exec::set_default_thread_count(0); }
};

TEST_F(SizingThreads, BatchedGridBitIdenticalAcrossThreadCounts) {
  const auto load = paper_load();
  exec::set_default_thread_count(1);
  const auto baseline = size_locations(paper_locations(), load);
  for (const std::size_t threads : {2u, 8u}) {
    exec::set_default_thread_count(threads);
    const auto results = size_locations(paper_locations(), load);
    ASSERT_EQ(results.size(), baseline.size());
    for (std::size_t i = 0; i < baseline.size(); ++i) {
      EXPECT_EQ(results[i].chosen.pv_wp, baseline[i].chosen.pv_wp);
      EXPECT_EQ(results[i].chosen.battery_wh, baseline[i].chosen.battery_wh);
      EXPECT_EQ(results[i].report.unserved_energy.value(),
                baseline[i].report.unserved_energy.value());
      EXPECT_EQ(results[i].report.days_with_full_battery_pct,
                baseline[i].report.days_with_full_battery_pct);
    }
  }
}

TEST(Sizing, BatchedJobsBitIdenticalToPerJobRuns) {
  // size_jobs shares one weather synthesis per distinct tuple across
  // all jobs; every job's results must still equal an independent
  // size_locations call bit for bit (the sweep runner's byte-identity
  // rests on this).
  const auto base_load = paper_load();
  SizingOptions options;
  options.years = 1;
  std::vector<SizingJob> jobs;
  for (int j = 0; j < 4; ++j) {
    SizingJob job;
    job.locations = paper_locations();
    job.consumption = base_load;
    for (auto& w : job.consumption.hourly_watts) w *= 1.0 + 0.05 * j;
    job.options = options;
    jobs.push_back(job);
  }
  // One job with a different weather tuple (its own seed) and ladder:
  // groups must not leak across tuples.
  SizingJob odd;
  odd.locations = {vienna(), oslo()};
  odd.consumption = base_load;
  odd.options = options;
  odd.options.seed = 99;
  odd.ladder = {{540.0, 720.0}, {720.0, 2880.0}};
  jobs.push_back(odd);

  const auto batched = size_jobs(jobs);
  ASSERT_EQ(batched.size(), jobs.size());
  for (std::size_t j = 0; j < jobs.size(); ++j) {
    const auto reference = size_locations(jobs[j].locations,
                                          jobs[j].consumption,
                                          jobs[j].options, jobs[j].ladder);
    ASSERT_EQ(batched[j].size(), reference.size());
    for (std::size_t l = 0; l < reference.size(); ++l) {
      EXPECT_EQ(batched[j][l].chosen.pv_wp, reference[l].chosen.pv_wp);
      EXPECT_EQ(batched[j][l].chosen.battery_wh,
                reference[l].chosen.battery_wh);
      EXPECT_EQ(batched[j][l].ladder_exhausted,
                reference[l].ladder_exhausted);
      EXPECT_EQ(batched[j][l].report.unserved_energy.value(),
                reference[l].report.unserved_energy.value());
      EXPECT_EQ(batched[j][l].report.min_soc_fraction,
                reference[l].report.min_soc_fraction);
      EXPECT_EQ(batched[j][l].report.days_with_full_battery_pct,
                reference[l].report.days_with_full_battery_pct);
    }
  }
}

// ---- Oracle: the full-year hourly loop under a sequential ladder walk ----

/// The off-grid hour loop as it stood before rungs could stop early:
/// one system, every hour of every day, the PV output and the min-SoC
/// fraction computed per hour. Kept here, independent of the library's
/// batched kernel, as the reference for the sizing walk.
OffGridReport oracle_simulate(std::span<const DailyIrradiance> days,
                              const OffGridSystem& system,
                              const ConsumptionProfile& consumption) {
  constexpr double kChargeEff = Battery::kDefaultChargeEfficiency;
  constexpr double kDischargeEff = Battery::kDefaultDischargeEfficiency;
  const double capacity = system.battery_capacity_wh;
  const double cutoff_wh = system.battery_cutoff * capacity;
  const double full_level = capacity * (1.0 - 1e-9);
  const double pv_wp = system.array.peak_power_wp();
  const double one_minus_loss = 1.0 - system.array.system_loss();
  double soc = capacity;
  int full_days = 0;
  OffGridReport report;
  for (const auto& day : days) {
    bool reached_full = false;
    bool any_unmet = false;
    for (std::size_t h = 0; h < 24; ++h) {
      const double pv = pv_wp * day.poa_wh_m2[h] / 1000.0 * one_minus_loss;
      const double load = consumption.hourly_watts[h];
      report.annual_pv_energy += WattHours(pv);
      report.annual_load += WattHours(load);
      if (pv >= load) {
        const double stored_if_all = (pv - load) * kChargeEff;
        const double stored = std::min(stored_if_all, capacity - soc);
        soc += stored;
        report.curtailed_energy +=
            WattHours((stored_if_all - stored) / kChargeEff);
      } else {
        const double deficit = load - pv;
        const double wanted_from_cells = deficit / kDischargeEff;
        const double available = std::max(0.0, soc - cutoff_wh);
        const double drawn = std::min(wanted_from_cells, available);
        soc -= drawn;
        const double delivered = drawn * kDischargeEff;
        if (delivered < deficit - 1e-9) {
          any_unmet = true;
          ++report.downtime_hours;
          report.unserved_energy += WattHours(deficit - delivered);
        }
      }
      if (soc >= full_level) reached_full = true;
      report.min_soc_fraction =
          std::min(report.min_soc_fraction, soc / capacity);
    }
    if (reached_full) ++full_days;
    if (any_unmet) ++report.downtime_days;
  }
  report.days_with_full_battery_pct = 100.0 * static_cast<double>(full_days) /
                                      static_cast<double>(days.size());
  return report;
}

/// Rung by rung, each rung run over the full years, until one runs
/// without downtime.
SizingResult oracle_size(const Location& location,
                         const ConsumptionProfile& consumption,
                         const SizingOptions& options,
                         const std::vector<SizingCandidate>& ladder) {
  const auto days = synthesize_days(location, options.plane, options.weather,
                                    options.seed, options.years);
  SizingResult result;
  result.location = location;
  for (const auto& candidate : ladder) {
    OffGridSystem system;
    system.array = PvArray(candidate.pv_wp);
    system.battery_capacity_wh = candidate.battery_wh;
    result.chosen = candidate;
    result.report = oracle_simulate(days, system, consumption);
    result.ladder_exhausted = !result.report.continuous_operation();
    if (!result.ladder_exhausted) break;
  }
  return result;
}

bool same_bits(double a, double b) {
  return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}

/// Every published field of a sizing result, compared bit for bit;
/// the first difference, or empty when none.
std::string first_difference(const SizingResult& got,
                             const SizingResult& want) {
  const OffGridReport& g = got.report;
  const OffGridReport& w = want.report;
  if (got.location.name != want.location.name) return "location";
  if (!same_bits(got.chosen.pv_wp, want.chosen.pv_wp)) return "chosen.pv_wp";
  if (!same_bits(got.chosen.battery_wh, want.chosen.battery_wh)) {
    return "chosen.battery_wh";
  }
  if (got.ladder_exhausted != want.ladder_exhausted) return "ladder_exhausted";
  if (!same_bits(g.days_with_full_battery_pct, w.days_with_full_battery_pct)) {
    return "days_with_full_battery_pct";
  }
  if (g.downtime_days != w.downtime_days) return "downtime_days";
  if (g.downtime_hours != w.downtime_hours) return "downtime_hours";
  if (!same_bits(g.unserved_energy.value(), w.unserved_energy.value())) {
    return "unserved_energy";
  }
  if (!same_bits(g.annual_pv_energy.value(), w.annual_pv_energy.value())) {
    return "annual_pv_energy";
  }
  if (!same_bits(g.annual_load.value(), w.annual_load.value())) {
    return "annual_load";
  }
  if (!same_bits(g.curtailed_energy.value(), w.curtailed_energy.value())) {
    return "curtailed_energy";
  }
  if (!same_bits(g.min_soc_fraction, w.min_soc_fraction)) {
    return "min_soc_fraction";
  }
  return "";
}

/// One study checked against the oracle through all three public
/// entry points. Returns how many of its cells exhausted the ladder.
int expect_matches_oracle(const SizingJob& job, const std::string& what) {
  std::vector<SizingResult> want;
  for (const auto& location : job.locations) {
    want.push_back(
        oracle_size(location, job.consumption, job.options, job.ladder));
  }
  const auto located = size_locations(job.locations, job.consumption,
                                      job.options, job.ladder);
  const auto batched = size_jobs(std::span<const SizingJob>(&job, 1));
  int exhausted = 0;
  for (std::size_t l = 0; l < want.size(); ++l) {
    const std::string where = what + " at " + job.locations[l].name;
    EXPECT_EQ(first_difference(size_for_location(job.locations[l],
                                                 job.consumption,
                                                 job.options, job.ladder),
                               want[l]),
              "")
        << "size_for_location, " << where;
    EXPECT_EQ(first_difference(located[l], want[l]), "")
        << "size_locations, " << where;
    EXPECT_EQ(first_difference(batched[0][l], want[l]), "")
        << "size_jobs, " << where;
    if (want[l].ladder_exhausted) ++exhausted;
  }
  return exhausted;
}

TEST(SizingOracle, CatalogSitesMatchTheFullYearWalk) {
  SizingJob job;
  job.locations = location_catalog();
  job.consumption = paper_load();
  ASSERT_EQ(job.locations.size(), 6u);
  EXPECT_EQ(expect_matches_oracle(job, "paper load"), 0);
}

TEST(SizingOracle, SeededLoadsMatchTheFullYearWalk) {
  // Loads from well inside the ladder to beyond it, so cells stop on
  // every rung and some exhaust it.
  Rng rng(0x51215EEDULL);
  int exhausted = 0;
  int cells = 0;
  for (int k = 0; k < 8; ++k) {
    SizingJob job;
    job.locations = location_catalog();
    job.options.years = 1 + static_cast<int>(rng.uniform_index(2));
    job.options.seed = rng.uniform_index(1000);
    const double scale = rng.uniform(2.0, 16.0);
    for (auto& w : job.consumption.hourly_watts) {
      w = scale * rng.uniform(0.5, 1.5);
    }
    exhausted += expect_matches_oracle(job, "seeded load " + std::to_string(k));
    cells += static_cast<int>(job.locations.size());
  }
  EXPECT_GT(exhausted, 0);
  EXPECT_LT(exhausted, cells);
}

TEST(SizingOracle, ExhaustedLadderReportsTheFullYearsOfItsLastRung) {
  SizingJob job;
  job.locations = {berlin(), oslo()};
  job.consumption = constant_consumption(Watts(200.0));
  EXPECT_EQ(expect_matches_oracle(job, "200 W"), 2);
}

TEST(SizingOracle, MixedLaddersInOneWaveMatchTheFullYearWalk) {
  // One weather tuple, so every cell rides the same rung waves: wave 1
  // holds the 2-rung ladder's last rung (720 Wp, runs the full years)
  // beside the paper ladder's second (540 Wp, may stop early).
  const std::vector<SizingCandidate> short_ladder = {{540.0, 720.0},
                                                     {720.0, 2880.0}};
  std::vector<SizingJob> jobs;
  for (int k = 0; k < 4; ++k) {
    SizingJob job;
    job.locations = {vienna(), berlin(), oslo()};
    job.consumption = paper_load();
    for (auto& w : job.consumption.hourly_watts) w *= 1.0 + 0.6 * k;
    job.options.years = 2;
    if (k % 2 == 0) job.ladder = short_ladder;
    jobs.push_back(job);
  }
  const auto batched = size_jobs(jobs);
  ASSERT_EQ(batched.size(), jobs.size());
  int exhausted = 0;
  for (std::size_t j = 0; j < jobs.size(); ++j) {
    for (std::size_t l = 0; l < jobs[j].locations.size(); ++l) {
      const auto want = oracle_size(jobs[j].locations[l],
                                    jobs[j].consumption, jobs[j].options,
                                    jobs[j].ladder);
      EXPECT_EQ(first_difference(batched[j][l], want), "")
          << "job " << j << " at " << jobs[j].locations[l].name;
      if (want.ladder_exhausted) ++exhausted;
    }
    exhausted += expect_matches_oracle(jobs[j], "job " + std::to_string(j));
  }
  EXPECT_GT(exhausted, 0);
}

TEST(Sizing, CatalogLookupAndNames) {
  ASSERT_GE(location_catalog().size(), 6u);
  const Location* found = find_location("madrid");
  ASSERT_NE(found, nullptr);
  EXPECT_EQ(found->name, "Madrid");
  EXPECT_NE(find_location("oslo"), nullptr);
  EXPECT_NE(find_location("sevilla"), nullptr);
  EXPECT_EQ(find_location("atlantis"), nullptr);
  EXPECT_EQ(location_spec_name(madrid()), "madrid");
  EXPECT_NE(location_catalog_names().find("oslo"), std::string::npos);
}

}  // namespace
}  // namespace railcorr::solar
