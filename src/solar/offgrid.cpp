#include "solar/offgrid.hpp"

#include <algorithm>
#include <utility>

#include "solar/battery.hpp"
#include "util/contracts.hpp"

namespace railcorr::solar {

std::vector<DailyIrradiance> synthesize_days(const Location& location,
                                             const PlaneOfArray& plane,
                                             const WeatherModel& weather,
                                             std::uint64_t seed, int years) {
  RAILCORR_EXPECTS(years >= 1);
  IrradianceSynthesizer synth(location, plane, weather);
  Rng rng(seed);
  std::vector<DailyIrradiance> days;
  days.reserve(static_cast<std::size_t>(years) * 365);
  for (int y = 0; y < years; ++y) {
    auto year = synth.synthesize_year(rng);
    days.insert(days.end(), year.begin(), year.end());
  }
  return days;
}

std::vector<OffGridReport> simulate_cases(
    std::span<const DailyIrradiance> days,
    std::span<const OffGridCase> cases,
    std::span<const unsigned char> stoppable) {
  RAILCORR_EXPECTS(!days.empty());
  RAILCORR_EXPECTS(stoppable.empty() || stoppable.size() == cases.size());
  const std::size_t n = cases.size();
  std::vector<OffGridReport> reports(n);
  if (n == 0) return reports;

  // One live lane per case still stepping: its battery state, its
  // report accumulators and the running minimum of its raw state of
  // charge. The per-hour update below is the exact arithmetic of
  // Battery::charge / Battery::discharge and the historical per-system
  // day loop, evaluated per case in chronological order, so each report
  // is bit-identical to an independent OffGridSimulator run over the
  // same days. Lanes are independent, so dropping a stopped lane from
  // the batch leaves every other lane's arithmetic untouched.
  constexpr double kChargeEff = Battery::kDefaultChargeEfficiency;
  constexpr double kDischargeEff = Battery::kDefaultDischargeEfficiency;
  struct Lane {
    std::size_t case_index = 0;
    const double* pv = nullptr;    // this day's PV output [Wh] per hour
    const double* load = nullptr;  // the case's hourly load [W]
    double soc = 0.0;              // state of charge [Wh]; starts full
    double capacity = 0.0;
    double cutoff_wh = 0.0;        // cutoff_fraction * capacity
    double full_level = 0.0;       // capacity * (1 - 1e-9)
    double min_soc = 0.0;          // minimum soc seen [Wh]
    double pv_wh = 0.0;
    double load_wh = 0.0;
    double curtailed_wh = 0.0;
    double unserved_wh = 0.0;
    int downtime_hours = 0;
    int downtime_days = 0;
    int full_days = 0;
    bool stoppable = false;
    bool reached_full = false;     // this day
    bool any_unmet = false;        // this day
  };

  // Cases sharing an array share its hourly PV output: one 24-hour
  // series per distinct (peak power, 1 - loss) pair, refreshed per day.
  std::vector<std::pair<double, double>> arrays;
  std::vector<std::size_t> array_of(n);
  for (std::size_t c = 0; c < n; ++c) {
    const PvArray& array = cases[c].system.array;
    const std::pair<double, double> key{array.peak_power_wp(),
                                        1.0 - array.system_loss()};
    const auto found = std::find(arrays.begin(), arrays.end(), key);
    array_of[c] = static_cast<std::size_t>(found - arrays.begin());
    if (found == arrays.end()) arrays.push_back(key);
  }
  std::vector<double> pv_day(arrays.size() * 24);

  std::vector<Lane> lanes(n);
  for (std::size_t c = 0; c < n; ++c) {
    const OffGridSystem& system = cases[c].system;
    RAILCORR_EXPECTS(system.battery_capacity_wh > 0.0);
    RAILCORR_EXPECTS(system.battery_cutoff >= 0.0 &&
                     system.battery_cutoff < 1.0);
    Lane& lane = lanes[c];
    lane.case_index = c;
    lane.pv = pv_day.data() + array_of[c] * 24;
    lane.load = cases[c].consumption.hourly_watts.data();
    lane.soc = system.battery_capacity_wh;
    lane.capacity = system.battery_capacity_wh;
    lane.cutoff_wh = system.battery_cutoff * system.battery_capacity_wh;
    lane.full_level = system.battery_capacity_wh * (1.0 - 1e-9);
    lane.min_soc = system.battery_capacity_wh;
    lane.stoppable = !stoppable.empty() && stoppable[c] != 0;
  }

  const auto finish = [&](const Lane& lane) {
    OffGridReport& report = reports[lane.case_index];
    report.days_with_full_battery_pct =
        100.0 * static_cast<double>(lane.full_days) /
        static_cast<double>(days.size());
    report.downtime_days = lane.downtime_days;
    report.downtime_hours = lane.downtime_hours;
    report.unserved_energy = WattHours(lane.unserved_wh);
    report.annual_pv_energy = WattHours(lane.pv_wh);
    report.annual_load = WattHours(lane.load_wh);
    report.curtailed_energy = WattHours(lane.curtailed_wh);
    // Correctly rounded division by a positive capacity is monotone, so
    // the minimum of the per-hour fractions is the fraction of the
    // minimum state of charge, bit for bit.
    report.min_soc_fraction = std::min(1.0, lane.min_soc / lane.capacity);
  };

  for (const auto& day : days) {
    for (std::size_t a = 0; a < arrays.size(); ++a) {
      for (std::size_t h = 0; h < 24; ++h) {
        // PvArray::hourly_energy, with (1 - loss) hoisted (same value
        // every hour, so the product is unchanged).
        pv_day[a * 24 + h] =
            arrays[a].first * day.poa_wh_m2[h] / 1000.0 * arrays[a].second;
      }
    }
    for (Lane& lane : lanes) {
      lane.reached_full = false;
      lane.any_unmet = false;
    }
    for (std::size_t h = 0; h < 24; ++h) {
      for (Lane& lane : lanes) {
        const double pv = lane.pv[h];
        const double load = lane.load[h];
        lane.pv_wh += pv;
        lane.load_wh += load;

        if (pv >= load) {
          // Battery::charge on the surplus; the load is served directly.
          const double stored_if_all = (pv - load) * kChargeEff;
          const double headroom = lane.capacity - lane.soc;
          const double stored = std::min(stored_if_all, headroom);
          lane.soc += stored;
          lane.curtailed_wh += (stored_if_all - stored) / kChargeEff;
        } else {
          // Battery::discharge toward the deficit.
          const double deficit = load - pv;
          const double wanted_from_cells = deficit / kDischargeEff;
          const double available = std::max(0.0, lane.soc - lane.cutoff_wh);
          const double drawn = std::min(wanted_from_cells, available);
          lane.soc -= drawn;
          const double delivered = drawn * kDischargeEff;
          if (delivered < deficit - 1e-9) {
            lane.any_unmet = true;
            ++lane.downtime_hours;
            lane.unserved_wh += deficit - delivered;
          }
        }
        if (lane.soc >= lane.full_level) lane.reached_full = true;
        lane.min_soc = std::min(lane.min_soc, lane.soc);
      }
    }
    // Close the day; a stoppable lane with downtime leaves the batch.
    std::size_t live = 0;
    for (Lane& lane : lanes) {
      if (lane.reached_full) ++lane.full_days;
      if (lane.any_unmet) ++lane.downtime_days;
      if (lane.stoppable && lane.any_unmet) {
        finish(lane);
      } else {
        lanes[live++] = lane;
      }
    }
    lanes.resize(live);
    if (lanes.empty()) break;
  }

  for (const Lane& lane : lanes) finish(lane);
  return reports;
}

OffGridSimulator::OffGridSimulator(Location location, OffGridSystem system,
                                   ConsumptionProfile consumption,
                                   WeatherModel weather)
    : location_(std::move(location)),
      system_(system),
      consumption_(consumption),
      weather_(weather) {
  RAILCORR_EXPECTS(system_.battery_capacity_wh > 0.0);
}

OffGridReport OffGridSimulator::simulate_days(
    std::span<const DailyIrradiance> days) const {
  const OffGridCase single{system_, consumption_};
  return simulate_cases(days, std::span<const OffGridCase>(&single, 1))
      .front();
}

OffGridReport OffGridSimulator::simulate(std::uint64_t seed, int years) const {
  return simulate_days(
      synthesize_days(location_, system_.plane, weather_, seed, years));
}

OffGridReport OffGridSimulator::simulate_mean_year() const {
  IrradianceSynthesizer synth(location_, system_.plane, weather_);
  return simulate_days(synth.synthesize_mean_year());
}

}  // namespace railcorr::solar
