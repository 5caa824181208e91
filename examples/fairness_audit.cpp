// Fairness audit — the paper's question 4 (§I): "are the accessibility
// benefits provided by the transit system fairly distributed between, and
// within, key demographic groups?"
//
// Audits access to each POI category across multiple time intervals,
// reporting the Jain fairness index (plain, population-weighted, and
// vulnerability-weighted) plus the gap between the most- and
// least-deprived halves of the city.
#include <algorithm>
#include <cstdio>
#include <vector>

#include "scenario/report.h"
#include "serve/server.h"
#include "synth/city_builder.h"

using namespace staq;

namespace {

/// Mean MAC over zones selected by a predicate.
template <typename Pred>
double GroupMean(const synth::City& city, const std::vector<double>& mac,
                 Pred pred) {
  double weighted = 0, weight = 0;
  for (const synth::Zone& z : city.zones) {
    if (!pred(z)) continue;
    weighted += z.population * mac[z.id];
    weight += z.population;
  }
  return weight > 0 ? weighted / weight : 0.0;
}

}  // namespace

int main() {
  auto built = synth::BuildCity(synth::CitySpec::Covely(0.15, 13));
  if (!built.ok()) return 1;
  serve::AqServer server(std::move(built).value(), gtfs::WeekdayAmPeak());
  const synth::City& city = server.base_city();

  // Median vulnerability splits the city into "more deprived" / "less
  // deprived" halves for the between-group gap.
  std::vector<double> vuln;
  for (const synth::Zone& z : city.zones) vuln.push_back(z.vulnerability);
  std::nth_element(vuln.begin(), vuln.begin() + vuln.size() / 2, vuln.end());
  double median_vuln = vuln[vuln.size() / 2];

  serve::AqRequest request;
  request.options.beta = 0.15;
  request.options.model = ml::ModelKind::kMlp;
  request.options.cost = core::CostKind::kGeneralizedCost;
  request.options.gravity.sample_rate_per_hour = 8;

  std::vector<gtfs::TimeInterval> intervals{
      gtfs::WeekdayAmPeak(), gtfs::WeekdayOffPeak(), gtfs::SundayMorning()};

  for (const gtfs::TimeInterval& interval : intervals) {
    if (auto switched = server.SetInterval(interval); !switched.ok()) {
      std::fprintf(stderr, "%s\n", switched.status().ToString().c_str());
      return 1;
    }
    std::printf("\n=== interval: %s ===\n", interval.label.c_str());
    std::printf("%-11s %9s %9s %9s %9s %14s\n", "poi", "jain", "pop-jain",
                "vuln-jain", "gap(min)", "mean MAC(min)");

    for (synth::PoiCategory category :
         {synth::PoiCategory::kSchool, synth::PoiCategory::kHospital,
          synth::PoiCategory::kVaxCenter, synth::PoiCategory::kJobCenter}) {
      request.category = category;
      auto result = server.Query(request);
      if (!result.ok()) {
        std::printf("%-11s query failed: %s\n",
                    synth::PoiCategoryName(category),
                    result.status().ToString().c_str());
        continue;
      }
      const core::AccessQueryResult& r = result.value();
      double deprived = GroupMean(city, r.mac, [&](const synth::Zone& z) {
        return z.vulnerability >= median_vuln;
      });
      double affluent = GroupMean(city, r.mac, [&](const synth::Zone& z) {
        return z.vulnerability < median_vuln;
      });
      std::printf("%-11s %9.3f %9.3f %9.3f %+9.1f %14.1f\n",
                  synth::PoiCategoryName(category), r.fairness,
                  r.population_fairness, r.vulnerable_fairness,
                  (deprived - affluent) / 60, r.mean_mac / 60);
    }
  }

  std::printf(
      "\nReading: Jain index near 1 = evenly distributed access; a positive"
      " gap means\nthe more-deprived half of the city pays more to reach the"
      " service. Off-peak and\nSunday rows show how fairness erodes when "
      "service thins out.\n");

  // The same peak-vs-Sunday question as a full equity report: exact
  // queries on both sides through the scenario formatter — per-zone MAC
  // deltas, class migration, the worst-hit zone — the identical rendering
  // `staq_cli scenario run` produces for disruption packs.
  serve::AqRequest exact = request;
  exact.category = synth::PoiCategory::kSchool;
  exact.options.exact = true;
  auto peak_switch = server.SetInterval(gtfs::WeekdayAmPeak());
  auto peak = server.Query(exact);
  auto sunday_switch = server.SetInterval(gtfs::SundayMorning());
  auto sunday = server.Query(exact);
  if (peak_switch.ok() && peak.ok() && sunday_switch.ok() && sunday.ok()) {
    scenario::EquityReport report = scenario::CompareAccess(
        "sunday_service", "covely", city.zones, peak.value(), sunday.value());
    std::printf("\n%s", scenario::FormatEquityReport(report).c_str());
  }
  return 0;
}
