// Temporal accessibility profile — the paper's questions 1 and 3 (§I):
// how does access vary over the day and week, and does the varying transit
// schedule "restrict or prevent access at particular times"?
//
// Compares access to hospitals across four time intervals, reports the
// per-zone temporal spread (the quantity ACSD summarises within one
// interval, here measured *between* intervals), and lists the zones whose
// access collapses outside the AM peak — temporal access deserts.
#include <algorithm>
#include <cstdio>

#include "core/temporal.h"
#include "serve/server.h"
#include "synth/city_builder.h"

using namespace staq;

int main() {
  auto built = synth::BuildCity(synth::CitySpec::Covely(0.15, 23));
  if (!built.ok()) return 1;
  serve::AqServer server(std::move(built).value(), gtfs::WeekdayAmPeak());

  serve::AqRequest request;
  request.category = synth::PoiCategory::kHospital;
  request.options.beta = 0.15;
  request.options.model = ml::ModelKind::kMlp;
  request.options.gravity.sample_rate_per_hour = 8;

  std::vector<gtfs::TimeInterval> intervals{
      gtfs::WeekdayAmPeak(), gtfs::WeekdayOffPeak(), gtfs::WeekdayPmPeak(),
      gtfs::SundayMorning()};

  // The same query in each interval: SetInterval re-runs the offline phase
  // (hop trees are interval-specific), then the query runs against it.
  std::vector<core::IntervalResult> results;
  for (const gtfs::TimeInterval& interval : intervals) {
    auto switched = server.SetInterval(interval);
    if (!switched.ok()) {
      std::fprintf(stderr, "%s\n", switched.status().ToString().c_str());
      return 1;
    }
    auto answer = server.Query(request);
    if (!answer.ok()) {
      std::fprintf(stderr, "%s\n", answer.status().ToString().c_str());
      return 1;
    }
    results.push_back({interval, std::move(answer).value()});
  }

  std::printf("access to hospitals across the schedule:\n");
  std::printf("%-18s %14s %12s %10s\n", "interval", "mean MAC (min)",
              "mean ACSD", "fairness");
  for (const core::IntervalResult& r : results) {
    std::printf("%-18s %14.1f %12.1f %10.3f\n", r.interval.label.c_str(),
                r.result.mean_mac / 60, r.result.mean_acsd / 60,
                r.result.fairness);
  }

  // Per-zone spread between intervals.
  auto spread = core::TemporalSpread(results);
  double mean_spread = 0, max_spread = 0;
  uint32_t most_volatile = 0;
  for (uint32_t z = 0; z < spread.size(); ++z) {
    mean_spread += spread[z];
    if (spread[z] > max_spread) {
      max_spread = spread[z];
      most_volatile = z;
    }
  }
  mean_spread /= static_cast<double>(spread.size());
  std::printf("\ntemporal spread (max - min MAC across intervals):\n");
  std::printf("  mean over zones : %.1f min\n", mean_spread / 60);
  std::printf("  most volatile   : zone %u, %.1f min swing\n", most_volatile,
              max_spread / 60);

  // Temporal access deserts: zones that are fine in the AM peak but lose
  // >50% of their access quality at some other time.
  auto deserts = core::TemporalAccessDeserts(results, /*factor=*/1.5);
  std::printf("\ntemporal access deserts (MAC worsens >1.5x vs AM peak): %zu"
              " of %zu zones\n", deserts.size(), spread.size());
  for (size_t i = 0; i < std::min<size_t>(deserts.size(), 5); ++i) {
    uint32_t z = deserts[i];
    std::printf("  zone %4u: ", z);
    for (const core::IntervalResult& r : results) {
      std::printf(" %s=%.0fmin", r.interval.label.c_str(),
                  r.result.mac[z] / 60);
    }
    std::printf("\n");
  }

  std::printf(
      "\nEach interval re-runs the offline phase (hop trees are interval-"
      "specific) and\na fresh SSR pass — the dynamic-AQ workload the paper "
      "targets.\n");
  return 0;
}
