// Vaccination-centre siting — the paper's motivating scenario (§I): the
// authors supported Transport for the West Midlands in locating COVID-19
// vaccination sites with a focus on the clinically vulnerable.
//
// This example:
//   1. measures baseline access to vaccination centres,
//   2. identifies the worst-served high-vulnerability zones,
//   3. evaluates candidate sites for ONE new centre by re-running the
//      access query per candidate (a dynamic AQ per candidate — the
//      workload that makes the SSR speed-up matter; each candidate is an
//      edit of the server's scenario, added and then removed),
//   4. recommends the candidate that most improves vulnerability-weighted
//      access.
#include <algorithm>
#include <cstdio>
#include <vector>

#include "serve/server.h"
#include "synth/city_builder.h"

using namespace staq;

namespace {

/// Vulnerability-weighted mean access cost: the quantity the planning
/// exercise minimises.
double VulnerableMeanAccess(const synth::City& city,
                            const std::vector<double>& mac) {
  double weighted = 0, weight = 0;
  for (const synth::Zone& z : city.zones) {
    double w = z.population * z.vulnerability;
    weighted += w * mac[z.id];
    weight += w;
  }
  return weighted / weight;
}

}  // namespace

int main() {
  auto built = synth::BuildCity(synth::CitySpec::Brindale(0.12, 11));
  if (!built.ok()) return 1;
  serve::AqServer server(std::move(built).value(), gtfs::WeekdayAmPeak());
  const synth::City& city = server.base_city();

  serve::AqRequest request;
  request.category = synth::PoiCategory::kVaxCenter;
  request.options.beta = 0.10;
  request.options.model = ml::ModelKind::kMlp;
  // Money + inconvenience.
  request.options.cost = core::CostKind::kGeneralizedCost;
  request.options.gravity.sample_rate_per_hour = 8;

  // 1. Baseline.
  auto baseline = server.Query(request);
  if (!baseline.ok()) {
    std::fprintf(stderr, "%s\n", baseline.status().ToString().c_str());
    return 1;
  }
  double baseline_cost = VulnerableMeanAccess(city, baseline.value().mac);
  std::printf("baseline vulnerable-weighted GAC : %.1f generalized minutes\n",
              baseline_cost / 60);
  std::printf("baseline fairness (vulnerable)   : %.3f\n",
              baseline.value().vulnerable_fairness);

  // 2. Worst-served vulnerable zones become candidate sites.
  std::vector<uint32_t> zone_ids(city.zones.size());
  for (uint32_t z = 0; z < zone_ids.size(); ++z) zone_ids[z] = z;
  std::sort(zone_ids.begin(), zone_ids.end(), [&](uint32_t a, uint32_t b) {
    auto need = [&](uint32_t z) {
      return baseline.value().mac[z] * city.zones[z].vulnerability *
             city.zones[z].population;
    };
    return need(a) > need(b);
  });
  std::vector<uint32_t> candidates(zone_ids.begin(), zone_ids.begin() + 4);

  std::printf("\ncandidate sites (worst vulnerability-weighted access):\n");
  for (uint32_t z : candidates) {
    std::printf("  zone %4u  MAC %.1f gen-min  vulnerability %.2f\n", z,
                baseline.value().mac[z] / 60, city.zones[z].vulnerability);
  }

  // 3. Evaluate each candidate with a dynamic AQ: add, query, remove.
  std::printf("\nevaluating candidates...\n");
  uint32_t best_zone = candidates[0];
  double best_cost = baseline_cost;
  for (uint32_t z : candidates) {
    auto added = server.AddPoi(synth::PoiCategory::kVaxCenter,
                               city.zones[z].centroid);
    if (!added.ok()) continue;
    auto with_site = server.Query(request);
    (void)server.RemovePoi(added.value().poi_id);
    if (!with_site.ok()) continue;
    double cost = VulnerableMeanAccess(city, with_site.value().mac);
    std::printf("  site at zone %4u -> %.1f gen-min (%+.1f%%), in %.2f s\n",
                z, cost / 60, 100 * (cost - baseline_cost) / baseline_cost,
                with_site.value().elapsed_s);
    if (cost < best_cost) {
      best_cost = cost;
      best_zone = z;
    }
  }

  // 4. Recommendation.
  std::printf("\nrecommended site: zone %u  (vulnerable-weighted GAC %.1f ->"
              " %.1f gen-min)\n",
              best_zone, baseline_cost / 60, best_cost / 60);
  return 0;
}
