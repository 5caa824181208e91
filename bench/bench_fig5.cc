// Fig. 5 — Predicted GAC MAC choropleth for vaccination centres:
// Brindale at beta = 3%, Covely at beta = 10% (the budgets the paper maps).
//
// Output: a per-zone CSV (zone id, centroid, truth MAC, predicted MAC) and
// a coarse ASCII choropleth comparing the spatial pattern of ground truth
// vs prediction — the "accurately captures accessibility patterns even with
// low labeling budgets" claim, made inspectable in a terminal.
#include <algorithm>
#include <cstdio>

#include "bench_common.h"
#include "bench_registry.h"

namespace staq::bench {
namespace {

/// Renders zone values as an ASCII grid using quintile shades.
void AsciiChoropleth(const synth::City& city, const std::vector<double>& mac,
                     const char* title) {
  // Shades light->dark = good->bad access.
  const char kShades[] = {'.', ':', 'o', 'O', '#'};
  std::vector<double> sorted = mac;
  std::sort(sorted.begin(), sorted.end());
  auto shade = [&](double v) {
    size_t rank = std::lower_bound(sorted.begin(), sorted.end(), v) -
                  sorted.begin();
    size_t quintile = rank * 5 / sorted.size();
    return kShades[std::min<size_t>(quintile, 4)];
  };

  // Map zones back onto their lattice; lattice order is row-major by
  // construction.
  int cols = city.spec.zones_x;
  int rows = city.spec.zones_y;
  // Cap the rendering width for readability.
  int step = std::max(1, cols / 64);
  std::printf("\n%s  ('.'=best access quintile, '#'=worst)\n", title);
  for (int y = rows - 1; y >= 0; y -= step) {
    std::printf("  ");
    for (int x = 0; x < cols; x += step) {
      std::printf("%c", shade(mac[static_cast<size_t>(y) * cols + x]));
    }
    std::printf("\n");
  }
}

}  // namespace

exp::RunResult RunFig5Bench() {
  PrintHeader("Fig. 5: predicted GAC MAC maps for vaccination centres");
  util::CsvTable csv({"city", "beta", "zone", "x_m", "y_m", "truth_mac",
                      "predicted_mac", "labeled"});

  struct MapSpec {
    synth::CitySpec spec;
    double beta;
  };
  std::vector<MapSpec> maps{
      {synth::CitySpec::Brindale(BenchScale(), BenchSeed()), 0.03},
      {synth::CitySpec::Covely(BenchScale(), BenchSeed() + 1), 0.10},
  };

  for (MapSpec& map_spec : maps) {
    BenchCity bc = MakeBenchCity(map_spec.spec);
    auto pois = bc.city->PoisOf(synth::PoiCategory::kVaxCenter);
    core::Todam todam = bc.harness->GravityTodam(pois, bc.gravity, BenchSeed());
    const std::vector<core::ZoneLabel> truth =
        bc.harness->Truth(synth::PoiCategory::kVaxCenter, todam,
                          core::CostKind::kGeneralizedCost);
    std::vector<double> truth_mac;
    for (const core::ZoneLabel& label : truth) truth_mac.push_back(label.mac);

    core::PipelineConfig config;
    config.beta = map_spec.beta;
    config.model = ml::ModelKind::kMlp;
    config.cost = core::CostKind::kGeneralizedCost;
    config.seed = BenchSeed();
    auto run = bc.harness->Run(synth::PoiCategory::kVaxCenter, todam, config);
    if (!run.ok()) {
      std::fprintf(stderr, "run failed: %s\n",
                   run.status().ToString().c_str());
      return {1, ""};
    }

    core::EvaluationMetrics m = Evaluate(truth, run.value());
    std::printf("\n=== %s at beta=%.0f%%: MAC corr %.3f, MAE %.1f gen-min ===\n",
                bc.name.c_str(), map_spec.beta * 100, m.mac_corr,
                m.mac_mae / 60);

    AsciiChoropleth(*bc.city, truth_mac, "ground truth");
    AsciiChoropleth(*bc.city, run.value().mac, "SSR prediction");

    std::vector<uint8_t> labeled(bc.city->zones.size(), 0);
    for (uint32_t z : run.value().labeled) labeled[z] = 1;
    for (uint32_t z = 0; z < bc.city->zones.size(); ++z) {
      (void)csv.AddRow({bc.name, util::CsvTable::Num(map_spec.beta, 2),
                        util::CsvTable::Num(static_cast<int64_t>(z)),
                        util::CsvTable::Num(bc.city->zones[z].centroid.x, 1),
                        util::CsvTable::Num(bc.city->zones[z].centroid.y, 1),
                        util::CsvTable::Num(truth_mac[z], 1),
                        util::CsvTable::Num(run.value().mac[z], 1),
                        util::CsvTable::Num(static_cast<int64_t>(labeled[z]))});
    }
  }

  std::printf(
      "\nPaper reference (Fig. 5): the predicted map reproduces the spatial "
      "access\npattern (good centre / worse periphery structure) at low "
      "budgets.\n");
  EmitCsv(csv, "fig5_mac_maps.csv");

  JsonWriter w;
  w.BeginObject();
  w.String("bench", "fig5");
  w.Fixed("scale", BenchScale(), 4);
  w.Int("rate_per_hour", BenchRate());
  w.Uint("seed", BenchSeed());
  w.String("csv", "fig5_mac_maps.csv");
  w.Uint("csv_rows", csv.num_rows());
  w.EndObject();
  std::string json = w.Take();
  EmitBenchJson("fig5", json);
  return {0, std::move(json)};
}

}  // namespace staq::bench
