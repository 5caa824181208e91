// Quality cell: one (city, poi, model, beta) point of the paper's sweeps.
//
// Unlike the grid benches (fig3/fig4/table2, which loop every combination
// internally), this bench evaluates exactly ONE configuration — the cell
// shape the staq::exp runner sweeps over. The runner's pivot tables
// (error vs budget, % SPQ reduction) are assembled from many quality
// cells, and the perfgate diff checks a checked-in quality baseline for
// metric drift (error ceilings, reduction floors).
//
// Cell parameters (via the `extra` side of BenchParams):
//   city   brindale | covely           (default brindale)
//   poi    school | hospital | vax_center | job_center   (default school)
//   model  OLS | MLP | COREG | MT | GNN                  (default MLP)
//   beta   labeling budget fraction                      (default 0.05)
//
// Output: BENCH_quality.json with jt_mae_min / mac_corr / class_accuracy
// plus the SPQ accounting (spqs, truth_spqs, spq_reduction_pct).
#include <cstdio>
#include <cstdlib>
#include <string>

#include "bench_common.h"
#include "bench_registry.h"

namespace staq::bench {

exp::RunResult RunQualityBench() {
  const std::string city_name = Params().Extra("city", "brindale");
  const std::string poi_name = Params().Extra("poi", "school");
  const std::string model_name = Params().Extra("model", "MLP");
  const double beta = std::atof(Params().Extra("beta", "0.05").c_str());

  PrintHeader("Quality cell: SSR error and SPQ reduction at one budget");
  std::printf("  city=%s poi=%s model=%s beta=%.2f\n", city_name.c_str(),
              poi_name.c_str(), model_name.c_str(), beta);

  if (beta <= 0.0 || beta > 1.0) {
    std::fprintf(stderr, "invalid beta %.4f (want 0 < beta <= 1)\n", beta);
    return {2, ""};
  }
  synth::CitySpec spec = synth::CitySpec::Brindale(BenchScale(), BenchSeed());
  if (city_name == "covely") {
    spec = synth::CitySpec::Covely(BenchScale(), BenchSeed() + 1);
  } else if (city_name != "brindale") {
    std::fprintf(stderr, "unknown city '%s'\n", city_name.c_str());
    return {2, ""};
  }
  auto category = synth::PoiCategoryFromName(poi_name);
  if (!category.ok()) {
    std::fprintf(stderr, "%s\n", category.status().message().c_str());
    return {2, ""};
  }
  auto model = ml::ModelKindFromName(model_name);
  if (!model.ok()) {
    std::fprintf(stderr, "%s\n", model.status().message().c_str());
    return {2, ""};
  }

  BenchCity bc = MakeBenchCity(spec);
  auto pois = bc.city->PoisOf(category.value());
  core::Todam todam = bc.harness->GravityTodam(pois, bc.gravity, BenchSeed());
  const std::vector<core::ZoneLabel> truth =
      bc.harness->Truth(category.value(), todam, core::CostKind::kJourneyTime);
  const uint64_t truth_spqs = todam.num_trips();  // one SPQ per trip

  core::PipelineConfig config;
  config.beta = beta;
  config.model = model.value();
  config.cost = core::CostKind::kJourneyTime;
  config.seed = BenchSeed();
  auto run = bc.harness->Run(category.value(), todam, config);
  if (!run.ok()) {
    std::fprintf(stderr, "pipeline run failed: %s\n",
                 run.status().ToString().c_str());
    return {1, ""};
  }
  core::EvaluationMetrics m = Evaluate(truth, run.value());
  const double spq_reduction_pct =
      100.0 * (1.0 - static_cast<double>(run.value().spqs) /
                         static_cast<double>(truth_spqs));

  std::printf("  jt_mae=%.2f min  mac_corr=%.3f  class_acc=%.3f  "
              "SPQs %llu vs %llu truth (%.1f%% fewer)\n",
              m.mac_mae / 60.0, m.mac_corr, m.class_accuracy,
              static_cast<unsigned long long>(run.value().spqs),
              static_cast<unsigned long long>(truth_spqs), spq_reduction_pct);

  JsonWriter w;
  w.BeginObject();
  w.String("bench", "quality");
  w.String("city", bc.name);
  w.String("poi", poi_name);
  w.String("model", model_name);
  w.Fixed("beta", beta, 4);
  w.Fixed("scale", BenchScale(), 4);
  w.Int("rate_per_hour", BenchRate());
  w.Uint("seed", BenchSeed());
  w.Uint("zones", bc.city->zones.size());
  w.Uint("pois", pois.size());
  w.Uint("trips", todam.num_trips());
  w.Uint("labeled_zones", run.value().labeled.size());
  w.Fixed("jt_mae_min", m.mac_mae / 60.0, 4);
  w.Fixed("mac_corr", m.mac_corr, 4);
  w.Fixed("class_accuracy", m.class_accuracy, 4);
  w.Uint("spqs", run.value().spqs);
  w.Uint("truth_spqs", truth_spqs);
  w.Fixed("spq_reduction_pct", spq_reduction_pct, 2);
  w.Fixed("labeling_s", run.value().timings.labeling_s, 6);
  w.Fixed("training_s", run.value().timings.training_s, 6);
  w.EndObject();
  std::string json = w.Take();
  EmitBenchJson("quality", json);
  return {0, std::move(json)};
}

}  // namespace staq::bench
