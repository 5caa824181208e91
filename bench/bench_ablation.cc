// Ablation benches for the design choices DESIGN.md calls out:
//
//  A. Distance-decay scale: how the gravity e-folding distance trades the
//     Table-I matrix reduction against the walk-only trip share that
//     §V-B2 identifies as the driver of weak ACSD correlations.
//  B. Feature-group ablation: geometry-only vs + hop-tree connectivity vs
//     + interchanges vs the full 20-dim descriptor (MLP, beta = 5%).
//  C. Keep-scale sweep: thinner gravity matrices vs labeling cost and
//     estimate quality at a fixed beta.
//  D. Active-learning sampling strategies against random sampling.
//
// Parallel labeling is timed by bench_labeling's helped rows, on the
// serving loop.
#include <cstdio>
#include <set>

#include "bench_common.h"
#include "bench_registry.h"

namespace staq::bench {
namespace {

void DecayScaleSweep(BenchCity& bc, util::CsvTable* csv) {
  std::printf("\n--- A. distance-decay scale sweep (%s, schools) ---\n",
              bc.name.c_str());
  std::printf("%10s %12s %10s %12s\n", "decay_m", "gravity_trips", "%red",
              "walk_share");
  auto pois = bc.city->PoisOf(synth::PoiCategory::kSchool);
  router::WalkParams walk;
  for (double decay : {1500.0, 3000.0, 6000.0, 12000.0}) {
    core::GravityConfig gravity = bc.gravity;
    gravity.decay_scale_m = decay;
    core::TodamBuilder builder(bc.city->zones, pois, gtfs::WeekdayAmPeak(),
                               gravity);
    core::Todam todam = builder.BuildGravity(BenchSeed());
    double reduction = 100.0 * (1.0 - static_cast<double>(todam.num_trips()) /
                                          builder.FullTripCount());
    double walk_share = todam.WalkOnlyFraction(
        bc.city->zones, pois, walk.ReachMeters(walk.max_access_walk_s));
    std::printf("%10.0f %12llu %9.1f%% %11.1f%%\n", decay,
                static_cast<unsigned long long>(todam.num_trips()), reduction,
                100 * walk_share);
    (void)csv->AddRow({"decay_sweep", bc.name, util::CsvTable::Num(decay, 0),
                       util::CsvTable::Num(static_cast<int64_t>(todam.num_trips())),
                       util::CsvTable::Num(reduction, 2),
                       util::CsvTable::Num(walk_share, 4)});
  }
}

void FeatureAblation(BenchCity& bc, util::CsvTable* csv) {
  std::printf("\n--- B. feature-group ablation (%s, vax centres, MLP, "
              "beta=5%%) ---\n", bc.name.c_str());
  auto pois = bc.city->PoisOf(synth::PoiCategory::kVaxCenter);
  core::Todam todam = bc.harness->GravityTodam(pois, bc.gravity, BenchSeed());
  const std::vector<core::ZoneLabel> truth = bc.harness->Truth(
      synth::PoiCategory::kVaxCenter, todam, core::CostKind::kJourneyTime);
  ml::Matrix full = bc.harness->Features(pois, todam);

  struct Group {
    const char* name;
    std::set<size_t> keep;  // feature indices retained
  };
  // Indices follow core/features.cc: 0-1 geometry, 2-9 hop-tree leaves,
  // 10-15 interchanges + high-frequency, 16-19 origin coverage.
  std::vector<Group> groups{
      {"geometry_only", {0, 1}},
      {"+hoptree", {0, 1, 2, 3, 4, 5, 6, 7, 8, 9}},
      {"+interchange", {0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15}},
      {"full", {}},  // empty = all
  };

  std::printf("%-15s %10s %10s %10s\n", "features", "mac_corr", "mae_min",
              "acsd_corr");
  for (const Group& group : groups) {
    // Excluded columns are zeroed: constant columns standardise to zero,
    // removing their influence without reshaping the matrix.
    ml::Matrix masked = full;
    if (!group.keep.empty()) {
      for (size_t r = 0; r < masked.rows(); ++r) {
        for (size_t c = 0; c < masked.cols(); ++c) {
          if (group.keep.count(c) == 0) masked(r, c) = 0.0;
        }
      }
    }
    core::PipelineConfig config;
    config.beta = 0.05;
    config.model = ml::ModelKind::kMlp;
    config.seed = BenchSeed();
    auto run = bc.harness->Run(synth::PoiCategory::kVaxCenter, todam, config,
                               &masked);
    if (!run.ok()) continue;
    core::EvaluationMetrics m = Evaluate(truth, run.value());
    std::printf("%-15s %10.3f %10.2f %10.3f\n", group.name, m.mac_corr,
                m.mac_mae / 60, m.acsd_corr);
    (void)csv->AddRow({"feature_ablation", bc.name, group.name,
                       util::CsvTable::Num(m.mac_corr, 3),
                       util::CsvTable::Num(m.mac_mae / 60, 3),
                       util::CsvTable::Num(m.acsd_corr, 3)});
  }
}

void KeepScaleSweep(BenchCity& bc, util::CsvTable* csv) {
  std::printf("\n--- C. keep-scale sweep (%s, schools, MLP, beta=10%%) ---\n",
              bc.name.c_str());
  std::printf("%10s %12s %10s %10s %12s\n", "keep", "trips", "label_s",
              "mac_corr", "mae_min");
  auto pois = bc.city->PoisOf(synth::PoiCategory::kSchool);
  for (double factor : {0.25, 0.5, 1.0, 2.0}) {
    core::GravityConfig gravity = bc.gravity;
    gravity.keep_scale *= factor;
    core::Todam todam = bc.harness->GravityTodam(pois, gravity, BenchSeed());
    const std::vector<core::ZoneLabel> truth = bc.harness->Truth(
        synth::PoiCategory::kSchool, todam, core::CostKind::kJourneyTime);
    core::PipelineConfig config;
    config.beta = 0.10;
    config.model = ml::ModelKind::kMlp;
    config.seed = BenchSeed();
    auto run = bc.harness->Run(synth::PoiCategory::kSchool, todam, config);
    if (!run.ok()) continue;
    core::EvaluationMetrics m = Evaluate(truth, run.value());
    std::printf("%10.2f %12llu %10.2f %10.3f %12.2f\n", gravity.keep_scale,
                static_cast<unsigned long long>(todam.num_trips()),
                run.value().timings.labeling_s, m.mac_corr, m.mac_mae / 60);
    (void)csv->AddRow({"keep_sweep", bc.name,
                       util::CsvTable::Num(gravity.keep_scale, 3),
                       util::CsvTable::Num(static_cast<int64_t>(todam.num_trips())),
                       util::CsvTable::Num(m.mac_corr, 3),
                       util::CsvTable::Num(m.mac_mae / 60, 3)});
  }
}

void SamplingStrategyComparison(BenchCity& bc, util::CsvTable* csv) {
  std::printf("\n--- D. sampling strategies (%s, vax centres, MLP) ---\n",
              bc.name.c_str());
  auto pois = bc.city->PoisOf(synth::PoiCategory::kVaxCenter);
  core::Todam todam = bc.harness->GravityTodam(pois, bc.gravity, BenchSeed());
  const std::vector<core::ZoneLabel> truth = bc.harness->Truth(
      synth::PoiCategory::kVaxCenter, todam, core::CostKind::kJourneyTime);
  ml::Matrix features = bc.harness->Features(pois, todam);

  std::printf("%-16s %8s %10s %10s\n", "strategy", "beta", "mac_corr",
              "mae_min");
  for (double beta : {0.03, 0.05, 0.10}) {
    for (core::SamplingStrategy strategy :
         {core::SamplingStrategy::kRandom,
          core::SamplingStrategy::kSpatialSpread,
          core::SamplingStrategy::kFeatureDiverse}) {
      core::PipelineConfig config;
      config.beta = beta;
      config.model = ml::ModelKind::kMlp;
      config.sampling = strategy;
      config.seed = BenchSeed();
      auto run = bc.harness->Run(synth::PoiCategory::kVaxCenter, todam,
                                 config, &features);
      if (!run.ok()) continue;
      core::EvaluationMetrics m = Evaluate(truth, run.value());
      std::printf("%-16s %7.0f%% %10.3f %10.2f\n",
                  core::SamplingStrategyName(strategy), beta * 100,
                  m.mac_corr, m.mac_mae / 60);
      (void)csv->AddRow({"sampling", bc.name,
                         core::SamplingStrategyName(strategy),
                         util::CsvTable::Num(beta, 2),
                         util::CsvTable::Num(m.mac_corr, 3),
                         util::CsvTable::Num(m.mac_mae / 60, 3)});
    }
  }
}

}  // namespace

exp::RunResult RunAblationBench() {
  PrintHeader(
      "Ablations: decay scale, feature groups, keep scale, sampling "
      "strategies");
  util::CsvTable csv({"experiment", "city", "x", "v1", "v2", "v3"});

  auto cities = MakeBothCities();
  for (BenchCity& bc : cities) {
    DecayScaleSweep(bc, &csv);
  }
  FeatureAblation(cities[0], &csv);
  KeepScaleSweep(cities[0], &csv);
  SamplingStrategyComparison(cities[0], &csv);

  std::printf(
      "\nExpected shapes: flatter decay -> weaker reduction but lower walk-"
      "only share;\neach feature group adds MAC-corr over geometry alone; "
      "thinner matrices label\nfaster at mild quality cost; coverage-aware "
      "sampling helps most at tiny budgets.\n");
  EmitCsv(csv, "ablation.csv");

  JsonWriter w;
  w.BeginObject();
  w.String("bench", "ablation");
  w.Fixed("scale", BenchScale(), 4);
  w.Int("rate_per_hour", BenchRate());
  w.Uint("seed", BenchSeed());
  w.String("csv", "ablation.csv");
  w.Uint("csv_rows", csv.num_rows());
  w.EndObject();
  std::string json = w.Take();
  EmitBenchJson("ablation", json);
  return {0, std::move(json)};
}

}  // namespace staq::bench
