// SSR training throughput and repeat-fit bit-identity.
//
// Training is the third cost component of Table II. This bench fits every
// model on a Table-VI-like dataset (3217·scale zones, 20 features,
// β = 0.05) and prints fit/predict timings. MLP and COREG are each fitted
// again as a second model with the same config and data, and the two
// fits' predictions (and COREG's pseudo-label count) must be bit-identical
// before any number is reported: the result cache, replication and
// staqbench's replayer all rely on a refit reproducing a model. The
// outputs the training paths once matched against their slower originals
// are pinned by TrainingPathGoldenTest (tests/ml/model_golden_test.cc).
//
// The `ssr_fit` row times core::FitSsr, an SSR answer's two target fits,
// on the serve shape (MLP, 324 zones, 32 labeled): the caller fitting both
// targets, then the caller with one idle-priority helper (the server's
// split), the medians of kGatedRepeats + 1 and kGatedRepeats runs (the
// first caller run is the reference answer). It prints both and their
// ratio, and exits 1 unless every helped answer equals the caller's own bit
// for bit. The ratio is reported, not gated: on a shared host an
// idle-priority helper gets only the cores nothing else wants.
//
// Fit throughput (`fit_zones_per_s`) is gated against the checked-in
// baseline by bench/baselines/policy.rules. The gated COREG fit and
// predict times are the median of kGatedRepeats runs on fresh models: at
// perfgate scale a COREG fit takes ~3 ms, so a single timing moves by
// several times with one descheduling. Output: paper-style table on stdout
// and BENCH_ml.json in STAQ_BENCH_OUT.
#include <cmath>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "bench_common.h"
#include "bench_registry.h"
#include "core/pipeline.h"
#include "ml/coreg.h"
#include "ml/gnn.h"
#include "ml/mean_teacher.h"
#include "ml/mlp.h"
#include "ml/ols.h"
#include "testing_dataset.h"
#include "util/stopwatch.h"
#include "util/thread_pool.h"

namespace staq::bench {
namespace {

/// Fits (and predicts) behind each gated time, which is their median.
constexpr int kGatedRepeats = 5;

struct Timed {
  double fit_s = 0.0;
  double predict_s = 0.0;
  std::vector<double> predictions;
  int coreg_pseudo_labels = -1;
};

/// Fits and predicts a fresh model from `make` `repeats` times: the times
/// are the medians, the predictions the last run's (the fits are seeded,
/// so every run predicts the same).
template <class MakeModel>
Timed FitAndPredict(const MakeModel& make, const ml::Dataset& data,
                    int repeats = 1) {
  Timed t;
  std::vector<double> fit_s, predict_s;
  for (int rep = 0; rep < repeats; ++rep) {
    std::unique_ptr<ml::SsrModel> model = make();
    util::Stopwatch watch;
    auto status = model->Fit(data);
    fit_s.push_back(watch.ElapsedSeconds());
    if (!status.ok()) {
      std::fprintf(stderr, "FATAL: %s Fit failed: %s\n", model->name(),
                   status.ToString().c_str());
      std::exit(1);
    }
    watch.Reset();
    t.predictions = model->Predict();
    predict_s.push_back(watch.ElapsedSeconds());
    if (auto* coreg = dynamic_cast<ml::Coreg*>(model.get())) {
      t.coreg_pseudo_labels = coreg->pseudo_labels_added();
    }
  }
  t.fit_s = Summarise(fit_s).p50_ms;
  t.predict_s = Summarise(predict_s).p50_ms;
  return t;
}

bool BitIdentical(const std::vector<double>& a, const std::vector<double>& b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    // memcmp-style equality: NaNs would differ, and they should.
    if (a[i] != b[i]) return false;
  }
  return true;
}

struct ModelReport {
  std::string name;
  Timed fit;
  bool has_repeat = false;  // fitted again as a second model
  bool bit_identical = true;
};

/// Fits a second model from `make` and checks it against the timed fit.
template <class MakeModel>
void CheckRepeatFit(const MakeModel& make, const ml::Dataset& data,
                    ModelReport* r) {
  const Timed repeat = FitAndPredict(make, data);
  r->has_repeat = true;
  r->bit_identical =
      BitIdentical(r->fit.predictions, repeat.predictions) &&
      r->fit.coreg_pseudo_labels == repeat.coreg_pseudo_labels;
}

/// core::FitSsr on the serve shape (an MLP answer over 324 zones, 32 of
/// them labeled): timed with the caller fitting both targets and with one
/// idle-priority helper, and whether every helped answer equalled the
/// caller's own bit for bit.
struct SsrFitReport {
  size_t zones = 324;
  size_t labeled = 0;
  double caller_s = 0.0;
  double helped_s = 0.0;
  bool bit_identical = true;
};

SsrFitReport RunSsrFit(uint64_t seed) {
  SsrFitReport r;
  core::SsrSample sample;
  sample.dataset = MakeZoneLikeDataset(r.zones, 20, 0.1, seed);
  sample.result.labeled = sample.dataset.labeled;
  r.labeled = sample.dataset.labeled.size();
  // MAC is the dataset's target; ACSD a second smooth surface over it.
  std::vector<core::ZoneLabel> labels;
  for (uint32_t z : sample.dataset.labeled) {
    core::ZoneLabel label;
    label.mac = sample.dataset.y[z];
    label.acsd = 0.2 * label.mac +
                 150.0 * std::cos(sample.dataset.positions[z].x / 1700.0);
    labels.push_back(label);
  }
  sample.dataset.y.clear();
  core::PipelineConfig config;
  config.model = ml::ModelKind::kMlp;
  config.seed = seed;

  const auto fit = [&](util::ThreadPool* helpers, std::vector<double>* s) {
    util::Stopwatch watch;
    auto run = core::FitSsr(sample, labels, config, helpers);
    s->push_back(watch.ElapsedSeconds());
    if (!run.ok()) {
      std::fprintf(stderr, "FATAL: FitSsr failed: %s\n",
                   run.status().ToString().c_str());
      std::exit(1);
    }
    return std::move(run).value();
  };
  std::vector<double> caller_s, helped_s;
  const core::PipelineResult alone = fit(nullptr, &caller_s);
  for (int rep = 0; rep < kGatedRepeats; ++rep) {
    fit(nullptr, &caller_s);
    const core::PipelineResult helped =
        fit(&util::ThreadPool::Idle(), &helped_s);
    r.bit_identical = r.bit_identical && BitIdentical(helped.mac, alone.mac) &&
                      BitIdentical(helped.acsd, alone.acsd);
  }
  r.caller_s = Summarise(caller_s).p50_ms;
  r.helped_s = Summarise(helped_s).p50_ms;
  return r;
}

}  // namespace

exp::RunResult RunMlBench() {
  PrintHeader("SSR training throughput: fit and predict per model");

  const size_t zones = std::max<size_t>(
      64, static_cast<size_t>(std::lround(3217.0 * BenchScale())));
  const size_t features = 20;
  const double beta = 0.05;
  ml::Dataset data = MakeZoneLikeDataset(zones, features, beta, BenchSeed());
  std::printf("  zones=%zu  features=%zu  beta=%.2f  labeled=%zu\n", zones,
              features, beta, data.labeled.size());

  std::vector<ModelReport> reports;

  {
    ModelReport r;
    r.name = "OLS";
    r.fit = FitAndPredict([] { return std::make_unique<ml::OlsRegressor>(); },
                          data);
    reports.push_back(std::move(r));
  }
  {
    ModelReport r;
    r.name = "MLP";
    auto make = [] { return std::make_unique<ml::MlpRegressor>(); };
    r.fit = FitAndPredict(make, data);
    CheckRepeatFit(make, data, &r);
    reports.push_back(std::move(r));
  }
  {
    ModelReport r;
    r.name = "COREG";
    auto make = [] { return std::make_unique<ml::Coreg>(); };
    r.fit = FitAndPredict(make, data, kGatedRepeats);
    CheckRepeatFit(make, data, &r);
    reports.push_back(std::move(r));
  }
  {
    ModelReport r;
    r.name = "MT";
    r.fit = FitAndPredict([] { return std::make_unique<ml::MeanTeacher>(); },
                          data);
    reports.push_back(std::move(r));
  }
  {
    ModelReport r;
    r.name = "GNN";
    r.fit = FitAndPredict([] { return std::make_unique<ml::GnnRegressor>(); },
                          data);
    reports.push_back(std::move(r));
  }

  // Equivalence gate first: a model a refit does not reproduce has no
  // meaningful timing.
  for (const ModelReport& r : reports) {
    if (r.has_repeat && !r.bit_identical) {
      std::fprintf(stderr,
                   "FATAL: a second %s fit is not bit-identical to the "
                   "first\n",
                   r.name.c_str());
      return {1, ""};
    }
  }
  std::printf("  repeat fits bit-identical to the timed fits\n");

  const SsrFitReport ssr_fit = RunSsrFit(BenchSeed());
  if (!ssr_fit.bit_identical) {
    std::fprintf(stderr,
                 "FATAL: FitSsr with a helper is not bit-identical to the "
                 "caller's own fit\n");
    return {1, ""};
  }
  std::printf("  ssr_fit (MLP, %zu zones, %zu labeled): caller %.4f s, "
              "one idle helper %.4f s, %.2fx; answers bit-identical\n\n",
              ssr_fit.zones, ssr_fit.labeled, ssr_fit.caller_s,
              ssr_fit.helped_s, ssr_fit.caller_s / ssr_fit.helped_s);

  std::printf("  %-7s %10s %12s %10s %12s\n", "model", "fit_s",
              "fit zones/s", "predict_s", "zones/s");
  for (const ModelReport& r : reports) {
    std::printf("  %-7s %10.4f %12.0f %10.4f %12.0f\n", r.name.c_str(),
                r.fit.fit_s, static_cast<double>(zones) / r.fit.fit_s,
                r.fit.predict_s, static_cast<double>(zones) / r.fit.predict_s);
  }

  JsonWriter w;
  w.BeginObject();
  w.String("bench", "ml");
  w.Fixed("scale", BenchScale(), 4);
  w.Uint("seed", BenchSeed());
  w.Uint("zones", zones);
  w.Uint("features", features);
  w.Fixed("beta", beta, 2);
  w.Uint("labeled", data.labeled.size());
  w.BeginArray("models");
  for (const ModelReport& r : reports) {
    w.BeginObject();
    w.String("name", r.name);
    w.Fixed("fit_s", r.fit.fit_s, 6);
    w.Fixed("fit_zones_per_s", static_cast<double>(zones) / r.fit.fit_s, 1);
    w.Fixed("predict_s", r.fit.predict_s, 6);
    w.Fixed("predict_zones_per_s",
            static_cast<double>(zones) / r.fit.predict_s, 1);
    if (r.has_repeat) w.Bool("bit_identical", true);
    if (r.fit.coreg_pseudo_labels >= 0) {
      w.Int("pseudo_labels", r.fit.coreg_pseudo_labels);
    }
    w.EndObject();
  }
  w.EndArray();
  w.BeginObject("ssr_fit");
  w.String("model", "MLP");
  w.Uint("zones", ssr_fit.zones);
  w.Uint("labeled", ssr_fit.labeled);
  w.Fixed("caller_s", ssr_fit.caller_s, 6);
  w.Fixed("helped_s", ssr_fit.helped_s, 6);
  w.Fixed("speedup", ssr_fit.caller_s / ssr_fit.helped_s, 3);
  w.Bool("bit_identical", true);
  w.EndObject();
  w.EndObject();
  std::string json = w.Take();
  EmitBenchJson("ml", json);
  return {0, std::move(json)};
}

}  // namespace staq::bench
