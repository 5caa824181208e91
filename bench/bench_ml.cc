// SSR training throughput and thread-count bit-identity.
//
// Training is the third cost component of Table II. This bench fits every
// model on a Table-VI-like dataset (3217·scale zones, 20 features,
// β = 0.05) and prints fit/predict timings. MLP and COREG fan their fits
// out over `threads` workers; each is also fitted on one thread, and the
// two fits' predictions (and COREG's pseudo-label count) must be
// bit-identical before any number is reported. The outputs the training
// paths once matched against their slower originals are pinned by
// TrainingPathGoldenTest (tests/ml/model_golden_test.cc).
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
#include <thread>
#include <vector>

#include "bench_common.h"
#include "bench_registry.h"
#include "ml/coreg.h"
#include "ml/gnn.h"
#include "ml/mean_teacher.h"
#include "ml/mlp.h"
#include "ml/ols.h"
#include "testing_dataset.h"
#include "util/stopwatch.h"

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
  bool has_serial = false;  // fitted again on one thread
  Timed serial;
  bool bit_identical = true;
};

}  // namespace

exp::RunResult RunMlBench() {
  PrintHeader("SSR training throughput: threaded fits vs one thread");

  const size_t zones = std::max<size_t>(
      64, static_cast<size_t>(std::lround(3217.0 * BenchScale())));
  const size_t features = 20;
  const double beta = 0.05;
  ml::Dataset data = MakeZoneLikeDataset(zones, features, beta, BenchSeed());
  const int threads = Params().threads > 0
                          ? Params().threads
                          : static_cast<int>(
                                std::max(1u, std::thread::hardware_concurrency()));
  std::printf("  zones=%zu  features=%zu  beta=%.2f  labeled=%zu  threads=%d\n",
              zones, features, beta, data.labeled.size(), threads);

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
    ml::MlpConfig config;
    config.threads = threads;
    r.fit = FitAndPredict(
        [&] { return std::make_unique<ml::MlpRegressor>(config); }, data);
    ml::MlpConfig serial = config;
    serial.threads = 1;
    r.serial = FitAndPredict(
        [&] { return std::make_unique<ml::MlpRegressor>(serial); }, data);
    r.has_serial = true;
    r.bit_identical = BitIdentical(r.fit.predictions, r.serial.predictions);
    reports.push_back(std::move(r));
  }
  {
    ModelReport r;
    r.name = "COREG";
    ml::CoregConfig config;
    config.threads = threads;
    r.fit = FitAndPredict([&] { return std::make_unique<ml::Coreg>(config); },
                          data, kGatedRepeats);
    ml::CoregConfig serial = config;
    serial.threads = 1;
    r.serial = FitAndPredict(
        [&] { return std::make_unique<ml::Coreg>(serial); }, data);
    r.has_serial = true;
    r.bit_identical =
        BitIdentical(r.fit.predictions, r.serial.predictions) &&
        r.fit.coreg_pseudo_labels == r.serial.coreg_pseudo_labels;
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

  // Equivalence gate first: the thread count must never be observable in
  // a model, so a timing for a fit that depends on it would be meaningless.
  for (const ModelReport& r : reports) {
    if (r.has_serial && !r.bit_identical) {
      std::fprintf(stderr,
                   "FATAL: %s %d-thread fit is not bit-identical to its "
                   "1-thread fit\n",
                   r.name.c_str(), threads);
      return {1, ""};
    }
  }
  std::printf("  threaded fits bit-identical to 1-thread fits\n\n");

  std::printf("  %-7s %10s %12s %10s %12s %12s\n", "model", "fit_s",
              "fit zones/s", "predict_s", "zones/s", "1-thread fit_s");
  for (const ModelReport& r : reports) {
    std::printf("  %-7s %10.4f %12.0f %10.4f %12.0f", r.name.c_str(),
                r.fit.fit_s, static_cast<double>(zones) / r.fit.fit_s,
                r.fit.predict_s, static_cast<double>(zones) / r.fit.predict_s);
    if (r.has_serial) {
      std::printf(" %14.4f\n", r.serial.fit_s);
    } else {
      std::printf(" %14s\n", "-");
    }
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
  w.Int("threads", threads);
  w.BeginArray("models");
  for (const ModelReport& r : reports) {
    w.BeginObject();
    w.String("name", r.name);
    w.Fixed("fit_s", r.fit.fit_s, 6);
    w.Fixed("fit_zones_per_s", static_cast<double>(zones) / r.fit.fit_s, 1);
    w.Fixed("predict_s", r.fit.predict_s, 6);
    w.Fixed("predict_zones_per_s",
            static_cast<double>(zones) / r.fit.predict_s, 1);
    if (r.has_serial) {
      w.Fixed("serial_fit_s", r.serial.fit_s, 6);
      w.Bool("bit_identical", true);
    }
    if (r.fit.coreg_pseudo_labels >= 0) {
      w.Int("pseudo_labels", r.fit.coreg_pseudo_labels);
    }
    w.EndObject();
  }
  w.EndArray();
  w.EndObject();
  std::string json = w.Take();
  EmitBenchJson("ml", json);
  return {0, std::move(json)};
}

}  // namespace staq::bench
