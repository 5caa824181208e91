#include "core/pipeline.h"

#include <memory>

#include "util/failpoint.h"
#include "util/parallel_loop.h"
#include "util/stopwatch.h"

namespace staq::core {

namespace {

/// Non-negative clamp: MAC and ACSD are costs / dispersions, so negative
/// model outputs are truncated.
void ClampNonNegative(std::vector<double>* values) {
  for (double& v : *values) {
    if (v < 0.0) v = 0.0;
  }
}

/// An SSR answer's two targets, in fit order: MAC, then ACSD.
constexpr double ZoneLabel::*kTargets[2] = {&ZoneLabel::mac,
                                            &ZoneLabel::acsd};

/// The model's predictions, with each labeled zone's exact `measure` in
/// place of its own.
std::vector<double> Blend(std::vector<double> predictions,
                          const std::vector<uint32_t>& labeled,
                          const std::vector<ZoneLabel>& labels,
                          double ZoneLabel::*measure) {
  for (size_t i = 0; i < labeled.size(); ++i) {
    predictions[labeled[i]] = labels[i].*measure;
  }
  return predictions;
}

}  // namespace

EvaluationMetrics Evaluate(const std::vector<ZoneLabel>& truth,
                           const PipelineResult& result) {
  std::vector<double> truth_mac, truth_acsd;
  for (const ZoneLabel& label : truth) {
    truth_mac.push_back(label.mac);
    truth_acsd.push_back(label.acsd);
  }
  // Metrics are computed over the unlabeled zones: those are the ones the
  // model actually inferred.
  std::vector<uint8_t> is_labeled(truth.size(), 0);
  for (uint32_t z : result.labeled) is_labeled[z] = 1;

  std::vector<double> t_mac, p_mac, t_acsd, p_acsd;
  for (size_t z = 0; z < truth.size(); ++z) {
    if (is_labeled[z]) continue;
    t_mac.push_back(truth_mac[z]);
    p_mac.push_back(result.mac[z]);
    t_acsd.push_back(truth_acsd[z]);
    p_acsd.push_back(result.acsd[z]);
  }

  EvaluationMetrics m;
  if (!t_mac.empty()) {
    m.mac_mae = ml::MeanAbsoluteError(t_mac, p_mac);
    m.mac_corr = ml::PearsonCorrelation(t_mac, p_mac);
    m.acsd_mae = ml::MeanAbsoluteError(t_acsd, p_acsd);
    m.acsd_corr = ml::PearsonCorrelation(t_acsd, p_acsd);

    // Classification uses the full-population thresholds (class boundaries
    // are defined over all zones), then accuracy over the unlabeled set.
    std::vector<int> truth_classes =
        ClassifyAccessibility(truth_mac, truth_acsd);
    std::vector<int> pred_classes =
        ClassifyAccessibility(result.mac, result.acsd);
    std::vector<int> t_cls, p_cls;
    for (size_t z = 0; z < truth.size(); ++z) {
      if (is_labeled[z]) continue;
      t_cls.push_back(truth_classes[z]);
      p_cls.push_back(pred_classes[z]);
    }
    m.class_accuracy = ml::ClassificationAccuracy(t_cls, p_cls);
  }
  m.fie = FairnessIndexError(truth_mac, result.mac);
  return m;
}

util::Result<SsrSample> DrawSsrSample(
    const synth::City& city, const FeatureExtractor& features_extractor,
    const std::vector<synth::Poi>& pois, const Todam& todam,
    const PipelineConfig& config, const ml::Matrix* precomputed_features) {
  if (config.cost == CostKind::kGeneralizedCost && !config.gac.Valid()) {
    return util::Status::InvalidArgument(
        "invalid GAC weights (negative λ or non-positive value of time)");
  }

  SsrSample sample;
  PipelineResult& result = sample.result;
  util::Stopwatch watch;

  // --- online feature extraction, aggregated to origin level -------------
  ml::Matrix& features = sample.dataset.x;
  if (precomputed_features != nullptr) {
    features = *precomputed_features;
  } else {
    features = features_extractor.ExtractZoneMatrix(pois, todam.alpha());
    result.timings.features_s = watch.ElapsedSeconds();
  }

  // --- sampling -----------------------------------------------------------
  std::vector<geo::Point>& zone_positions = sample.dataset.positions;
  zone_positions.reserve(city.zones.size());
  for (const synth::Zone& z : city.zones) {
    zone_positions.push_back(z.centroid);
  }
  auto labeled =
      SelectLabeledZones(config.sampling, city.zones.size(), config.beta,
                         config.seed, &zone_positions, &features);
  if (!labeled.ok()) return labeled.status();
  result.labeled = std::move(labeled).value();
  sample.dataset.labeled = result.labeled;
  return sample;
}

util::Result<PipelineResult> FitSsr(SsrSample sample,
                                    const std::vector<ZoneLabel>& labels,
                                    const PipelineConfig& config,
                                    util::ThreadPool* helpers) {
  PipelineResult result = std::move(sample.result);
  util::Stopwatch watch;

  // --- SSR training + transductive inference, one model per target --------
  // Target t fits kTargets[t] under config.seed + t. The items own what
  // they touch: a straggling helper may still be fitting after this
  // returns (util/parallel_loop.h).
  struct Fits {
    std::vector<double> predictions[2];
    util::Status status[2];
  };
  auto fits = std::make_shared<Fits>();
  const util::LoopTask fit =
      [dataset = std::make_shared<const ml::Dataset>(std::move(sample.dataset)),
       shared_labels = std::make_shared<const std::vector<ZoneLabel>>(labels),
       fits, kind = config.model,
       seed = config.seed](size_t target) -> util::LoopStore {
    ml::Dataset data = *dataset;  // this target's own y
    data.y.assign(data.positions.size(), 0.0);  // one per zone
    for (size_t i = 0; i < data.labeled.size(); ++i) {
      data.y[data.labeled[i]] = (*shared_labels)[i].*kTargets[target];
    }
    // Fault site (tests): a target's fit, its inputs built, failing or
    // stalling.
    STAQ_FAILPOINT("core.fit_ssr.target");
    auto model = ml::CreateModel(kind, seed + target);
    util::Status status = model->Fit(data);
    std::vector<double> predictions;
    if (status.ok()) predictions = model->Predict();
    return [fits, target, status = std::move(status),
            predictions = std::move(predictions)]() mutable {
      fits->status[target] = std::move(status);
      fits->predictions[target] = std::move(predictions);
    };
  };
  if (helpers == nullptr) {
    for (size_t target = 0; target < 2; ++target) fit(target)();
  } else {
    util::ParallelLoop(*helpers, 2, 1, [fit](bool helper) -> util::LoopTask {
      if (!helper) return fit;
      return [fit](size_t target) {
        // Fault site (tests): the helper failing or stalling on its target.
        STAQ_FAILPOINT("core.fit_ssr.helper");
        return fit(target);
      };
    });
  }
  result.timings.training_s = watch.ElapsedSeconds();
  STAQ_RETURN_NOT_OK(fits->status[0]);
  STAQ_RETURN_NOT_OK(fits->status[1]);

  ClampNonNegative(&fits->predictions[0]);
  ClampNonNegative(&fits->predictions[1]);
  result.mac = Blend(std::move(fits->predictions[0]), result.labeled, labels,
                     kTargets[0]);
  result.acsd = Blend(std::move(fits->predictions[1]), result.labeled, labels,
                      kTargets[1]);
  return result;
}

}  // namespace staq::core
