#include "core/pipeline.h"

#include <algorithm>
#include <numeric>

#include "core/parallel_labeling.h"
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

/// Fills `out` with ground-truth values at labeled positions and model
/// predictions elsewhere.
std::vector<double> Blend(const std::vector<double>& predictions,
                          const std::vector<uint32_t>& labeled,
                          const std::vector<double>& labels) {
  std::vector<double> out = predictions;
  for (size_t i = 0; i < labeled.size(); ++i) {
    out[labeled[i]] = labels[i];
  }
  return out;
}

}  // namespace

EvaluationMetrics Evaluate(const GroundTruth& truth,
                           const PipelineResult& result) {
  // Metrics are computed over the unlabeled zones: those are the ones the
  // model actually inferred.
  std::vector<uint8_t> is_labeled(truth.mac.size(), 0);
  for (uint32_t z : result.labeled) is_labeled[z] = 1;

  std::vector<double> t_mac, p_mac, t_acsd, p_acsd;
  for (size_t z = 0; z < truth.mac.size(); ++z) {
    if (is_labeled[z]) continue;
    t_mac.push_back(truth.mac[z]);
    p_mac.push_back(result.mac[z]);
    t_acsd.push_back(truth.acsd[z]);
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
        ClassifyAccessibility(truth.mac, truth.acsd);
    std::vector<int> pred_classes =
        ClassifyAccessibility(result.mac, result.acsd);
    std::vector<int> t_cls, p_cls;
    for (size_t z = 0; z < truth.mac.size(); ++z) {
      if (is_labeled[z]) continue;
      t_cls.push_back(truth_classes[z]);
      p_cls.push_back(pred_classes[z]);
    }
    m.class_accuracy = ml::ClassificationAccuracy(t_cls, p_cls);
  }
  m.fie = FairnessIndexError(truth.mac, result.mac);
  return m;
}

SsrPipeline::SsrPipeline(const synth::City* city, gtfs::TimeInterval interval,
                         IsochroneConfig iso_config,
                         router::RouterOptions router_options)
    : city_(city), interval_(interval) {
  util::Stopwatch watch;
  isochrones_ = std::make_unique<IsochroneSet>(*city_, iso_config);
  hop_trees_ = std::make_unique<HopTreeSet>(*city_, *isochrones_, interval_);
  router_ = std::make_unique<router::Router>(&city_->feed, router_options);
  features_ = std::make_unique<FeatureExtractor>(city_, isochrones_.get(),
                                                 hop_trees_.get());
  offline_s_ = watch.ElapsedSeconds();
}

Todam SsrPipeline::BuildGravityTodam(const std::vector<synth::Poi>& pois,
                                     const GravityConfig& gravity,
                                     uint64_t seed) const {
  TodamBuilder builder(city_->zones, pois, interval_, gravity);
  return builder.BuildGravity(seed);
}

util::Result<PipelineResult> RunSsr(
    const synth::City& city, const FeatureExtractor& features_extractor,
    router::Router* router, const std::vector<synth::Poi>& pois,
    const Todam& todam, gtfs::Day day, const PipelineConfig& config,
    const ml::Matrix* precomputed_features, double precomputed_features_s) {
  auto sample = LabelSsrSample(city, features_extractor, router, pois, todam,
                               day, config, precomputed_features,
                               precomputed_features_s);
  if (!sample.ok()) return sample.status();
  return FitSsr(std::move(sample).value(), config);
}

util::Result<SsrSample> LabelSsrSample(
    const synth::City& city, const FeatureExtractor& features_extractor,
    router::Router* router, const std::vector<synth::Poi>& pois,
    const Todam& todam, gtfs::Day day, const PipelineConfig& config,
    const ml::Matrix* precomputed_features, double precomputed_features_s) {
  if (config.cost == CostKind::kGeneralizedCost && !config.gac.Valid()) {
    return util::Status::InvalidArgument(
        "invalid GAC weights (negative λ or non-positive value of time)");
  }

  SsrSample sample;
  PipelineResult& result = sample.result;
  util::Stopwatch watch;

  // --- online feature extraction, aggregated to origin level -------------
  watch.Reset();
  ml::Matrix& features = sample.dataset.x;
  if (precomputed_features != nullptr) {
    features = *precomputed_features;
    result.timings.features_s = precomputed_features_s;
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

  // --- labeling (SPQs) -----------------------------------------------------
  watch.Reset();
  LabelingEngine labeler(&city, router, config.gac);
  std::vector<ZoneLabel> labels =
      labeler.LabelZones(todam, result.labeled, pois, config.cost, day);
  result.spqs = labeler.spq_count();
  result.expansions = labeler.expansion_count();
  result.timings.labeling_s = watch.ElapsedSeconds();

  sample.mac_labels.resize(labels.size());
  sample.acsd_labels.resize(labels.size());
  for (size_t i = 0; i < labels.size(); ++i) {
    sample.mac_labels[i] = labels[i].mac;
    sample.acsd_labels[i] = labels[i].acsd;
  }
  return sample;
}

util::Result<PipelineResult> FitSsr(SsrSample sample,
                                    const PipelineConfig& config) {
  PipelineResult result = std::move(sample.result);
  ml::Dataset& dataset = sample.dataset;
  util::Stopwatch watch;

  // --- SSR training + transductive inference, one model per target --------
  dataset.y.assign(dataset.positions.size(), 0.0);  // one per zone
  for (size_t i = 0; i < result.labeled.size(); ++i) {
    dataset.y[result.labeled[i]] = sample.mac_labels[i];
  }
  auto mac_model = ml::CreateModel(config.model, config.seed);
  STAQ_RETURN_NOT_OK(mac_model->Fit(dataset));
  std::vector<double> mac_pred = mac_model->Predict();

  for (size_t i = 0; i < result.labeled.size(); ++i) {
    dataset.y[result.labeled[i]] = sample.acsd_labels[i];
  }
  auto acsd_model = ml::CreateModel(config.model, config.seed + 1);
  STAQ_RETURN_NOT_OK(acsd_model->Fit(dataset));
  std::vector<double> acsd_pred = acsd_model->Predict();
  result.timings.training_s = watch.ElapsedSeconds();

  ClampNonNegative(&mac_pred);
  ClampNonNegative(&acsd_pred);
  result.mac = Blend(mac_pred, result.labeled, sample.mac_labels);
  result.acsd = Blend(acsd_pred, result.labeled, sample.acsd_labels);
  return result;
}

util::Result<PipelineResult> SsrPipeline::Run(
    const std::vector<synth::Poi>& pois, const Todam& todam,
    const PipelineConfig& config, const ml::Matrix* precomputed_features,
    double precomputed_features_s) {
  return RunSsr(*city_, *features_, router_.get(), pois, todam,
                interval_.day, config, precomputed_features,
                precomputed_features_s);
}

GroundTruth SsrPipeline::ComputeGroundTruth(
    const std::vector<synth::Poi>& pois, const Todam& todam, CostKind cost,
    router::GacWeights gac, int num_threads) {
  GroundTruth truth;
  util::Stopwatch watch;
  std::vector<uint32_t> all(city_->zones.size());
  for (uint32_t z = 0; z < all.size(); ++z) all[z] = z;
  std::vector<ZoneLabel> labels;
  if (num_threads > 1) {
    labels = LabelZonesParallel(*city_, todam, all, pois, cost, interval_.day,
                                num_threads, router_->options(), gac,
                                &truth.spqs, &truth.expansions);
  } else {
    LabelingEngine labeler(city_, router_.get(), gac);
    labels = labeler.LabelZones(todam, all, pois, cost, interval_.day);
    truth.spqs = labeler.spq_count();
    truth.expansions = labeler.expansion_count();
  }
  truth.labeling_s = watch.ElapsedSeconds();

  truth.mac.resize(labels.size());
  truth.acsd.resize(labels.size());
  uint64_t walk_only = 0, trips = 0;
  for (size_t i = 0; i < labels.size(); ++i) {
    truth.mac[i] = labels[i].mac;
    truth.acsd[i] = labels[i].acsd;
    walk_only += labels[i].num_walk_only;
    trips += labels[i].num_trips;
  }
  truth.walk_only_fraction =
      trips > 0 ? static_cast<double>(walk_only) / static_cast<double>(trips)
                : 0.0;
  return truth;
}

CapturedCosts SsrPipeline::CaptureGroundTruthColumns(
    const std::vector<synth::Poi>& pois, const Todam& todam) {
  CapturedCosts captured;
  util::Stopwatch watch;
  LabelingEngine labeler(city_, router_.get());
  std::vector<uint32_t> zones(city_->zones.size());
  std::iota(zones.begin(), zones.end(), 0u);
  std::vector<ZoneLabel> labels(kZoneBlock);
  for (size_t first = 0; first < zones.size(); first += kZoneBlock) {
    labeler.LabelBlock(todam, zones.data() + first,
                       std::min(kZoneBlock, zones.size() - first), pois,
                       CostKind::kJourneyTime, interval_.day, labels.data(),
                       &captured.columns);
  }
  captured.spqs = labeler.spq_count();
  captured.labeling_s = watch.ElapsedSeconds();
  return captured;
}

}  // namespace staq::core
