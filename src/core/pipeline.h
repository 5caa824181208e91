// End-to-end SSR solution (paper Fig. 1): offline pre-computation, online
// feature extraction, β-budget sampling, labeling via SPQs, SSR training
// and transductive inference, with per-stage wall-clock accounting for
// Table II. The stages around labeling take no router, so a server labels
// the sample through its own zone loop between them (serve/scenario.h).
#pragma once

#include <memory>
#include <vector>

#include "core/active_learning.h"
#include "core/features.h"
#include "core/hoptree.h"
#include "core/isochrone.h"
#include "core/labeling.h"
#include "core/measures.h"
#include "core/sampling.h"
#include "core/todam.h"
#include "ml/metrics.h"
#include "ml/model_factory.h"
#include "router/router.h"
#include "synth/city_builder.h"

namespace staq::util {
class ThreadPool;
}  // namespace staq::util

namespace staq::core {

/// Per-run configuration (one cell of the paper's sweeps).
struct PipelineConfig {
  double beta = 0.05;
  ml::ModelKind model = ml::ModelKind::kMlp;
  CostKind cost = CostKind::kJourneyTime;
  router::GacWeights gac;
  uint64_t seed = 1;
  /// How the labeled set L is chosen (paper default: random; the other
  /// strategies implement the §VI active-learning future-work item).
  SamplingStrategy sampling = SamplingStrategy::kRandom;
};

/// Wall-clock attribution across the solution's stages (seconds).
struct StageTimings {
  double features_s = 0.0;
  double labeling_s = 0.0;
  double training_s = 0.0;

  /// The end-to-end online cost Table II reports for the SSR solution.
  double TotalSeconds() const { return features_s + labeling_s + training_s; }
};

/// Output of one SSR run: predicted measures for every zone. Labeled zones
/// carry their exactly computed values; unlabeled zones carry model
/// predictions (clamped to be non-negative).
struct PipelineResult {
  std::vector<double> mac;
  std::vector<double> acsd;
  std::vector<uint32_t> labeled;
  StageTimings timings;
  uint64_t spqs = 0;
};

/// The naive baseline: every zone labeled exactly.
struct GroundTruth {
  std::vector<double> mac;
  std::vector<double> acsd;
  double labeling_s = 0.0;
  uint64_t spqs = 0;
  double walk_only_fraction = 0.0;
};

/// The Fig. 3 / Fig. 4 quality metrics of one run against ground truth,
/// computed over the unlabeled zones (the inference targets).
struct EvaluationMetrics {
  double mac_mae = 0.0;
  double mac_corr = 0.0;
  double acsd_mae = 0.0;
  double acsd_corr = 0.0;
  double class_accuracy = 0.0;
  double fie = 0.0;  // fairness index error, over all zones
};

EvaluationMetrics Evaluate(const GroundTruth& truth,
                           const PipelineResult& result);

/// An SSR run's β sample, before it is labeled.
struct SsrSample {
  /// The labeled zones and the feature timing; the caller adds its
  /// labeling's SPQs and time, and FitSsr the measures.
  PipelineResult result;
  /// Zone features, positions and the labeled set; targets unset.
  ml::Dataset dataset;
};

/// Feature extraction and β-budget sample selection: the SSR stages before
/// labeling, none of which routes. `pois` may differ from `city.pois`
/// (scenario edits). `precomputed_features`, when non-null, stands in for
/// the zone feature matrix (costed at `precomputed_features_s`).
/// kInvalidArgument on GAC weights that cannot be labeled under.
util::Result<SsrSample> DrawSsrSample(
    const synth::City& city, const FeatureExtractor& features,
    const std::vector<synth::Poi>& pois, const Todam& todam,
    const PipelineConfig& config,
    const ml::Matrix* precomputed_features = nullptr,
    double precomputed_features_s = 0.0);

/// SSR training and transductive inference: one model per target (MAC
/// under config.seed, ACSD under config.seed + 1) over the sample and its
/// `labels` (one per zone of sample.result.labeled, in that order), the
/// predictions clamped non-negative and the labeled zones' values kept.
/// The two fits are the two items of one util::ParallelLoop: with
/// `helpers`, one helper task on that pool may fit a target while the
/// calling thread fits the other (and takes over a stalled helper's);
/// without, the caller fits MAC, then ACSD. Each fit is a pure function of
/// the sample and its seed, so the answer is the same bits either way.
util::Result<PipelineResult> FitSsr(SsrSample sample,
                                    const std::vector<ZoneLabel>& labels,
                                    const PipelineConfig& config,
                                    util::ThreadPool* helpers = nullptr);

/// Orchestrates the full solution over one city and time interval. The
/// constructor performs the offline phase (isochrones + hop trees + router
/// tables, under the default isochrone and router configurations) and
/// records its cost separately.
class SsrPipeline {
 public:
  SsrPipeline(const synth::City* city, gtfs::TimeInterval interval);

  const synth::City& city() const { return *city_; }
  const gtfs::TimeInterval& interval() const { return interval_; }
  double offline_seconds() const { return offline_s_; }
  const IsochroneSet& isochrones() const { return *isochrones_; }
  const HopTreeSet& hop_trees() const { return *hop_trees_; }
  const FeatureExtractor& feature_extractor() const { return *features_; }

  /// Builds the gravity TODAM M_g over a POI set.
  Todam BuildGravityTodam(const std::vector<synth::Poi>& pois,
                          const GravityConfig& gravity, uint64_t seed) const;

  /// One SSR run: DrawSsrSample, a LabelingEngine::LabelZones pass over the
  /// sample, then FitSsr. `todam` must have been built over `pois`.
  ///
  /// When sweeping β / model / cost over a fixed POI set (Figs. 3 and 4),
  /// the zone feature matrix is identical across runs; pass it via
  /// `precomputed_features` (with the wall-clock it cost via
  /// `precomputed_features_s`) to avoid re-extracting, and the timing is
  /// carried into the result unchanged.
  util::Result<PipelineResult> Run(
      const std::vector<synth::Poi>& pois, const Todam& todam,
      const PipelineConfig& config,
      const ml::Matrix* precomputed_features = nullptr,
      double precomputed_features_s = 0.0);

  /// The naive baseline: labels every zone with SPQs (paper Table II
  /// "Label Cost") in one LabelingEngine::LabelZones pass on the calling
  /// thread. Parallel labeling is the serving loop's (serve/server.h).
  GroundTruth ComputeGroundTruth(const std::vector<synth::Poi>& pois,
                                 const Todam& todam, CostKind cost,
                                 router::GacWeights gac = {});

 private:
  const synth::City* city_;
  gtfs::TimeInterval interval_;
  double offline_s_ = 0.0;
  std::unique_ptr<IsochroneSet> isochrones_;
  std::unique_ptr<HopTreeSet> hop_trees_;
  std::unique_ptr<router::Router> router_;
  std::unique_ptr<FeatureExtractor> features_;
};

}  // namespace staq::core
