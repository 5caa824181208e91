// The SSR solution's stages around labeling (paper Fig. 1): online feature
// extraction and β-budget sampling (DrawSsrSample), then SSR training and
// transductive inference (FitSsr), with per-stage wall-clock accounting for
// Table II, and the quality metrics of an answer against exact labels.
// None of these stages routes: serve::Scenario::AnswerSsr composes them
// around labeling the sample through a zone loop (serve/scenario.h), for
// the server and the paper benches alike. The offline phase is the
// scenario's (serve::OfflineState).
#pragma once

#include <memory>
#include <vector>

#include "core/active_learning.h"
#include "core/features.h"
#include "core/labeling.h"
#include "core/measures.h"
#include "core/sampling.h"
#include "core/todam.h"
#include "ml/metrics.h"
#include "ml/model_factory.h"
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

/// `truth` holds every zone's exact label, in zone order.
EvaluationMetrics Evaluate(const std::vector<ZoneLabel>& truth,
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
/// the zone feature matrix, and the sample's features_s is then 0.
/// kInvalidArgument on GAC weights that cannot be labeled under.
util::Result<SsrSample> DrawSsrSample(
    const synth::City& city, const FeatureExtractor& features,
    const std::vector<synth::Poi>& pois, const Todam& todam,
    const PipelineConfig& config,
    const ml::Matrix* precomputed_features = nullptr);

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

}  // namespace staq::core
