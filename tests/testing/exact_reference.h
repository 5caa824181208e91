// Reference access queries, exact and SSR, built with no server code.
//
// AqServer answers an exact query from a label state over the edit-stable
// gravity TODAM (serve/scenario.h), and answers an exact batch from ONE
// capture pass per (category, seed) whose members derive columnarly; none
// of that may change a bit. This reference rebuilds the same answer
// independently: it draws the edit-stable TODAM itself —
// TodamBuilder::BuildGravityStable over the StableGravityNorms of the
// *base* city's POIs of the category, so a POI edit moves no other zone's
// trips — labels every zone with one LabelingEngine::LabelZones pass per
// cost definition over a router of its own, sharing nothing, and finalizes
// with the scalar oracle's FinalizeAccessQueryResult (scalar_oracle.h),
// which the library no longer contains. An SSR answer draws its sample
// over the same TODAM with core::DrawSsrSample (features extracted afresh
// from the TODAM's α rows by the reference's own offline phase:
// isochrones, hop trees and a feature extractor), labels it with one
// LabelZones pass, fits MAC under the seed and then ACSD under seed + 1
// with a serial two-model fit of its own (sharing no fit code with
// core::FitSsr, so a fault in how FitSsr hands its targets out shows), and
// finalizes the same way. It uses no serve code — not
// serve::Scenario::AnswerSsr, which the server and the paper benches
// answer SSR queries with. Tests and bench_load's measure_eval gate check
// the server against it.
#pragma once

#include <algorithm>
#include <utility>
#include <vector>

#include "core/access_query.h"
#include "core/features.h"
#include "core/hoptree.h"
#include "core/isochrone.h"
#include "core/labeling.h"
#include "core/pipeline.h"
#include "core/todam.h"
#include "ml/model_factory.h"
#include "router/router.h"
#include "synth/city_builder.h"
#include "testing/scalar_oracle.h"
#include "util/status.h"

namespace staq::testing {

class ExactReference {
 public:
  /// Runs the offline phase for `interval` on structures of its own. The
  /// POI set starts as `city`'s; `city` must outlive the reference.
  ExactReference(const synth::City* city, gtfs::TimeInterval interval)
      : city_(city),
        interval_(interval),
        isochrones_(*city, core::IsochroneConfig{}),
        hop_trees_(*city, isochrones_, interval),
        features_(city, &isochrones_, &hop_trees_),
        router_(&city->feed, router::RouterOptions{}),
        pois_(city->pois) {}
  // The feature extractor points into the reference's own structures.
  ExactReference(const ExactReference&) = delete;
  ExactReference& operator=(const ExactReference&) = delete;

  /// Mirrors a server's AddPoi: `poi` carries the id the server assigned.
  void AddPoi(const synth::Poi& poi) { pois_.push_back(poi); }

  /// Mirrors a server's RemovePoi.
  void RemovePoi(uint32_t poi_id) {
    pois_.erase(std::remove_if(pois_.begin(), pois_.end(),
                               [poi_id](const synth::Poi& poi) {
                                 return poi.id == poi_id;
                               }),
                pois_.end());
  }

  /// Answers `options` as an exact query over the current POI set,
  /// whatever `options.exact` says, and without validating the request.
  /// `elapsed_s` is left at 0.
  util::Result<core::AccessQueryResult> Query(
      synth::PoiCategory category, const core::AccessQueryOptions& options) {
    std::vector<synth::Poi> pois = PoisOf(category);
    if (pois.empty()) {
      return util::Status::NotFound("no POIs of requested category");
    }
    core::Todam todam = StableTodam(category, pois, options);
    std::vector<uint32_t> all(city_->zones.size());
    for (uint32_t z = 0; z < all.size(); ++z) all[z] = z;
    core::LabelingEngine labeler(city_, &router_, options.gac);
    const std::vector<core::ZoneLabel> labels =
        labeler.LabelZones(todam, all, pois, options.cost, interval_.day);
    core::AccessQueryResult result;
    result.gravity_trips = todam.num_trips();
    for (const core::ZoneLabel& label : labels) {
      result.mac.push_back(label.mac);
      result.acsd.push_back(label.acsd);
    }
    result.spqs = labeler.spq_count();
    testing::FinalizeAccessQueryResult(city_->zones, &result);
    return result;
  }

  /// Answers `options` as an SSR query (its β, model, cost, GAC weights and
  /// seed) over the current POI set, whatever `options.exact` says.
  /// `elapsed_s` is left at 0.
  util::Result<core::AccessQueryResult> QuerySsr(
      synth::PoiCategory category, const core::AccessQueryOptions& options) {
    std::vector<synth::Poi> pois = PoisOf(category);
    if (pois.empty()) {
      return util::Status::NotFound("no POIs of requested category");
    }
    core::Todam todam = StableTodam(category, pois, options);
    core::PipelineConfig config;
    config.beta = options.beta;
    config.model = options.model;
    config.cost = options.cost;
    config.gac = options.gac;
    config.seed = options.seed;
    auto drawn = core::DrawSsrSample(*city_, features_, pois, todam, config);
    if (!drawn.ok()) return drawn.status();
    const ml::Dataset& sample = drawn.value().dataset;
    core::LabelingEngine labeler(city_, &router_, options.gac);
    const std::vector<core::ZoneLabel> labels = labeler.LabelZones(
        todam, sample.labeled, pois, options.cost, interval_.day);
    auto mac = FitTarget(options.model, options.seed, sample, labels,
                         &core::ZoneLabel::mac);
    if (!mac.ok()) return mac.status();
    auto acsd = FitTarget(options.model, options.seed + 1, sample, labels,
                          &core::ZoneLabel::acsd);
    if (!acsd.ok()) return acsd.status();
    core::AccessQueryResult result;
    result.gravity_trips = todam.num_trips();
    result.mac = std::move(mac).value();
    result.acsd = std::move(acsd).value();
    result.spqs = labeler.spq_count();
    testing::FinalizeAccessQueryResult(city_->zones, &result);
    return result;
  }

 private:
  std::vector<synth::Poi> PoisOf(synth::PoiCategory category) const {
    std::vector<synth::Poi> pois;
    for (const synth::Poi& poi : pois_) {
      if (poi.category == category) pois.push_back(poi);
    }
    return pois;
  }

  /// One SSR target, fitted on its own: a `kind` model under `seed` over
  /// `sample` with `measure` of each labeled zone as its target, the
  /// predictions clamped non-negative and each labeled zone's own value
  /// kept.
  static util::Result<std::vector<double>> FitTarget(
      ml::ModelKind kind, uint64_t seed, ml::Dataset sample,
      const std::vector<core::ZoneLabel>& labels,
      double core::ZoneLabel::*measure) {
    sample.y.assign(sample.num_instances(), 0.0);
    for (size_t i = 0; i < sample.labeled.size(); ++i) {
      sample.y[sample.labeled[i]] = labels[i].*measure;
    }
    auto model = ml::CreateModel(kind, seed);
    if (auto status = model->Fit(sample); !status.ok()) return status;
    std::vector<double> values = model->Predict();
    for (double& v : values) {
      if (v < 0.0) v = 0.0;
    }
    for (size_t i = 0; i < sample.labeled.size(); ++i) {
      values[sample.labeled[i]] = labels[i].*measure;
    }
    return values;
  }

  /// The edit-stable TODAM of `options` over `pois`, α rows included.
  core::Todam StableTodam(synth::PoiCategory category,
                          const std::vector<synth::Poi>& pois,
                          const core::AccessQueryOptions& options) const {
    const std::vector<double> norm = core::StableGravityNorms(
        city_->zones, city_->PoisOf(category), options.gravity.decay_scale_m);
    core::TodamBuilder builder(city_->zones, pois, interval_,
                               options.gravity);
    return builder.BuildGravityStable(options.seed, norm);
  }

  const synth::City* city_;
  gtfs::TimeInterval interval_;
  core::IsochroneSet isochrones_;
  core::HopTreeSet hop_trees_;
  core::FeatureExtractor features_;
  router::Router router_;
  std::vector<synth::Poi> pois_;
};

}  // namespace staq::testing
