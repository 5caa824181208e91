// Reference exact access query: one labeling pass per cost definition,
// built with no server code.
//
// AqServer answers an exact query from a label state over the edit-stable
// gravity TODAM (serve/scenario.h), and answers an exact batch from ONE
// capture pass per (category, seed) whose members derive columnarly; none
// of that may change a bit. This reference rebuilds the same answer
// independently: it draws the edit-stable TODAM itself —
// TodamBuilder::BuildGravityStable over the StableGravityNorms of the
// *base* city's POIs of the category, so a POI edit moves no other zone's
// trips — labels it with SsrPipeline::ComputeGroundTruth (one LabelZones
// pass per cost definition, sharing nothing) and finalizes with the scalar
// oracle's FinalizeAccessQueryResult (scalar_oracle.h), which the library
// no longer contains. Tests and bench_load's measure_eval gate check the
// server against it.
#pragma once

#include <utility>
#include <vector>

#include "core/access_query.h"
#include "core/pipeline.h"
#include "core/todam.h"
#include "synth/city_builder.h"
#include "testing/scalar_oracle.h"
#include "util/status.h"

namespace staq::testing {

class ExactReference {
 public:
  /// Runs the offline phase for `interval` on a pipeline of its own. The
  /// POI set starts as `city`'s; `city` must outlive the reference.
  ExactReference(const synth::City* city, gtfs::TimeInterval interval)
      : city_(city),
        interval_(interval),
        pipeline_(city, interval),
        pois_(city->pois) {}

  /// Mirrors a server's AddPoi: `poi` carries the id the server assigned.
  void AddPoi(const synth::Poi& poi) { pois_.push_back(poi); }

  /// Answers `options` as an exact query over the current POI set,
  /// whatever `options.exact` says, and without validating the request.
  /// `elapsed_s` is left at 0.
  util::Result<core::AccessQueryResult> Query(
      synth::PoiCategory category, const core::AccessQueryOptions& options) {
    std::vector<synth::Poi> pois;
    for (const synth::Poi& poi : pois_) {
      if (poi.category == category) pois.push_back(poi);
    }
    if (pois.empty()) {
      return util::Status::NotFound("no POIs of requested category");
    }
    const std::vector<double> norm = core::StableGravityNorms(
        city_->zones, city_->PoisOf(category),
        options.gravity.decay_scale_m);
    core::TodamBuilder builder(city_->zones, pois, interval_,
                               options.gravity);
    core::Todam todam = builder.BuildGravityStable(options.seed, norm);
    core::GroundTruth truth = pipeline_.ComputeGroundTruth(
        pois, todam, options.cost, options.gac);
    core::AccessQueryResult result;
    result.gravity_trips = todam.num_trips();
    result.mac = std::move(truth.mac);
    result.acsd = std::move(truth.acsd);
    result.spqs = truth.spqs;
    testing::FinalizeAccessQueryResult(city_->zones, &result);
    return result;
  }

 private:
  const synth::City* city_;
  gtfs::TimeInterval interval_;
  core::SsrPipeline pipeline_;
  std::vector<synth::Poi> pois_;
};

}  // namespace staq::testing
