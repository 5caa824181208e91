// Reference exact access query: one labeling pass per cost definition.
//
// Each answer is SsrPipeline::ComputeGroundTruth (one LabelZones pass)
// over the gravity TODAM of the request's (category, seed), finalized by
// the scalar oracle's FinalizeAccessQueryResult (scalar_oracle.h), which
// the library no longer contains — the naive baseline of the paper's
// Table II, with no pass shared between cost definitions. AccessQueryEngine answers
// an exact query as a QueryVector, which labels a (category, seed) group
// once, captures every trip's cost basis and derives each member
// columnarly; none of that may change a bit, and tests and bench_load's
// measure_eval gate check it against this.
#pragma once

#include <utility>

#include "core/access_query.h"
#include "core/pipeline.h"
#include "synth/city_builder.h"
#include "testing/scalar_oracle.h"
#include "util/status.h"

namespace staq::testing {

class ExactReference {
 public:
  /// Runs the offline phase for `interval` on a pipeline of its own, built
  /// like AccessQueryEngine's. `city` must outlive the reference.
  ExactReference(const synth::City* city, gtfs::TimeInterval interval)
      : city_(city), pipeline_(city, interval) {}

  /// Answers `options` as an exact query, whatever `options.exact` says,
  /// and without validating the GAC weights. `elapsed_s` is left at 0.
  util::Result<core::AccessQueryResult> Query(
      synth::PoiCategory category, const core::AccessQueryOptions& options) {
    std::vector<synth::Poi> pois = city_->PoisOf(category);
    if (pois.empty()) {
      return util::Status::NotFound("no POIs of requested category");
    }
    core::Todam todam =
        pipeline_.BuildGravityTodam(pois, options.gravity, options.seed);
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
  core::SsrPipeline pipeline_;
};

}  // namespace staq::testing
