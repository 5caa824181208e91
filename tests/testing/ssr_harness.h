// The paper harness: one city served by a serve::ScenarioStore over a
// SerialZoneLoop (the store owns the city and its offline phase), its
// TODAM the index-keyed TodamBuilder::BuildGravity draw (§III's
// row-normalised gravity), every SSR run serve::Scenario::AnswerSsr — the
// server's SSR path — and its ground truth every zone of the TODAM labeled
// through Scenario::LabelZoneBlocks. The paper benches run on it
// (bench/bench_common.h's BenchCity), and so do the tests of the SSR
// stages.
#pragma once

#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "core/pipeline.h"
#include "core/todam.h"
#include "serve/scenario.h"
#include "synth/city_builder.h"
#include "util/status.h"

namespace staq::testing {

class SsrHarness {
 public:
  explicit SsrHarness(synth::City city,
                      gtfs::TimeInterval interval = gtfs::WeekdayAmPeak())
      : store_(std::move(city), interval, loop_),
        scenario_(store_.Acquire()) {}
  // The store holds a reference to the loop.
  SsrHarness(const SsrHarness&) = delete;
  SsrHarness& operator=(const SsrHarness&) = delete;

  const synth::City& city() const { return scenario_->base_city(); }
  const serve::Scenario& scenario() const { return *scenario_; }

  /// The harness's TODAM: the gravity draw over `pois` under `gravity`.
  core::Todam GravityTodam(const std::vector<synth::Poi>& pois,
                           const core::GravityConfig& gravity,
                           uint64_t seed) const {
    return core::TodamBuilder(city().zones, pois, scenario_->interval(),
                              gravity)
        .BuildGravity(seed);
  }

  /// The zone feature matrix of `pois` (the POIs `todam` is over), which
  /// the offline state's extractor aggregates over the TODAM's α rows.
  ml::Matrix Features(const std::vector<synth::Poi>& pois,
                      const core::Todam& todam) const {
    return scenario_->offline().features->ExtractZoneMatrix(pois,
                                                            todam.alpha());
  }

  /// Every zone of `todam` (a TODAM over `category`'s POIs) labeled under
  /// `cost` and `gac`, one SPQ per trip. Indexed by zone.
  std::vector<core::ZoneLabel> Truth(synth::PoiCategory category,
                                     const core::Todam& todam,
                                     core::CostKind cost,
                                     const router::GacWeights& gac = {}) {
    serve::LabelKey key;
    key.category = category;
    key.cost = cost;
    key.gac = gac;
    auto state = serve::ExactLabelState::Unlabeled(todam);
    scenario_->LabelZoneBlocks(loop_, key, state,
                               serve::AllZones(todam.num_zones()));
    return std::move(state->labels);
  }

  /// One SSR run over `todam` (a TODAM over `category`'s POIs).
  util::Result<core::PipelineResult> Run(
      synth::PoiCategory category, const core::Todam& todam,
      const core::PipelineConfig& config,
      const ml::Matrix* features = nullptr) {
    return scenario_->AnswerSsr(loop_, category, todam, config, features,
                                /*fit_helpers=*/nullptr);
  }

 private:
  serve::SerialZoneLoop loop_;
  serve::ScenarioStore store_;
  std::shared_ptr<const serve::Scenario> scenario_;
};

}  // namespace staq::testing
