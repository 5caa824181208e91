// Reference zone labeler: the paper's labeling step (§IV-D) written out
// with no batching at all.
//
// Every TODAM trip of a zone is one Route call on the label-correcting
// oracle, and the scalar oracle's tail (scalar_oracle.h) folds the costs
// in original trip order. The oracle's grouped labeler
// (LabelCorrectingLabeler) groups trips by departure, deduplicates POIs
// and shares one expansion per group; none of that may change a label bit,
// and tests check it against this loop. Journey-time labels also equal
// core::LabelingEngine's window scans bit for bit.
#pragma once

#include <cstdint>
#include <vector>

#include "core/labeling.h"
#include "core/todam.h"
#include "testing/label_correcting_router.h"
#include "testing/scalar_oracle.h"
#include "synth/city_builder.h"

namespace staq::testing {

/// Labels `zone` with one Route per trip, folded by the scalar tail.
inline core::ZoneLabel PerTripLabel(LabelCorrectingRouter* router,
                                    const synth::City& city,
                                    const core::Todam& todam, uint32_t zone,
                                    const std::vector<synth::Poi>& pois,
                                    core::CostKind kind, gtfs::Day day,
                                    router::GacWeights gac = {}) {
  std::vector<router::Journey> journeys;
  for (const core::TripEntry& trip : todam.TripsFor(zone)) {
    journeys.push_back(router->Route(city.zones[zone].centroid,
                                     pois[trip.poi].position, day,
                                     trip.depart));
  }
  return TripOrderLabel(journeys, kind, gac);
}

/// PerTripLabel for every zone in `zones`, on a fresh oracle with default
/// options.
inline std::vector<core::ZoneLabel> PerTripLabels(
    const synth::City& city, const core::Todam& todam,
    const std::vector<uint32_t>& zones, const std::vector<synth::Poi>& pois,
    core::CostKind kind, gtfs::Day day, router::GacWeights gac = {}) {
  LabelCorrectingRouter router(&city.feed, router::RouterOptions{});
  std::vector<core::ZoneLabel> labels;
  labels.reserve(zones.size());
  for (uint32_t zone : zones) {
    labels.push_back(
        PerTripLabel(&router, city, todam, zone, pois, kind, day, gac));
  }
  return labels;
}

}  // namespace staq::testing
