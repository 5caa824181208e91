// Column-at-a-time (SoA) cost derivation: the library's one way from a
// routed trip to a zone label.
//
// A routed Journey is independent of the access-cost definition. JT and
// every GAC variant are post-processing of the same journey, so
// LabelingEngine records each trip's cost *basis* in TripCostColumns
// (core/labeling.h) and derives every label from them here; a batch of
// queries that differ only in cost definition shares ONE labeling pass —
// the dominant cost of the whole solution — and derives each member with
// cheap vector kernels ("columns once, aggregates many").
//
// Determinism contract (mirrors ml/kernels.h): every derived value
// accumulates in the same order as the scalar loops of the paper's
// formulas —
//  * a member's GAC column is one Gemm over the five cost components in
//    ascending component order, matching Eq. 1's left-associated sum, with
//    the FARE/VOT term applied as a per-element division epilogue (never
//    multiply-by-reciprocal);
//  * per-zone aggregation is one pass over a zone's trips in their
//    original order, keeping the feasible count, the sum and the sum of
//    squares in single accumulators — the scalar aggregation loop's
//    addition sequence, and the one the single-accumulator ascending
//    ReduceSum/Dot kernels would take over the compacted feasible costs
//    (the build enables no FMA, so no product is contracted).
// Those scalar loops are the oracle in tests/testing/scalar_oracle.h; the
// golden suites (tests/core/columnar_test.cc, label_pin_test.cc) assert
// bit-identity on both city families across seeds and cost kinds.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "core/labeling.h"
#include "router/cost.h"

namespace staq::core {

/// One cost definition of a vector query. Members that differ only here
/// share a single labeling pass.
struct CostMember {
  CostKind cost = CostKind::kJourneyTime;
  router::GacWeights gac;
};

/// Derives one member's per-trip cost column from the captured components.
/// Bit-identical to evaluating the scalar cost expression per journey for
/// the DfT domain of non-negative weights (a zero initial accumulator only
/// changes bits when a product is -0.0, which non-negative weights over
/// non-negative components cannot produce).
void MemberCostColumn(const TripCostColumns& columns, const CostMember& member,
                      std::vector<double>* out);

/// The one aggregation from per-trip costs to zone labels: zone b's trips
/// occupy [offsets[b], offsets[b + 1]) of `flags` (bit0 feasible, bit1
/// walk-only) and `costs`, and out[b] receives its label for b in
/// [0, num_zones). One pass per zone in trip order with single
/// accumulators — bit-identical to the scalar aggregation loop of the
/// oracle. Offsets index the columns absolutely, so a caller re-aggregates
/// one zone of a CSR set by passing &offsets[z] with num_zones = 1.
void AggregateZoneLabels(const size_t* offsets, size_t num_zones,
                         const uint8_t* flags, const double* costs,
                         ZoneLabel* out);

/// Aggregates a member's cost column over `columns`' zones and flags.
inline std::vector<ZoneLabel> AggregateZoneLabels(
    const TripCostColumns& columns, const std::vector<double>& costs) {
  std::vector<ZoneLabel> labels(columns.num_zones());
  AggregateZoneLabels(columns.zone_offsets.data(), labels.size(),
                      columns.flags.data(), costs.data(), labels.data());
  return labels;
}

}  // namespace staq::core
