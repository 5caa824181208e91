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
//  * per-zone aggregation compacts a zone's feasible costs preserving the
//    original trip order, then reduces with the single-accumulator
//    ascending-index ReduceSum/Dot kernels — the addition sequence of one
//    interleaved sum/sum-of-squares loop.
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

/// Aggregates a member's cost column to per-zone labels: original-order
/// feasible compaction, then single-accumulator ascending reductions.
/// Bit-identical to the scalar aggregation loop of the oracle.
std::vector<ZoneLabel> AggregateZoneLabels(const TripCostColumns& columns,
                                           const std::vector<double>& costs);

}  // namespace staq::core
