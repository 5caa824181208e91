// Column-at-a-time (SoA) measure evaluation over one shared labeling pass.
//
// The key observation: a routed Journey is independent of the access-cost
// definition. JT and every GAC variant are post-processing of the same
// journey, so a batch of queries that differ only in cost definition can
// share ONE labeling pass — the dominant cost of the whole solution — and
// derive each member's per-zone MAC/ACSD from captured per-trip cost
// *components* with cheap vector kernels. This is the ClickHouse-style
// "columns once, aggregates many" restructuring of ROADMAP item 4.
//
// Determinism contract (mirrors ml/kernels.h): every derived value
// accumulates in the same order as the scalar path it replaces —
//  * a member's GAC column is one Gemm over the five cost components in
//    ascending component order, matching the scalar expression's
//    left-associated sum (cost.cc), with the FARE/VOT term applied as a
//    per-element division epilogue (never multiply-by-reciprocal);
//  * per-zone aggregation compacts a zone's feasible costs preserving the
//    original trip order, then reduces with the single-accumulator
//    ascending-index ReduceSum/Dot kernels — the same addition sequence as
//    the interleaved scalar loop in labeling.cc.
// The scalar implementations stay in place as the equivalence foil; the
// golden suite (tests/core/columnar_test.cc) asserts bit-identity on both
// city families across seeds and cost kinds.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "core/labeling.h"
#include "router/cost.h"

namespace staq::core {

/// The five weighted GAC components of Eq. 1, in the order the scalar
/// expression sums them: TAN, WT, IVT, ET, transfers. FARE/VOT is not a
/// component — it is a division epilogue (see MemberCostColumn).
inline constexpr size_t kNumGacParts = 5;

/// Per-trip cost basis captured during one labeling pass, CSR-grouped by
/// zone: trips of zone z occupy [zone_offsets[z], zone_offsets[z + 1]) in
/// every column, in the zone's ORIGINAL trip order (the aggregation order
/// of the scalar path). Infeasible trips hold zeros and are excluded from
/// aggregates via `flags`.
struct TripCostColumns {
  std::vector<size_t> zone_offsets{0};  // CSR offsets, one per zone + 1
  std::vector<uint8_t> flags;           // bit0 feasible, bit1 walk-only
  std::vector<double> jt;               // JT seconds (AT(d) - t)
  std::vector<double> gac_parts;        // trips x kNumGacParts, row-major
  std::vector<double> fare;             // currency units

  size_t num_trips() const { return flags.size(); }
  size_t num_zones() const { return zone_offsets.size() - 1; }

  /// Opens the next zone's trip range; returns the base index its trips
  /// occupy. Newly opened slots are zeroed (the infeasible encoding).
  size_t AppendZone(size_t trips);

  /// Records one resolved trip at `index` (base + original trip index).
  /// Infeasible journeys leave the zeroed slot and clear the flags.
  void Record(size_t index, const router::Journey& journey);

  /// Copies `zone` — one zone, or a run of consecutive zones, captured
  /// into columns of its own — into the range this object opened for those
  /// zones at `base`. Lets zones be captured on different threads and
  /// stored into one shared set.
  void StoreZone(size_t base, const TripCostColumns& zone);

  void Clear();
};

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

/// Aggregates a member's cost column to per-zone labels. Bit-identical to
/// the scalar aggregation tail of LabelingEngine (original-order feasible
/// compaction, then single-accumulator ascending reductions).
std::vector<ZoneLabel> AggregateZoneLabels(const TripCostColumns& columns,
                                           const std::vector<double>& costs);

}  // namespace staq::core
