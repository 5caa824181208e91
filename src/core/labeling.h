// Labeling (paper §IV-D): running SPQs for the trips of selected zones and
// aggregating the access costs to zone level.
//
// For each labeled zone, every trip recorded for it in M_g is resolved by
// the multi-modal router (the OTP substitute) and the chosen cost (JT or
// GAC) is aggregated to the zone mean (MAC) and standard deviation (ACSD),
// which form the SSR target vector. This is by far the dominant cost of
// the whole solution and is proportional to β — the scalability lever of
// §IV-E.
//
// The engine never routes trip by trip. It sorts a zone's trips by
// departure and deduplicates repeated POIs, then answers a whole block of
// zones with one CsaEngine::RouteWindow scan: each zone is an origin of the
// scan and each of its departure groups one lane. It reuses each zone's
// access-stop lookup across calls. Every journey's cost basis is recorded
// in the block's TripCostColumns in original trip order, and every label
// is derived from those columns (core/columnar.h) — the library's one cost
// path. The derived labels equal one Router::Route per trip folded by the
// scalar Eq. 1 and aggregation loop (tests/testing/scalar_oracle.h) bit
// for bit.
#pragma once

#include <cstdint>
#include <vector>

#include "core/todam.h"
#include "router/csa.h"
#include "router/router.h"
#include "synth/city_builder.h"

namespace staq::core {

/// Which access cost fills the TODAM (paper §III-C).
enum class CostKind {
  kJourneyTime,      // JT: AT(d) - t, seconds
  kGeneralizedCost,  // GAC: Eq. 1, generalized seconds
};

const char* CostKindName(CostKind kind);

/// Zone-level label: the access measures of §III-D restricted to one zone.
struct ZoneLabel {
  double mac = 0.0;   // mean access cost
  double acsd = 0.0;  // access cost standard deviation
  uint32_t num_trips = 0;
  uint32_t num_infeasible = 0;  // trips the router could not resolve
  uint32_t num_walk_only = 0;
};

/// The five weighted GAC components of Eq. 1, in the order the scalar
/// expression sums them: TAN, WT, IVT, ET, transfers. FARE/VOT is not a
/// component — it is a division epilogue (see MemberCostColumn).
inline constexpr size_t kNumGacParts = 5;

/// Per-trip cost basis of one labeling pass, CSR-grouped by zone: trips of
/// zone z occupy [zone_offsets[z], zone_offsets[z + 1]) in every column,
/// in the zone's ORIGINAL trip order (the aggregation order). Infeasible
/// trips hold zeros and are excluded from aggregates via `flags`.
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

/// Zones one LabelBlock call — one CSA window scan — labels together, and
/// the unit every zone loop claims. Scanning several zones' lanes in one
/// sweep pays each connection's decode, skip test and pre-filter set-up
/// once per block instead of once per zone. Measured on staqbench's city
/// (Brindale 0.1, 324 zones, rate 12, 4 cores, 10 alternating runs per
/// workload), 4 and 8 answer exact requests alike (exact p50 within 3 %),
/// but 8 raises a context's peak live lanes, so its lane columns, from 64
/// to 96 and the process peak RSS by 12 MB (am peak) and 19 MB (off
/// peak); 4 keeps the scan gain at the memory of one-zone scans.
inline constexpr size_t kZoneBlock = 4;

/// Blocks a loop over `num_zones` zones claims: block i holds entries
/// [i * kZoneBlock, min((i + 1) * kZoneBlock, num_zones)).
inline size_t NumZoneBlocks(size_t num_zones) {
  return (num_zones + kZoneBlock - 1) / kZoneBlock;
}

/// Runs SPQs and aggregates. Holds a Router (stateful scratch), so one
/// engine per thread.
class LabelingEngine {
 public:
  /// `city` and `router` must outlive the engine. The engine stays bound
  /// to `router`, whose walk table its access-stop cache reads.
  LabelingEngine(const synth::City* city, router::Router* router,
                 router::GacWeights gac_weights = {});

  /// Labels a block of zones: resolves every trip of `zones[0..num_zones)`
  /// in `todam` against the given POI set, records each trip's cost basis
  /// (JT seconds, the five GAC components, fare) in the block's columns,
  /// and derives `out[b]` for zones[b] from them with MemberCostColumn and
  /// AggregateZoneLabels under `kind`. Infeasible trips are excluded from
  /// the aggregates but counted. The whole block is one window scan; every
  /// label is bit-identical to labeling its zone alone.
  ///
  /// When `capture` is non-null, the block's columns are appended to it:
  /// every zone of the block gets a trip range (one AppendZone per zone, in
  /// block order). One captured pass derives any number of cost
  /// definitions bit-identically — journeys do not depend on the cost
  /// kind.
  void LabelBlock(const Todam& todam, const uint32_t* zones, size_t num_zones,
                  const std::vector<synth::Poi>& pois, CostKind kind,
                  gtfs::Day day, ZoneLabel* out,
                  TripCostColumns* capture = nullptr);

  /// Labels one zone: a block of one.
  ZoneLabel LabelZone(const Todam& todam, uint32_t zone,
                      const std::vector<synth::Poi>& pois, CostKind kind,
                      gtfs::Day day);

  /// Labels many zones (the L set, or all zones for the naive baseline),
  /// kZoneBlock consecutive entries of `zones` per block.
  std::vector<ZoneLabel> LabelZones(const Todam& todam,
                                    const std::vector<uint32_t>& zones,
                                    const std::vector<synth::Poi>& pois,
                                    CostKind kind, gtfs::Day day);

  /// Captures one zone (a block of one) into `columns`, returning its
  /// kJourneyTime label.
  ZoneLabel CaptureZoneCosts(const Todam& todam, uint32_t zone,
                             const std::vector<synth::Poi>& pois,
                             gtfs::Day day, TripCostColumns* columns);

  /// Swaps the GAC weights used by subsequent kGeneralizedCost labeling.
  /// Serve workers share one engine across requests with differing weights.
  void set_gac_weights(router::GacWeights weights) { gac_weights_ = weights; }

  /// Total SPQs answered since construction (for cost accounting). One per
  /// TODAM trip regardless of engine — batching changes how queries are
  /// executed, not how many are asked.
  uint64_t spq_count() const { return spq_count_; }

  /// Router expansions actually dispatched: each block with trips costs one
  /// window scan.
  uint64_t expansion_count() const { return expansion_count_; }

 private:
  /// Routes every trip of the block (already sorted into order_) and
  /// records each journey's cost basis in block_columns_ at its flat index:
  /// one window scan whose origins are the zones and whose lanes are their
  /// departure groups.
  void RouteBlockWindow(const Todam& todam, const uint32_t* zones,
                        size_t num_zones,
                        const std::vector<synth::Poi>& pois, gtfs::Day day);

  const synth::City* city_;
  router::Router* const router_;
  router::GacWeights gac_weights_;
  uint64_t spq_count_ = 0;
  uint64_t expansion_count_ = 0;

  /// The zone's access stops, from the per-zone cache when warm. The serve
  /// hot path relabels the same zones over and over, which makes the
  /// walk-table lookup worth caching across calls. Zone centroids and the
  /// bound router never change, so a cached list never goes stale.
  const std::vector<router::WalkHop>& CachedAccessStops(uint32_t zone);

  // Per-zone AccessStops cache. zone_access_valid_[z] gates zone_access_[z].
  std::vector<std::vector<router::WalkHop>> zone_access_;
  std::vector<uint8_t> zone_access_valid_;

  // Block scratch (capacity persists across blocks). The block's trips are
  // numbered flat: zone b's trip i is zone_trip_off_[b] + i.
  std::vector<size_t> zone_trip_off_;    // num_zones + 1 entries
  std::vector<uint32_t> order_;          // flat indices, each zone's slice
                                         // sorted by departure
  std::vector<uint64_t> poi_stamp_;      // per-POI: last group it appeared in
  std::vector<uint32_t> poi_slot_;       // per-POI: its slot in that group
  uint64_t group_stamp_ = 0;
  std::vector<uint32_t> group_slots_;    // flat journey position per trip
  TripCostColumns block_columns_;        // per flat trip index
  std::vector<double> block_costs_;      // the block's cost column
  std::vector<geo::Neighbor> neighbor_scratch_;

  // Window-scan scratch: the block's POIs deduplicated once across every
  // zone and departure group (poi_block_* stamps, like the per-group poi_*
  // pair), one origin per zone, one WindowLane per group, and the lanes'
  // target/journey lists stored flat so lane pointers index into two
  // shared arrays.
  std::vector<uint64_t> poi_block_stamp_;
  std::vector<uint32_t> poi_block_slot_;
  uint64_t block_stamp_ = 0;
  std::vector<geo::Point> unique_points_;       // block-unique POI positions
  std::vector<router::WindowOrigin> origins_;
  std::vector<uint32_t> profile_members_;       // per-lane unique-target ids
  std::vector<router::Journey> profile_journeys_;
  std::vector<size_t> lane_offsets_;            // lane -> profile_members_ pos
  std::vector<router::WindowLane> lanes_;
};

}  // namespace staq::core
