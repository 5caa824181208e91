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
// departure and deduplicates repeated POIs, then follows the bound router:
//  * on the label-correcting router, each departure group is one
//    Router::RouteMany expansion;
//  * on a router with a CSA engine, the whole zone is one
//    CsaEngine::RouteWindow scan with one lane per departure group.
// Both reuse the zone's access-stop lookup across groups and accumulate
// costs in original trip order, so the floating-point aggregates equal one
// Router::Route per trip bit for bit (tests/testing/per_trip_labeling.h is
// that reference loop).
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

struct TripCostColumns;  // core/columnar.h

/// Runs SPQs and aggregates. Holds a Router (stateful scratch), so one
/// engine per thread.
class LabelingEngine {
 public:
  /// `city` and `router` must outlive the engine. Labeling follows the
  /// router's engine: window scans when it runs CSA, grouped expansions
  /// otherwise.
  LabelingEngine(const synth::City* city, router::Router* router,
                 router::GacWeights gac_weights = {});

  /// Labels one zone: resolves every trip of `zone` in `todam` against the
  /// given POI set and aggregates `kind` costs. Infeasible trips are
  /// excluded from the aggregates but counted.
  ZoneLabel LabelZone(const Todam& todam, uint32_t zone,
                      const std::vector<synth::Poi>& pois, CostKind kind,
                      gtfs::Day day);

  /// Labels many zones (the L set, or all zones for the naive baseline).
  std::vector<ZoneLabel> LabelZones(const Todam& todam,
                                    const std::vector<uint32_t>& zones,
                                    const std::vector<synth::Poi>& pois,
                                    CostKind kind, gtfs::Day day);

  /// Columnar capture hook (core/columnar.h): labels `zone` exactly like
  /// LabelZone while appending every trip's cost *basis* (JT seconds, the
  /// five GAC components, fare) to `columns` in original trip order. One
  /// captured pass derives any number of cost definitions bit-identically
  /// — journeys do not depend on the cost kind. Routing strategy, SPQ
  /// accounting and the returned label (kJourneyTime) are unchanged.
  ZoneLabel CaptureZoneCosts(const Todam& todam, uint32_t zone,
                             const std::vector<synth::Poi>& pois,
                             gtfs::Day day, TripCostColumns* columns);

  /// Rebinds the engine to a different router (e.g. after a scenario swap
  /// that replaced the walk table). Invalidates the access-stop cache —
  /// cached hops reference the previous router's stop set.
  void SetRouter(router::Router* router);

  /// Scenario mutation hook: drops every cached per-zone AccessStops list.
  /// Must be called whenever the stop set or walk parameters behind the
  /// bound router change; zone centroids are immutable, so POI-only edits
  /// do not require it.
  void InvalidateAccessStopCache();

  /// Swaps the GAC weights used by subsequent kGeneralizedCost labeling.
  /// Serve workers share one engine across requests with differing weights.
  void set_gac_weights(router::GacWeights weights) { gac_weights_ = weights; }

  /// Total SPQs answered since construction (for cost accounting). One per
  /// TODAM trip regardless of engine — batching changes how queries are
  /// executed, not how many are asked.
  uint64_t spq_count() const { return spq_count_; }

  /// Router expansions actually dispatched: on the label-correcting router
  /// each departure group costs one expansion, on CSA each zone with trips
  /// costs one window scan.
  uint64_t expansion_count() const { return expansion_count_; }

 private:
  /// Routes every trip of `zone` (already sorted into order_) and records
  /// each journey at its original index: one RouteMany per departure
  /// group on the label-correcting router, or one window scan whose lanes
  /// are the departure groups on a CSA router.
  void RouteZoneGroups(const std::vector<TripEntry>& trips, uint32_t zone,
                       const std::vector<synth::Poi>& pois, CostKind kind,
                       gtfs::Day day);
  void RouteZoneWindow(const std::vector<TripEntry>& trips, uint32_t zone,
                       const std::vector<synth::Poi>& pois, CostKind kind,
                       gtfs::Day day);
  /// Records original trip `idx`'s journey: its cost and flags, and its
  /// cost basis when capturing.
  void RecordTrip(uint32_t idx, const router::Journey& journey,
                  CostKind kind);
  /// Folds the recorded trips (label->num_trips of them) into MAC/ACSD and
  /// the infeasible/walk-only counts.
  void AggregateInTripOrder(ZoneLabel* label) const;

  const synth::City* city_;
  router::Router* router_;
  router::GacWeights gac_weights_;
  uint64_t spq_count_ = 0;
  uint64_t expansion_count_ = 0;

  // Columnar capture sink: when set, every resolved journey is also
  // recorded at capture_base_ + original trip index. Active only inside
  // CaptureZoneCosts.
  TripCostColumns* capture_ = nullptr;
  size_t capture_base_ = 0;

  /// The zone's access stops, from the per-zone cache when warm. The serve
  /// hot path relabels the same zones over and over, which makes the
  /// walk-table lookup worth caching across calls.
  const std::vector<router::WalkHop>& CachedAccessStops(uint32_t zone);

  // Per-zone AccessStops cache. zone_access_valid_[z] gates zone_access_[z];
  // InvalidateAccessStopCache / SetRouter reset it.
  std::vector<std::vector<router::WalkHop>> zone_access_;
  std::vector<uint8_t> zone_access_valid_;

  // Scratch shared by both strategies (capacity persists across zones).
  std::vector<uint32_t> order_;          // trip indices sorted by departure
  std::vector<uint64_t> poi_stamp_;      // per-POI: last group it appeared in
  std::vector<uint32_t> poi_slot_;       // per-POI: its slot in that group
  uint64_t group_stamp_ = 0;
  std::vector<geo::Point> group_points_;        // deduped targets of a group
  std::vector<router::Journey> group_journeys_;
  std::vector<uint32_t> group_slots_;    // slot per grouped trip
  std::vector<double> trip_cost_;        // per original trip index
  std::vector<uint8_t> trip_flags_;      // bit0 feasible, bit1 walk-only
  std::vector<geo::Neighbor> neighbor_scratch_;

  // Window-scan scratch: the zone's POIs deduplicated once across every
  // departure group (poi_zone_* stamps, like the per-group poi_* pair), one
  // WindowLane per group, and the lanes' target/journey lists stored flat
  // so lane pointers index into two shared arrays.
  std::vector<uint64_t> poi_zone_stamp_;
  std::vector<uint32_t> poi_zone_slot_;
  uint64_t zone_stamp_ = 0;
  std::vector<geo::Point> unique_points_;       // zone-unique POI positions
  std::vector<uint32_t> profile_members_;       // per-lane unique-target ids
  std::vector<router::Journey> profile_journeys_;
  std::vector<size_t> lane_offsets_;            // lane -> profile_members_ pos
  std::vector<router::WindowLane> lanes_;
};

}  // namespace staq::core
