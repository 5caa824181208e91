// The label-correcting routing oracle, and the grouped zone labeler that
// drives it.
//
// router::Router answers every SPQ by connection scan. This is the second,
// independent earliest-arrival search that tests and bench_labeling check
// it against: a label-correcting Dijkstra over stops in the time
// dimension. Settling a stop scans its next departure per route (FIFO
// timetables make the earliest boarding dominate later ones) and rides each
// trip forward, then relaxes precomputed foot transfers. Access and egress
// legs connect arbitrary points to stops within the walking budget; a
// pure-walk journey is always considered.
//
// Journey times, feasibility, and the journey-time MAC/ACSD built from them
// are bit-identical to the Router's (CsaEquivalenceTest). Journeys that
// arrive at the same time may decompose into different legs, because the
// two searches write ties in different orders (a bucket queue in settle
// order, a connection scan in departure order), so generalized-cost labels
// differ; DESIGN.md §11.5 has the numbers.
//
// Three levers keep the search fast without changing an earliest arrival:
//  * RouteMany answers all SPQs that share an origin and departure with ONE
//    expansion — the expansion itself never depends on the destination, so
//    each target reads its answer out of the shared search (per-target
//    egress candidates live in an epoch-stamped pooled map, replacing the
//    per-query O(num_stops) egress table).
//  * Bounded relaxation prunes every label write that would arrive at or
//    after depart + (worst best-known total across targets). Such entries
//    would pop only after the search has already stopped improving, and
//    can never appear on a reconstructed path (see router::RelaxLimit).
//  * The boarding scan at a stop stops once every distinct line — (route,
//    direction), keyed by the trip's next stop — has claimed its earliest
//    departure: FIFO timetables make later same-direction departures of a
//    claimed line irrelevant.
// The queue is a Dial-style bucket queue (O(1) push, cursor-scan pop); the
// order it settles equal-time entries in fixes how equal-cost journeys
// decompose into legs. RouteManyTest.JourneysMatchRecordedDigest pins every
// leg of the oracle's answers across commits.
#pragma once

#include <cstdint>
#include <vector>

#include "core/labeling.h"
#include "core/todam.h"
#include "gtfs/feed.h"
#include "router/cost.h"
#include "router/router.h"
#include "router/walk_table.h"
#include "synth/city_builder.h"

namespace staq::testing {

/// Earliest-arrival label-correcting search over one Feed, with the
/// Router's query surface. `options.connections` is ignored. Reuses
/// internal scratch space across queries via epoch versioning, so one
/// instance per thread.
class LabelCorrectingRouter {
 public:
  /// Validates `options` with STAQ_CHECK, like router::Router.
  LabelCorrectingRouter(const gtfs::Feed* feed, router::RouterOptions options);

  const router::RouterOptions& options() const { return options_; }
  const router::WalkTable& walk_table() const { return walk_table_; }

  /// Answers the SPQ (o, d, t); same contract as router::Router::Route.
  router::Journey Route(const geo::Point& origin, const geo::Point& dest,
                        gtfs::Day day, gtfs::TimeOfDay depart);

  /// One-to-many SPQ batch with a single shared expansion; same contract as
  /// router::Router::RouteMany.
  void RouteMany(const geo::Point& origin, const geo::Point* targets,
                 size_t num_targets, gtfs::Day day, gtfs::TimeOfDay depart,
                 router::Journey* out,
                 const std::vector<router::WalkHop>* origin_access = nullptr);

  /// Convenience overload returning the batch by value.
  std::vector<router::Journey> RouteMany(const geo::Point& origin,
                                         const std::vector<geo::Point>& targets,
                                         gtfs::Day day,
                                         gtfs::TimeOfDay depart);

 private:
  struct Label {
    enum class Kind : uint8_t { kNone, kAccess, kRide, kTransfer };
    gtfs::TimeOfDay arrival = 0;
    Kind kind = Kind::kNone;
    uint32_t pred_stop = gtfs::kInvalidId;  // kRide: boarding stop; kTransfer: origin stop
    gtfs::TripId trip = gtfs::kInvalidId;   // kRide
    gtfs::TimeOfDay board_time = 0;         // kRide: departure at boarding stop
    float walk_s = 0;                       // kAccess / kTransfer walk time
  };

  /// One merged egress candidate: stop -> (target, walk) pairs chained
  /// through `next` into per-stop lists headed by egress_head_.
  struct EgressEntry {
    double walk_s = 0.0;
    uint32_t target = 0;
    int32_t next = -1;
  };

  /// Resets per-query scratch lazily via the epoch counter.
  Label& Touch(uint32_t stop);

  /// Identity of a FIFO-comparable line through a stop: the route plus the
  /// trip's next stop (the direction proxy). Two directions of one route
  /// usually share a RouteId; only same-direction trips obey the FIFO
  /// boarding dominance the scan relies on. `stop_time_index` must not be a
  /// trip's final call.
  uint64_t LineKey(gtfs::RouteId route, uint32_t stop_time_index) const {
    return (static_cast<uint64_t>(route) << 32) |
           feed_->stop_times()[stop_time_index + 1].stop;
  }

  void RideTrip(gtfs::TripId trip, uint32_t from_stop_time_index,
                uint32_t board_stop, gtfs::TimeOfDay board_time,
                gtfs::TimeOfDay latest_arrival);

  /// Settles one queue entry: relaxes egress candidates, boards departures,
  /// and walks foot transfers. `worst` / `relax_limit` shrink as targets
  /// improve.
  void SettleStop(uint32_t stop, gtfs::TimeOfDay now, gtfs::Day day,
                  gtfs::TimeOfDay depart, gtfs::TimeOfDay latest_arrival,
                  double& worst, gtfs::TimeOfDay& relax_limit);
  router::Journey Reconstruct(gtfs::TimeOfDay depart, uint32_t egress_stop,
                              double egress_walk_s) const;

  const gtfs::Feed* feed_;
  router::RouterOptions options_;
  router::WalkTable walk_table_;

  // Distinct lines (route, next stop) serving each stop; lets the boarding
  // scan terminate as soon as every line has claimed its earliest
  // departure.
  std::vector<uint32_t> stop_line_count_;

  // Coarse per-stop departure index: dep_index_[stop * dep_cells_ + c] is
  // the index of the stop's first departure at or after time
  // c << kDepCellShift. Replaces the per-settle binary search over the
  // day's departures with one read plus a short in-cell scan.
  size_t dep_cells_ = 0;
  std::vector<uint32_t> dep_index_;

  /// Enqueues `stop` in the bucket for arrival time `at`.
  void PushQueue(gtfs::TimeOfDay at, uint32_t stop);

  // Scratch: labels + queue, versioned by epoch_ so a new query needs no
  // O(n) clear.
  uint32_t epoch_ = 0;
  std::vector<uint32_t> stop_epoch_;
  std::vector<Label> labels_;
  std::vector<uint32_t> trip_epoch_;
  std::vector<uint32_t> trip_board_index_;  // earliest stop_time index boarded
  std::vector<uint64_t> seen_lines_scratch_;

  // Dial-style bucket queue: arrivals are integer seconds in
  // [depart, depart + horizon], so bucket b holds stops reachable at
  // depart + b. Push is O(1); popping scans the cursor forward, which costs
  // at most one pass over the horizon per query and in practice far less
  // (the settle loop breaks at the best-known total). Buckets are lazily
  // reset via bucket_epoch_; queue_pending_ lets the scan stop as soon as
  // the queue drains.
  gtfs::TimeOfDay query_depart_ = 0;
  std::vector<std::vector<uint32_t>> buckets_;
  std::vector<uint32_t> bucket_epoch_;
  uint32_t queue_pending_ = 0;
  size_t max_bucket_ = 0;

  // Merged egress map, versioned by the same epoch (replaces the per-query
  // O(num_stops) egress table).
  std::vector<uint32_t> egress_epoch_;
  std::vector<int32_t> egress_head_;
  std::vector<EgressEntry> egress_pool_;

  // Walk-lookup reuse buffers (retain capacity across queries).
  std::vector<router::WalkHop> access_scratch_;
  std::vector<router::WalkHop> egress_scratch_;
  std::vector<geo::Neighbor> neighbor_scratch_;

  // Per-target search state, resized per RouteMany call.
  std::vector<double> tgt_direct_walk_;
  std::vector<double> tgt_best_total_;
  std::vector<double> tgt_best_walk_;
  std::vector<uint32_t> tgt_best_stop_;
};

/// The grouped zone labeler over the oracle: a zone's trips sorted by
/// departure, repeated POIs of a departure collapsed to one target, and one
/// RouteMany expansion per departure group, with the zone's access stops
/// looked up once. Costs aggregate in original trip order, so every label
/// equals one Route per trip (per_trip_labeling.h) bit for bit.
class LabelCorrectingLabeler {
 public:
  /// `city` and `router` must outlive the labeler.
  LabelCorrectingLabeler(const synth::City* city, LabelCorrectingRouter* router,
                         router::GacWeights gac_weights = {});

  core::ZoneLabel LabelZone(const core::Todam& todam, uint32_t zone,
                            const std::vector<synth::Poi>& pois,
                            core::CostKind kind, gtfs::Day day);

  /// LabelZone for every entry of `zones`, in order.
  std::vector<core::ZoneLabel> LabelZones(const core::Todam& todam,
                                          const std::vector<uint32_t>& zones,
                                          const std::vector<synth::Poi>& pois,
                                          core::CostKind kind, gtfs::Day day);

  /// SPQs answered since construction: one per TODAM trip.
  uint64_t spq_count() const { return spq_count_; }
  /// RouteMany expansions dispatched: one per departure group.
  uint64_t expansion_count() const { return expansion_count_; }

 private:
  const synth::City* city_;
  LabelCorrectingRouter* router_;
  router::GacWeights gac_weights_;
  uint64_t spq_count_ = 0;
  uint64_t expansion_count_ = 0;

  std::vector<router::WalkHop> access_;
  std::vector<geo::Neighbor> neighbor_scratch_;
  std::vector<uint32_t> order_;       // trip indices sorted by departure
  std::vector<uint64_t> poi_stamp_;   // per-POI: last group it appeared in
  std::vector<uint32_t> poi_slot_;    // per-POI: its slot in that group
  uint64_t group_stamp_ = 0;
  std::vector<geo::Point> group_points_;  // deduped targets of a group
  std::vector<router::Journey> group_journeys_;
  std::vector<uint32_t> group_slots_;  // slot per grouped trip
  std::vector<double> trip_cost_;      // per original trip index
  std::vector<uint8_t> trip_flags_;    // bit0 feasible, bit1 walk-only
};

}  // namespace staq::testing
