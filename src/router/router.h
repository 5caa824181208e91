// Multi-modal (walk + transit) earliest-arrival router.
//
// This is the library's SPQ oracle — the role OpenTripPlanner plays in the
// paper (§IV-D). A query (origin point, destination point, day, departure
// time) is answered with the earliest-arrival journey, decomposed into the
// components the JT and GAC cost functions need.
//
// Algorithm: label-correcting Dijkstra over stops in the time dimension.
// Settling a stop scans its next departure per route (FIFO timetables make
// the earliest boarding dominate later ones) and rides each trip forward,
// then relaxes precomputed foot transfers. Access and egress legs connect
// arbitrary points to stops within the walking budget; a pure-walk journey
// is always considered.
//
// Three levers keep the zone-labeling hot path fast without changing an
// earliest arrival:
//  * RouteMany answers all SPQs that share an origin and departure with ONE
//    expansion — the expansion itself never depends on the destination, so
//    each target reads its answer out of the shared search (per-target
//    egress candidates live in an epoch-stamped pooled map, replacing the
//    per-query O(num_stops) egress table).
//  * Bounded relaxation prunes every label write that would arrive at or
//    after depart + (worst best-known total across targets). Such entries
//    would pop only after the search has already stopped improving, and
//    can never appear on a reconstructed path (see RelaxLimit).
//  * The boarding scan at a stop stops once every distinct line — (route,
//    direction), keyed by the trip's next stop — has claimed its earliest
//    departure: FIFO timetables make later same-direction departures of a
//    claimed line irrelevant.
// The queue is a Dial-style bucket queue (O(1) push, cursor-scan pop); the
// order it settles equal-time entries in fixes how equal-cost journeys
// decompose into legs. RouteManyTest.JourneysMatchRecordedDigest pins every
// leg of the router's answers across commits.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "gtfs/feed.h"
#include "router/cost.h"
#include "router/walk_table.h"

namespace staq::router {

class ConnectionArray;
class CsaEngine;

/// Which engine answers SPQs (see router/csa.h for the contract between
/// the two).
enum class RoutingEngine : uint8_t {
  /// Label-correcting Dijkstra (this file) — the routing oracle.
  kLabelCorrecting,
  /// Connection Scan over a preprocessed connection array. Journey times,
  /// feasibility, and the journey-time MAC/ACSD built from them are
  /// bit-identical to kLabelCorrecting. Journeys that arrive at the same
  /// time may decompose into different legs (the engines settle ties in
  /// different orders), so generalized-cost labels differ: on Brindale 0.1
  /// (school, AM peak, rate 12, TODAM seed 1) 3 508 of 19 497 journeys
  /// (18.0 %) tie on arrival but differ in GAC, mean GAC 5 357.6
  /// (label-correcting) against 5 437.6 (CSA); over 48 city/interval/
  /// category/seed cases 59-84 % of zones differ in GAC MAC or ACSD, by up
  /// to 21.6 % MAC (DESIGN.md §11).
  kCsa,
};

/// Router configuration.
struct RouterOptions {
  WalkParams walk;
  /// Maximum journey duration considered. The horizon bounds transit stop
  /// labels (and the pure-walk baseline); a journey whose final egress walk
  /// extends slightly past the horizon may still be returned. Journeys
  /// whose total duration fits within the horizon are found optimally.
  double horizon_s = 3 * 3600;
  /// Maximum wait for any single boarding.
  double max_boarding_wait_s = 3600;
  /// Engine selection. kCsa answers every query via the Connection Scan
  /// engine (router/csa.h), exposed through Router::csa() for the profile
  /// (window) entry point the labeling hot path uses.
  RoutingEngine engine = RoutingEngine::kLabelCorrecting;
  /// Pre-built connection array to share (kCsa only; must be built from
  /// the same feed the Router is given). Null = the Router builds its own.
  /// Passing one array to every per-thread Router amortises the build —
  /// the array is immutable, so sharing is free — and is how serve keeps
  /// one array alive across scenario epochs.
  std::shared_ptr<const ConnectionArray> connections;
};

/// Latest arrival still worth labeling in a search from `depart` whose
/// slackest still-improvable target total is `worst_total` seconds: a label
/// arriving at or after depart + worst_total would be popped only after the
/// search stops improving, so writing it cannot change any answer. Shared
/// by both engines.
gtfs::TimeOfDay RelaxLimit(double worst_total, gtfs::TimeOfDay depart,
                           gtfs::TimeOfDay latest_arrival);

/// Earliest-arrival router over one Feed. Reuses internal scratch space
/// across queries via epoch versioning; a Router instance is therefore NOT
/// safe for concurrent queries — use one Router per thread.
class Router {
 public:
  /// Validates `options` with STAQ_CHECK: non-positive horizons, boarding
  /// waits, or walk budgets would silently turn every query into an empty
  /// search, so they abort instead.
  Router(const gtfs::Feed* feed, RouterOptions options);
  ~Router();

  // The CSA engine holds pointers into this Router (walk table, options),
  // so the instance must stay put.
  Router(const Router&) = delete;
  Router& operator=(const Router&) = delete;

  const RouterOptions& options() const { return options_; }
  const WalkTable& walk_table() const { return walk_table_; }

  /// The Connection Scan engine when options().engine == kCsa, else null.
  /// The labeling hot path uses it directly for window (profile) queries.
  CsaEngine* csa() { return csa_.get(); }
  const CsaEngine* csa() const { return csa_.get(); }

  /// Answers the SPQ (o, d, t): earliest-arrival journey leaving `origin`
  /// at `depart` on `day`. Returns an infeasible Journey when `dest` cannot
  /// be reached within the horizon.
  Journey Route(const geo::Point& origin, const geo::Point& dest,
                gtfs::Day day, gtfs::TimeOfDay depart);

  /// One-to-many SPQ batch: answers (origin, targets[t], depart) for every
  /// t with a single shared expansion, writing `num_targets` journeys into
  /// `out`. Each journey is bit-identical to the corresponding Route call.
  /// `origin_access`, when non-null, must equal AccessStops(origin) — pass
  /// a cached copy so repeated batches from one origin skip the seeding
  /// lookup.
  void RouteMany(const geo::Point& origin, const geo::Point* targets,
                 size_t num_targets, gtfs::Day day, gtfs::TimeOfDay depart,
                 Journey* out,
                 const std::vector<WalkHop>* origin_access = nullptr);

  /// Convenience overload returning the batch by value.
  std::vector<Journey> RouteMany(const geo::Point& origin,
                                 const std::vector<geo::Point>& targets,
                                 gtfs::Day day, gtfs::TimeOfDay depart);

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
  bool Fresh(uint32_t stop) const { return stop_epoch_[stop] == epoch_; }
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
  Journey Reconstruct(const geo::Point& origin, const geo::Point& dest,
                      gtfs::TimeOfDay depart, uint32_t egress_stop,
                      double egress_walk_s) const;

  const gtfs::Feed* feed_;
  RouterOptions options_;
  WalkTable walk_table_;

  // Connection Scan engine (options_.engine == kCsa): every RouteMany is
  // dispatched to it, and the label-correcting machinery below is never
  // built.
  std::shared_ptr<const ConnectionArray> connections_;
  std::unique_ptr<CsaEngine> csa_;

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
  std::vector<WalkHop> access_scratch_;
  std::vector<WalkHop> egress_scratch_;
  std::vector<geo::Neighbor> neighbor_scratch_;

  // Per-target search state, resized per RouteMany call.
  std::vector<double> tgt_direct_walk_;
  std::vector<double> tgt_best_total_;
  std::vector<double> tgt_best_walk_;
  std::vector<uint32_t> tgt_best_stop_;
};

}  // namespace staq::router
