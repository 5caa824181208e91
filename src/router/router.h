// Multi-modal (walk + transit) earliest-arrival router.
//
// This is the library's SPQ oracle — the role OpenTripPlanner plays in the
// paper (§IV-D). A query (origin point, destination point, day, departure
// time) is answered with the earliest-arrival journey, decomposed into the
// components the JT and GAC cost functions need.
//
// Every query runs on the Connection Scan engine (router/csa.h): one sweep
// over the day's time-sorted connections, with access and egress legs
// connecting arbitrary points to stops within the walking budget and a
// pure-walk journey always considered. RouteMany answers all SPQs that
// share an origin and departure with one sweep; the labeling hot path
// reaches the engine's window (profile) entry point through csa() to answer
// whole blocks of zones' departures with one sweep. The connection scan
// writes equal-arrival ties in departure order, which fixes how equal-time
// journeys decompose into legs; CsaJourneyDigestTest pins every leg across
// commits. An independent label-correcting search is kept as the test
// oracle (tests/testing/label_correcting_router.h); CsaEquivalenceTest
// holds journey times and feasibility bit-identical to it.
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
  /// Pre-built connection array to share (must be built from the same feed
  /// the Router is given). Null = the Router builds its own. Passing one
  /// array to every per-thread Router amortises the build — the array is
  /// immutable, so sharing is free — and is how serve keeps one array alive
  /// across scenario epochs.
  std::shared_ptr<const ConnectionArray> connections;
};

/// Latest arrival still worth labeling in a search from `depart` whose
/// slackest still-improvable target total is `worst_total` seconds: a label
/// arriving at or after depart + worst_total would be settled only after
/// the search stops improving, so writing it cannot change any answer.
gtfs::TimeOfDay RelaxLimit(double worst_total, gtfs::TimeOfDay depart,
                           gtfs::TimeOfDay latest_arrival);

/// Earliest-arrival router over one Feed. The engine reuses internal
/// scratch space across queries via epoch versioning; a Router instance is
/// therefore NOT safe for concurrent queries — use one Router per thread.
class Router {
 public:
  /// Validates `options` with STAQ_CHECK: non-positive horizons, boarding
  /// waits, or walk budgets would silently turn every query into an empty
  /// search, so they abort instead. Adopts options.connections, or builds
  /// the feed's connection array when it is null; options() then carries
  /// the array, so routers built from a router's options share it.
  Router(const gtfs::Feed* feed, RouterOptions options);
  ~Router();

  // The CSA engine holds pointers into this Router (walk table, options),
  // so the instance must stay put.
  Router(const Router&) = delete;
  Router& operator=(const Router&) = delete;

  const RouterOptions& options() const { return options_; }
  const WalkTable& walk_table() const { return walk_table_; }

  /// The Connection Scan engine every query runs on. The labeling hot path
  /// uses it directly for window (profile) queries.
  CsaEngine* csa() { return csa_.get(); }
  const CsaEngine* csa() const { return csa_.get(); }

  /// Answers the SPQ (o, d, t): earliest-arrival journey leaving `origin`
  /// at `depart` on `day`. Returns an infeasible Journey when `dest` cannot
  /// be reached within the horizon.
  Journey Route(const geo::Point& origin, const geo::Point& dest,
                gtfs::Day day, gtfs::TimeOfDay depart);

  /// One-to-many SPQ batch: answers (origin, targets[t], depart) for every
  /// t with a single shared sweep, writing `num_targets` journeys into
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
  RouterOptions options_;
  WalkTable walk_table_;
  std::unique_ptr<CsaEngine> csa_;
};

}  // namespace staq::router
