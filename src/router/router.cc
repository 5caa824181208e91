#include "router/router.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <limits>

#include "router/connections.h"
#include "router/csa.h"
#include "util/check.h"

namespace staq::router {

namespace {
constexpr gtfs::TimeOfDay kNever = INT32_MAX;
// Coarse departure-index cell width (power of two, seconds). One cell holds
// ~a headway's worth of departures, so the residual forward scan after the
// index lookup is a step or two.
constexpr int kDepCellShift = 6;
}  // namespace

Router::Router(const gtfs::Feed* feed, RouterOptions options)
    : feed_(feed), options_(options), walk_table_(feed, options.walk) {
  // A non-positive budget would not fail — it would make every search come
  // back empty (no boarding window, no reachable stop), which reads as
  // "nothing is accessible" instead of "the options are wrong".
  STAQ_CHECK(options_.horizon_s > 0, "horizon_s must be positive");
  STAQ_CHECK(options_.max_boarding_wait_s > 0,
             "max_boarding_wait_s must be positive");
  STAQ_CHECK(options_.walk.speed_mps > 0, "walk speed must be positive");
  STAQ_CHECK(options_.walk.detour_factor > 0,
             "walk detour factor must be positive");
  STAQ_CHECK(options_.walk.max_access_walk_s > 0,
             "access walk budget must be positive");
  STAQ_CHECK(options_.walk.max_transfer_walk_s > 0,
             "transfer walk budget must be positive");

  if (options_.engine == RoutingEngine::kCsa) {
    connections_ = ConnectionArray::EnsureFor(options_.connections, feed_);
    // options() then hands the shared array on: routers built from a
    // router's options (parallel labeling participants) scan this one.
    options_.connections = connections_;
    csa_ = std::make_unique<CsaEngine>(feed_, options_, connections_,
                                       &walk_table_);
    // Every query goes to the CSA engine: the label-correcting scratch and
    // departure index below would sit idle (about 1 MB per router on the
    // bench city), so a CSA router never builds them.
    return;
  }

  stop_epoch_.assign(feed_->num_stops(), 0);
  labels_.resize(feed_->num_stops());
  trip_epoch_.assign(feed_->num_trips(), 0);
  trip_board_index_.assign(feed_->num_trips(), 0);
  egress_epoch_.assign(feed_->num_stops(), 0);
  egress_head_.assign(feed_->num_stops(), -1);
  epoch_ = 0;

  size_t num_buckets = static_cast<size_t>(options_.horizon_s) + 2;
  buckets_.resize(num_buckets);
  bucket_epoch_.assign(num_buckets, 0);

  // Distinct lines per stop, where a line is (route, next stop): the FIFO
  // claim only holds among trips of one route heading the same way, and a
  // route's two directions commonly share a RouteId, so keying on the route
  // alone would let an already-ridden outbound trip block boarding the
  // inbound one. The boarding scan needs at most one departure per line, so
  // it can stop as soon as every line serving the stop has been claimed —
  // on typical feeds most stops serve a single line per direction, which
  // turns an hour-long departure scan into a handful of hits.
  stop_line_count_.assign(feed_->num_stops(), 0);
  gtfs::TimeOfDay last_dep = 0;
  std::vector<uint64_t> lines;
  for (uint32_t s = 0; s < feed_->num_stops(); ++s) {
    lines.clear();
    for (const gtfs::Departure& d : feed_->departures(s)) {
      last_dep = std::max(last_dep, d.time);
      const gtfs::Trip& t = feed_->trip(d.trip);
      if (d.stop_time_index + 1 >= t.first_stop_time + t.num_stop_times) {
        continue;  // final call: never boardable, claims no line
      }
      uint64_t line = LineKey(t.route, d.stop_time_index);
      if (std::find(lines.begin(), lines.end(), line) == lines.end()) {
        lines.push_back(line);
      }
    }
    stop_line_count_[s] = static_cast<uint32_t>(lines.size());
  }

  // Coarse per-stop departure index: cell c of stop s holds the index of
  // the first departure at or after time c << kDepCellShift. Turns the
  // per-settle binary search over the day's departures into one array read
  // plus a short in-cell scan.
  dep_cells_ = (static_cast<size_t>(last_dep) >> kDepCellShift) + 2;
  dep_index_.assign(feed_->num_stops() * dep_cells_, 0);
  for (uint32_t s = 0; s < feed_->num_stops(); ++s) {
    const auto& deps = feed_->departures(s);
    size_t j = deps.size();
    for (size_t c = dep_cells_; c-- > 0;) {
      gtfs::TimeOfDay cell_start =
          static_cast<gtfs::TimeOfDay>(c << kDepCellShift);
      while (j > 0 && deps[j - 1].time >= cell_start) --j;
      dep_index_[s * dep_cells_ + c] = static_cast<uint32_t>(j);
      if (j == 0 && cell_start == 0) break;  // remaining cells stay 0
    }
  }
}

Router::~Router() = default;

void Router::PushQueue(gtfs::TimeOfDay at, uint32_t stop) {
  size_t idx = static_cast<size_t>(at - query_depart_);
  if (bucket_epoch_[idx] != epoch_) {
    bucket_epoch_[idx] = epoch_;
    buckets_[idx].clear();
  }
  buckets_[idx].push_back(stop);
  max_bucket_ = std::max(max_bucket_, idx);
  ++queue_pending_;
}

Router::Label& Router::Touch(uint32_t stop) {
  if (stop_epoch_[stop] != epoch_) {
    stop_epoch_[stop] = epoch_;
    labels_[stop] = Label{};
    labels_[stop].arrival = kNever;
  }
  return labels_[stop];
}

gtfs::TimeOfDay RelaxLimit(double worst_total, gtfs::TimeOfDay depart,
                           gtfs::TimeOfDay latest_arrival) {
  if (!std::isfinite(worst_total)) return latest_arrival;
  // Keep labels with arrival - depart < worst_total; for integer arrivals
  // the latest such value is depart + ceil(worst_total) - 1.
  double cutoff = std::ceil(worst_total);
  if (cutoff >= static_cast<double>(latest_arrival - depart)) {
    return latest_arrival;
  }
  return depart + static_cast<gtfs::TimeOfDay>(cutoff) - 1;
}

void Router::RideTrip(gtfs::TripId trip, uint32_t from_stop_time_index,
                      uint32_t board_stop, gtfs::TimeOfDay board_time,
                      gtfs::TimeOfDay latest_arrival) {
  const gtfs::Trip& t = feed_->trip(trip);
  uint32_t end = t.first_stop_time + t.num_stop_times;

  // If this trip was already ridden from an earlier (or equal) call, the
  // earlier ride already relaxed everything downstream at least as well.
  // (The earlier ride may have pruned more, but only labels past the —
  // monotonically shrinking — relax limit, which stay prunable now.)
  if (trip_epoch_[trip] == epoch_ &&
      trip_board_index_[trip] <= from_stop_time_index) {
    return;
  }
  trip_epoch_[trip] = epoch_;
  trip_board_index_[trip] = from_stop_time_index;

  const auto& stop_times = feed_->stop_times();
  for (uint32_t i = from_stop_time_index + 1; i < end; ++i) {
    const gtfs::StopTime& call = stop_times[i];
    if (call.arrival > latest_arrival) break;
    Label& label = Touch(call.stop);
    if (call.arrival < label.arrival) {
      label.arrival = call.arrival;
      label.kind = Label::Kind::kRide;
      label.pred_stop = board_stop;
      label.trip = trip;
      label.board_time = board_time;
      label.walk_s = 0;
      PushQueue(call.arrival, call.stop);
    }
  }
}

void Router::SettleStop(uint32_t stop, gtfs::TimeOfDay now, gtfs::Day day,
                        gtfs::TimeOfDay depart,
                        gtfs::TimeOfDay latest_arrival, double& worst,
                        gtfs::TimeOfDay& relax_limit) {
  // Egress relaxation across every target wanting this stop.
  if (egress_epoch_[stop] == epoch_) {
    bool improved = false;
    for (int32_t e = egress_head_[stop]; e >= 0; e = egress_pool_[e].next) {
      const EgressEntry& eg = egress_pool_[e];
      double total = static_cast<double>(now - depart) + eg.walk_s;
      if (total < tgt_best_total_[eg.target]) {
        tgt_best_total_[eg.target] = total;
        tgt_best_stop_[eg.target] = stop;
        tgt_best_walk_[eg.target] = eg.walk_s;
        improved = true;
      }
    }
    if (improved) {
      worst =
          *std::max_element(tgt_best_total_.begin(), tgt_best_total_.end());
      relax_limit = RelaxLimit(worst, depart, latest_arrival);
    }
  }

  // Boarding scan: first departure per distinct line — (route, next stop),
  // see the ctor — at or after `now`. Claiming per line rather than per
  // route matters for correctness: a route's two directions usually share a
  // RouteId, and only same-direction trips are FIFO-comparable.
  seen_lines_scratch_.clear();
  const auto& deps = feed_->departures(stop);
  size_t cell = static_cast<size_t>(now) >> kDepCellShift;
  size_t i = cell < dep_cells_ ? dep_index_[stop * dep_cells_ + cell]
                               : deps.size();
  while (i < deps.size() && deps[i].time < now) ++i;
  gtfs::TimeOfDay scan_limit =
      now + static_cast<gtfs::TimeOfDay>(options_.max_boarding_wait_s);
  const size_t line_count = stop_line_count_[stop];
  for (; i < deps.size() && deps[i].time <= scan_limit; ++i) {
    if (seen_lines_scratch_.size() >= line_count) break;
    const gtfs::Departure& dep = deps[i];
    const gtfs::Trip& trip = feed_->trip(dep.trip);
    if (!gtfs::RunsOn(trip.days, day)) continue;
    if (dep.stop_time_index + 1 >= trip.first_stop_time + trip.num_stop_times)
      continue;  // final call
    uint64_t line = LineKey(trip.route, dep.stop_time_index);
    if (std::find(seen_lines_scratch_.begin(), seen_lines_scratch_.end(),
                  line) != seen_lines_scratch_.end()) {
      continue;  // a FIFO-earlier same-direction trip was already boarded
    }
    seen_lines_scratch_.push_back(line);
    RideTrip(dep.trip, dep.stop_time_index, stop, dep.time, relax_limit);
  }

  // Foot transfers.
  for (const WalkHop& hop : walk_table_.Transfers(stop)) {
    gtfs::TimeOfDay at =
        now + static_cast<gtfs::TimeOfDay>(std::lround(hop.walk_s));
    if (at > relax_limit) continue;
    Label& next = Touch(hop.stop);
    if (at < next.arrival) {
      next.arrival = at;
      next.kind = Label::Kind::kTransfer;
      next.pred_stop = stop;
      next.trip = gtfs::kInvalidId;
      next.walk_s = static_cast<float>(hop.walk_s);
      PushQueue(at, hop.stop);
    }
  }
}

Journey Router::Route(const geo::Point& origin, const geo::Point& dest,
                      gtfs::Day day, gtfs::TimeOfDay depart) {
  Journey out;
  RouteMany(origin, &dest, 1, day, depart, &out);
  return out;
}

std::vector<Journey> Router::RouteMany(const geo::Point& origin,
                                       const std::vector<geo::Point>& targets,
                                       gtfs::Day day, gtfs::TimeOfDay depart) {
  std::vector<Journey> out(targets.size());
  RouteMany(origin, targets.data(), targets.size(), day, depart, out.data());
  return out;
}

void Router::RouteMany(const geo::Point& origin, const geo::Point* targets,
                       size_t num_targets, gtfs::Day day,
                       gtfs::TimeOfDay depart, Journey* out,
                       const std::vector<WalkHop>* origin_access) {
  if (num_targets == 0) return;
  if (csa_ != nullptr) {
    csa_->RouteMany(origin, targets, num_targets, day, depart, out,
                    origin_access);
    return;
  }
  ++epoch_;
  query_depart_ = depart;
  queue_pending_ = 0;
  max_bucket_ = 0;
  egress_pool_.clear();

  gtfs::TimeOfDay latest_arrival =
      depart + static_cast<gtfs::TimeOfDay>(options_.horizon_s);

  // Per-target walk-only baselines. `worst` is the slackest still-improvable
  // target total; it bounds both the settle loop and (via RelaxLimit) every
  // label write.
  tgt_direct_walk_.resize(num_targets);
  tgt_best_total_.resize(num_targets);
  tgt_best_walk_.resize(num_targets);
  tgt_best_stop_.resize(num_targets);
  double worst = 0.0;
  for (size_t t = 0; t < num_targets; ++t) {
    double direct_walk_s = walk_table_.WalkSecondsBetween(origin, targets[t]);
    tgt_direct_walk_[t] = direct_walk_s;
    tgt_best_total_[t] = direct_walk_s <= options_.horizon_s
                             ? direct_walk_s
                             : std::numeric_limits<double>::infinity();
    tgt_best_walk_[t] = 0.0;
    tgt_best_stop_[t] = gtfs::kInvalidId;
    worst = std::max(worst, tgt_best_total_[t]);
  }
  gtfs::TimeOfDay relax_limit = RelaxLimit(worst, depart, latest_arrival);

  // Merge every target's egress candidates into one epoch-stamped map:
  // per-stop singly-linked lists threaded through the pooled entries.
  for (size_t t = 0; t < num_targets; ++t) {
    walk_table_.AccessStops(targets[t], &egress_scratch_, &neighbor_scratch_);
    for (const WalkHop& hop : egress_scratch_) {
      if (egress_epoch_[hop.stop] != epoch_) {
        egress_epoch_[hop.stop] = epoch_;
        egress_head_[hop.stop] = -1;
      }
      egress_pool_.push_back(EgressEntry{hop.walk_s, static_cast<uint32_t>(t),
                                         egress_head_[hop.stop]});
      egress_head_[hop.stop] = static_cast<int32_t>(egress_pool_.size()) - 1;
    }
  }

  // Seed access stops (shared by every target).
  if (origin_access == nullptr) {
    walk_table_.AccessStops(origin, &access_scratch_, &neighbor_scratch_);
    origin_access = &access_scratch_;
  }
  for (const WalkHop& hop : *origin_access) {
    gtfs::TimeOfDay at =
        depart + static_cast<gtfs::TimeOfDay>(std::lround(hop.walk_s));
    if (at > relax_limit) continue;
    Label& label = Touch(hop.stop);
    if (at < label.arrival) {
      label.arrival = at;
      label.kind = Label::Kind::kAccess;
      label.pred_stop = gtfs::kInvalidId;
      label.walk_s = static_cast<float>(hop.walk_s);
      PushQueue(at, hop.stop);
    }
  }

  // Settle loop: a bucket cursor walk. Once the earliest unsettled time
  // alone reaches every target's best known total, nothing can improve
  // (egress walk is non-negative), so the search breaks. Within one bucket
  // new entries may be appended mid-iteration (zero-second relaxations), so
  // the inner loop re-reads size(). Pushes are never behind the cursor:
  // every relaxation from `now` arrives at or after `now`.
  bool done = false;
  for (size_t b = 0; !done && queue_pending_ > 0 && b <= max_bucket_; ++b) {
    if (static_cast<double>(b) >= worst) break;
    if (bucket_epoch_[b] != epoch_) continue;
    gtfs::TimeOfDay now = depart + static_cast<gtfs::TimeOfDay>(b);
    std::vector<uint32_t>& bucket = buckets_[b];
    for (size_t k = 0; k < bucket.size(); ++k) {
      uint32_t stop = bucket[k];
      --queue_pending_;
      if (now > Touch(stop).arrival) continue;  // stale
      if (static_cast<double>(now - depart) >= worst) {
        done = true;
        break;
      }
      SettleStop(stop, now, day, depart, latest_arrival, worst, relax_limit);
    }
  }

  // Read each target's answer out of the shared search. Labels along any
  // reconstructed path arrive strictly before the settle loop's stopping
  // bound, so they are final here.
  for (size_t t = 0; t < num_targets; ++t) {
    Journey& j = out[t];
    if (tgt_best_total_[t] == std::numeric_limits<double>::infinity()) {
      j = Journey{};
      j.depart = depart;  // infeasible
      continue;
    }
    if (tgt_best_stop_[t] == gtfs::kInvalidId) {
      // Pure walk wins.
      j = Journey{};
      j.feasible = true;
      j.depart = depart;
      j.arrive = depart + static_cast<gtfs::TimeOfDay>(
                              std::lround(tgt_direct_walk_[t]));
      j.access_walk_s = tgt_direct_walk_[t];
      JourneyLeg leg;
      leg.type = JourneyLeg::Type::kWalk;
      leg.start = depart;
      leg.end = j.arrive;
      j.legs.push_back(leg);
      continue;
    }
    j = Reconstruct(origin, targets[t], depart, tgt_best_stop_[t],
                    tgt_best_walk_[t]);
  }
}

Journey Router::Reconstruct(const geo::Point& /*origin*/,
                            const geo::Point& /*dest*/, gtfs::TimeOfDay depart,
                            uint32_t egress_stop, double egress_walk_s) const {
  Journey j;
  j.feasible = true;
  j.depart = depart;

  // Walk back through labels collecting legs in reverse.
  std::vector<JourneyLeg> reversed;
  uint32_t stop = egress_stop;
  // The label array is valid for the current epoch; Reconstruct is called
  // immediately after the search.
  int guard = 0;
  while (stop != gtfs::kInvalidId && guard++ < 1024) {
    const Label& label = labels_[stop];
    switch (label.kind) {
      case Label::Kind::kAccess: {
        JourneyLeg walk;
        walk.type = JourneyLeg::Type::kWalk;
        walk.end = label.arrival;
        walk.start = label.arrival -
                     static_cast<gtfs::TimeOfDay>(std::lround(label.walk_s));
        walk.to_stop = stop;
        reversed.push_back(walk);
        j.access_walk_s += label.walk_s;
        stop = gtfs::kInvalidId;
        break;
      }
      case Label::Kind::kRide: {
        JourneyLeg ride;
        ride.type = JourneyLeg::Type::kRide;
        ride.route = feed_->trip(label.trip).route;
        ride.from_stop = label.pred_stop;
        ride.to_stop = stop;
        ride.start = label.board_time;
        ride.end = label.arrival;
        reversed.push_back(ride);
        j.in_vehicle_s += static_cast<double>(ride.end - ride.start);
        ++j.num_boardings;
        j.total_fare += feed_->route(ride.route).flat_fare;

        // Wait at the boarding stop between arrival there and departure.
        const Label& board_label = labels_[label.pred_stop];
        gtfs::TimeOfDay waited = label.board_time - board_label.arrival;
        if (waited > 0) {
          JourneyLeg wait;
          wait.type = JourneyLeg::Type::kWait;
          wait.start = board_label.arrival;
          wait.end = label.board_time;
          wait.from_stop = wait.to_stop = label.pred_stop;
          reversed.push_back(wait);
          j.wait_s += static_cast<double>(waited);
        }
        stop = label.pred_stop;
        break;
      }
      case Label::Kind::kTransfer: {
        JourneyLeg walk;
        walk.type = JourneyLeg::Type::kWalk;
        walk.end = label.arrival;
        walk.start = label.arrival -
                     static_cast<gtfs::TimeOfDay>(std::lround(label.walk_s));
        walk.from_stop = label.pred_stop;
        walk.to_stop = stop;
        reversed.push_back(walk);
        j.transfer_walk_s += label.walk_s;
        stop = label.pred_stop;
        break;
      }
      case Label::Kind::kNone:
        assert(false && "reconstruction reached an unlabeled stop");
        stop = gtfs::kInvalidId;
        break;
    }
  }

  std::reverse(reversed.begin(), reversed.end());
  j.legs = std::move(reversed);

  // Egress leg.
  gtfs::TimeOfDay at_stop = labels_[egress_stop].arrival;
  JourneyLeg walk;
  walk.type = JourneyLeg::Type::kWalk;
  walk.start = at_stop;
  walk.end =
      at_stop + static_cast<gtfs::TimeOfDay>(std::lround(egress_walk_s));
  walk.from_stop = egress_stop;
  j.legs.push_back(walk);
  j.egress_walk_s = egress_walk_s;
  j.arrive = walk.end;
  return j;
}

}  // namespace staq::router
