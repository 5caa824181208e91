#include "testing/label_correcting_router.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <limits>

#include "testing/scalar_oracle.h"
#include "util/check.h"

namespace staq::testing {

namespace {
constexpr gtfs::TimeOfDay kNever = INT32_MAX;
// Coarse departure-index cell width (power of two, seconds). One cell holds
// ~a headway's worth of departures, so the residual forward scan after the
// index lookup is a step or two.
constexpr int kDepCellShift = 6;
}  // namespace

LabelCorrectingRouter::LabelCorrectingRouter(const gtfs::Feed* feed,
                                             router::RouterOptions options)
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

void LabelCorrectingRouter::PushQueue(gtfs::TimeOfDay at, uint32_t stop) {
  size_t idx = static_cast<size_t>(at - query_depart_);
  if (bucket_epoch_[idx] != epoch_) {
    bucket_epoch_[idx] = epoch_;
    buckets_[idx].clear();
  }
  buckets_[idx].push_back(stop);
  max_bucket_ = std::max(max_bucket_, idx);
  ++queue_pending_;
}

LabelCorrectingRouter::Label& LabelCorrectingRouter::Touch(uint32_t stop) {
  if (stop_epoch_[stop] != epoch_) {
    stop_epoch_[stop] = epoch_;
    labels_[stop] = Label{};
    labels_[stop].arrival = kNever;
  }
  return labels_[stop];
}

void LabelCorrectingRouter::RideTrip(gtfs::TripId trip,
                                     uint32_t from_stop_time_index,
                                     uint32_t board_stop,
                                     gtfs::TimeOfDay board_time,
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

void LabelCorrectingRouter::SettleStop(uint32_t stop, gtfs::TimeOfDay now,
                                       gtfs::Day day, gtfs::TimeOfDay depart,
                                       gtfs::TimeOfDay latest_arrival,
                                       double& worst,
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
      relax_limit = router::RelaxLimit(worst, depart, latest_arrival);
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
  for (const router::WalkHop& hop : walk_table_.Transfers(stop)) {
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

router::Journey LabelCorrectingRouter::Route(const geo::Point& origin,
                                             const geo::Point& dest,
                                             gtfs::Day day,
                                             gtfs::TimeOfDay depart) {
  router::Journey out;
  RouteMany(origin, &dest, 1, day, depart, &out);
  return out;
}

std::vector<router::Journey> LabelCorrectingRouter::RouteMany(
    const geo::Point& origin, const std::vector<geo::Point>& targets,
    gtfs::Day day, gtfs::TimeOfDay depart) {
  std::vector<router::Journey> out(targets.size());
  RouteMany(origin, targets.data(), targets.size(), day, depart, out.data());
  return out;
}

void LabelCorrectingRouter::RouteMany(
    const geo::Point& origin, const geo::Point* targets, size_t num_targets,
    gtfs::Day day, gtfs::TimeOfDay depart, router::Journey* out,
    const std::vector<router::WalkHop>* origin_access) {
  if (num_targets == 0) return;
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
  gtfs::TimeOfDay relax_limit =
      router::RelaxLimit(worst, depart, latest_arrival);

  // Merge every target's egress candidates into one epoch-stamped map:
  // per-stop singly-linked lists threaded through the pooled entries.
  for (size_t t = 0; t < num_targets; ++t) {
    walk_table_.AccessStops(targets[t], &egress_scratch_, &neighbor_scratch_);
    for (const router::WalkHop& hop : egress_scratch_) {
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
  for (const router::WalkHop& hop : *origin_access) {
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
    router::Journey& j = out[t];
    if (tgt_best_total_[t] == std::numeric_limits<double>::infinity()) {
      j = router::Journey{};
      j.depart = depart;  // infeasible
      continue;
    }
    if (tgt_best_stop_[t] == gtfs::kInvalidId) {
      // Pure walk wins.
      j = router::Journey{};
      j.feasible = true;
      j.depart = depart;
      j.arrive = depart + static_cast<gtfs::TimeOfDay>(
                              std::lround(tgt_direct_walk_[t]));
      j.access_walk_s = tgt_direct_walk_[t];
      router::JourneyLeg leg;
      leg.type = router::JourneyLeg::Type::kWalk;
      leg.start = depart;
      leg.end = j.arrive;
      j.legs.push_back(leg);
      continue;
    }
    j = Reconstruct(depart, tgt_best_stop_[t], tgt_best_walk_[t]);
  }
}

router::Journey LabelCorrectingRouter::Reconstruct(
    gtfs::TimeOfDay depart, uint32_t egress_stop, double egress_walk_s) const {
  router::Journey j;
  j.feasible = true;
  j.depart = depart;

  // Walk back through labels collecting legs in reverse.
  std::vector<router::JourneyLeg> reversed;
  uint32_t stop = egress_stop;
  // The label array is valid for the current epoch; Reconstruct is called
  // immediately after the search.
  int guard = 0;
  while (stop != gtfs::kInvalidId && guard++ < 1024) {
    const Label& label = labels_[stop];
    switch (label.kind) {
      case Label::Kind::kAccess: {
        router::JourneyLeg walk;
        walk.type = router::JourneyLeg::Type::kWalk;
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
        router::JourneyLeg ride;
        ride.type = router::JourneyLeg::Type::kRide;
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
          router::JourneyLeg wait;
          wait.type = router::JourneyLeg::Type::kWait;
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
        router::JourneyLeg walk;
        walk.type = router::JourneyLeg::Type::kWalk;
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
  router::JourneyLeg walk;
  walk.type = router::JourneyLeg::Type::kWalk;
  walk.start = at_stop;
  walk.end =
      at_stop + static_cast<gtfs::TimeOfDay>(std::lround(egress_walk_s));
  walk.from_stop = egress_stop;
  j.legs.push_back(walk);
  j.egress_walk_s = egress_walk_s;
  j.arrive = walk.end;
  return j;
}

LabelCorrectingLabeler::LabelCorrectingLabeler(const synth::City* city,
                                               LabelCorrectingRouter* router,
                                               router::GacWeights gac_weights)
    : city_(city), router_(router), gac_weights_(gac_weights) {}

core::ZoneLabel LabelCorrectingLabeler::LabelZone(
    const core::Todam& todam, uint32_t zone,
    const std::vector<synth::Poi>& pois, core::CostKind kind, gtfs::Day day) {
  const std::span<const core::TripEntry> trips = todam.TripsFor(zone);
  const geo::Point& origin = city_->zones[zone].centroid;
  router_->walk_table().AccessStops(origin, &access_, &neighbor_scratch_);
  order_.resize(trips.size());
  for (uint32_t i = 0; i < trips.size(); ++i) order_[i] = i;
  std::sort(order_.begin(), order_.end(), [&](uint32_t x, uint32_t y) {
    return trips[x].depart < trips[y].depart;
  });
  spq_count_ += trips.size();
  if (poi_stamp_.size() < pois.size()) {
    poi_stamp_.resize(pois.size(), 0);
    poi_slot_.resize(pois.size(), 0);
  }
  trip_cost_.resize(trips.size());
  trip_flags_.resize(trips.size());

  // One RouteMany per departure group, with repeated POIs inside a group
  // collapsed to a single target.
  size_t g = 0;
  while (g < trips.size()) {
    gtfs::TimeOfDay depart = trips[order_[g]].depart;
    size_t g_end = g;
    ++group_stamp_;
    group_points_.clear();
    group_slots_.clear();
    while (g_end < trips.size() && trips[order_[g_end]].depart == depart) {
      uint32_t poi = trips[order_[g_end]].poi;
      if (poi_stamp_[poi] != group_stamp_) {
        poi_stamp_[poi] = group_stamp_;
        poi_slot_[poi] = static_cast<uint32_t>(group_points_.size());
        group_points_.push_back(pois[poi].position);
      }
      group_slots_.push_back(poi_slot_[poi]);
      ++g_end;
    }

    group_journeys_.resize(group_points_.size());
    router_->RouteMany(origin, group_points_.data(), group_points_.size(), day,
                       depart, group_journeys_.data(), &access_);
    ++expansion_count_;

    for (size_t k = g; k < g_end; ++k) {
      const router::Journey& journey = group_journeys_[group_slots_[k - g]];
      uint8_t flags = 0;
      double cost = 0.0;
      if (journey.feasible) {
        flags |= 1;
        if (journey.IsWalkOnly()) flags |= 2;
        cost = kind == core::CostKind::kJourneyTime
                   ? journey.JourneyTimeSeconds()
                   : GeneralizedAccessCost(journey, gac_weights_);
      }
      trip_cost_[order_[k]] = cost;
      trip_flags_[order_[k]] = flags;
    }
    g = g_end;
  }

  // ORIGINAL trip order, so the floating-point sums equal one Route per
  // trip accumulated as the TODAM lists them, bit for bit.
  core::ZoneLabel label;
  label.num_trips = static_cast<uint32_t>(trips.size());
  double sum = 0.0, sum_sq = 0.0;
  uint32_t feasible = 0;
  for (size_t i = 0; i < trips.size(); ++i) {
    if (!(trip_flags_[i] & 1)) {
      ++label.num_infeasible;
      continue;
    }
    if (trip_flags_[i] & 2) ++label.num_walk_only;
    double cost = trip_cost_[i];
    sum += cost;
    sum_sq += cost * cost;
    ++feasible;
  }
  if (feasible > 0) {
    double n = static_cast<double>(feasible);
    label.mac = sum / n;
    double var = sum_sq / n - label.mac * label.mac;
    label.acsd = var > 0 ? std::sqrt(var) : 0.0;
  }
  return label;
}

std::vector<core::ZoneLabel> LabelCorrectingLabeler::LabelZones(
    const core::Todam& todam, const std::vector<uint32_t>& zones,
    const std::vector<synth::Poi>& pois, core::CostKind kind, gtfs::Day day) {
  std::vector<core::ZoneLabel> out;
  out.reserve(zones.size());
  for (uint32_t zone : zones) {
    out.push_back(LabelZone(todam, zone, pois, kind, day));
  }
  return out;
}

}  // namespace staq::testing
