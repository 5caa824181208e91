#include "router/csa.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <cstring>
#include <limits>
#include <numeric>

namespace staq::router {

namespace {
constexpr gtfs::TimeOfDay kNever = INT32_MAX;
constexpr double kInf = std::numeric_limits<double>::infinity();
/// "Unreachable" sentinel for the lower-bound matrices. Small enough that
/// kFar + kFar and arrival + kFar stay far from int32 overflow.
constexpr int32_t kFar = 1 << 29;
/// The min-plus closure is cubic in stops; above this, pruning stays off.
constexpr size_t kMaxBoundStops = 1024;
}  // namespace

CsaEngine::CsaEngine(const gtfs::Feed* feed, const RouterOptions& options,
                     std::shared_ptr<const ConnectionArray> connections,
                     const WalkTable* walk_table)
    : feed_(feed),
      options_(options),
      connections_(std::move(connections)),
      walk_table_(walk_table),
      wait_cap_(static_cast<gtfs::TimeOfDay>(options.max_boarding_wait_s)) {
  const size_t num_stops = feed_->num_stops();
  egress_epoch_.assign(num_stops, 0);
  egress_head_.assign(num_stops, -1);
  min_arr_.assign(num_stops, kNever);

  // Transfer CSR with the walk seconds rounded once: the footpath closure
  // is one of the scan's hottest loops and must not call lround per offer.
  transfer_offset_.assign(num_stops + 1, 0);
  for (uint32_t s = 0; s < num_stops; ++s) {
    transfer_offset_[s + 1] =
        transfer_offset_[s] +
        static_cast<uint32_t>(walk_table_->Transfers(s).size());
  }
  transfer_hops_.resize(transfer_offset_[num_stops]);
  for (uint32_t s = 0; s < num_stops; ++s) {
    uint32_t at = transfer_offset_[s];
    for (const WalkHop& hop : walk_table_->Transfers(s)) {
      transfer_hops_[at++] =
          IntHop{hop.stop,
                 static_cast<gtfs::TimeOfDay>(std::lround(hop.walk_s)),
                 static_cast<float>(hop.walk_s)};
    }
  }
}

void CsaEngine::EnsureBounds() {
  bounds_built_ = true;
  const size_t num_stops = feed_->num_stops();
  if (num_stops == 0 || num_stops > kMaxBoundStops) return;

  // Admissible edge costs: a connection's pure ride time (waits, dwells and
  // service-day masks dropped — only ever an underestimate) and the exact
  // integer footpath costs the scan adds.
  std::vector<int32_t> d(num_stops * num_stops, kFar);
  for (size_t i = 0; i < num_stops; ++i) d[i * num_stops + i] = 0;
  for (gtfs::TripId t = 0; t < static_cast<gtfs::TripId>(feed_->num_trips());
       ++t) {
    const gtfs::StopTime* end = feed_->trip_end(t);
    for (const gtfs::StopTime* st = feed_->trip_begin(t); st + 1 < end; ++st) {
      int32_t w = (st + 1)->arrival - st->departure;
      if (w < 0) w = 0;
      int32_t& cell = d[st->stop * num_stops + (st + 1)->stop];
      cell = std::min(cell, w);
    }
  }
  for (uint32_t s = 0; s < num_stops; ++s) {
    const uint32_t t1 = transfer_offset_[s + 1];
    for (uint32_t h = transfer_offset_[s]; h < t1; ++h) {
      int32_t& cell = d[s * num_stops + transfer_hops_[h].stop];
      cell = std::min(cell, transfer_hops_[h].walk);
    }
  }

  // Floyd–Warshall min-plus closure, row-contiguous inner loop.
  for (size_t k = 0; k < num_stops; ++k) {
    const int32_t* dk = d.data() + k * num_stops;
    for (size_t i = 0; i < num_stops; ++i) {
      const int32_t dik = d[i * num_stops + k];
      if (dik >= kFar) continue;
      int32_t* di = d.data() + i * num_stops;
      for (size_t j = 0; j < num_stops; ++j) {
        di[j] = std::min(di[j], dik + dk[j]);
      }
    }
  }

  // Transposed so one egress stop's bounds over all source stops are one
  // contiguous row in the per-call target_lb_ build.
  lb_to_.resize(num_stops * num_stops);
  for (size_t s = 0; s < num_stops; ++s) {
    for (size_t e = 0; e < num_stops; ++e) {
      lb_to_[e * num_stops + s] = d[s * num_stops + e];
    }
  }
}

bool CsaEngine::Prunable(size_t col, uint32_t stop, gtfs::TimeOfDay at) const {
  const WindowLane& def = *col_def_[col];
  const double elapsed = static_cast<double>(at - def.depart);
  const double* best = best_total_.data() + col * u_stride_;
  const size_t num_stops = feed_->num_stops();
  for (size_t k = 0; k < def.num_targets; ++k) {
    const uint32_t u = def.targets[k];
    const int32_t lb =
        target_lb_[static_cast<size_t>(u) * num_stops + stop];
    // lb >= kFar means this target's egress set is unreachable from the
    // stop, so the write cannot serve the target at all.
    if (lb < kFar && elapsed + static_cast<double>(lb) < best[u]) {
      return false;
    }
  }
  return true;
}

void CsaEngine::EnsureLaneCapacity(size_t num_lanes, size_t num_trip_rows) {
  if (num_lanes <= lane_stride_ && !arr_.empty()) {
    if (num_trip_rows > trip_rows_) {
      // More rows at the same stride: every existing entry is already
      // kNever between calls, so growing in place keeps rows clean.
      trip_rows_ = num_trip_rows;
      trip_time_.resize(trip_rows_ * lane_stride_, kNever);
      trip_stop_.resize(trip_rows_ * lane_stride_, 0);
      riding_cnt_.resize(trip_rows_, 0);
    }
    return;
  }
  // Only ever grows between calls (no live columns), so the wholesale
  // re-fill cannot lose in-flight state.
  lane_stride_ = std::max(num_lanes, lane_stride_);
  trip_rows_ = std::max(num_trip_rows, trip_rows_);
  const size_t stops = feed_->num_stops();
  arr_.assign(stops * lane_stride_, kNever);
  meta_.assign(stops * lane_stride_, Label{});
  trip_time_.assign(trip_rows_ * lane_stride_, kNever);
  trip_stop_.assign(trip_rows_ * lane_stride_, 0);
  riding_cnt_.assign(trip_rows_, 0);
  touched_.resize(lane_stride_);
  boarded_.resize(lane_stride_);
  for (auto& v : touched_) v.clear();
  for (auto& v : boarded_) v.clear();
  col_def_.resize(lane_stride_);
  col_latest_.resize(lane_stride_);
  col_worst_.resize(lane_stride_);
  col_worst_ret_.resize(lane_stride_);
  col_relax_.resize(lane_stride_);
  col_retire_.resize(lane_stride_);
  col_retired_.resize(lane_stride_);
  flags_.assign(lane_stride_ + 8, 0);
}

void CsaEngine::UpdateWorst(size_t col) {
  const WindowLane& def = *col_def_[col];
  const double* best = best_total_.data() + col * u_stride_;
  double worst = 0.0;
  double worst_ret = 0.0;
  for (size_t k = 0; k < def.num_targets; ++k) {
    const uint32_t u = def.targets[k];
    worst = std::max(worst, best[u]);
    if (prune_) {
      if (min_tlb_[u] < kFar) {
        worst_ret =
            std::max(worst_ret, best[u] - static_cast<double>(min_tlb_[u]));
      }
    } else {
      worst_ret = std::max(worst_ret, best[u]);
    }
  }
  col_worst_[col] = worst;
  col_worst_ret_[col] = worst_ret;
  col_relax_[col] = RelaxLimit(worst, def.depart, col_latest_[col]);
  double retire = std::min(static_cast<double>(def.depart) + worst_ret,
                           static_cast<double>(col_latest_[col]) + 1.0);
  col_retire_[col] = retire;
  next_retire_ = std::min(next_retire_, retire);
}

void CsaEngine::Improve(size_t col, uint32_t stop, gtfs::TimeOfDay arrival) {
  // Egress relaxation across every unique target wanting this stop. Router
  // settles targets when the stop pops; settling at write time instead sees
  // the same final bests because arrivals only ever decrease — and a write
  // the Router's settle loop would have cut off (arrival past its stopping
  // bound) can by the same bound never beat a recorded best. Foreign
  // targets hold -inf, so a shared entry can never improve them.
  if (egress_epoch_[stop] == call_epoch_) {
    const gtfs::TimeOfDay depart = col_def_[col]->depart;
    double* best_total = best_total_.data() + col * u_stride_;
    double* best_walk = best_walk_.data() + col * u_stride_;
    uint32_t* best_stop = best_stop_.data() + col * u_stride_;
    bool improved = false;
    for (int32_t e = egress_head_[stop]; e >= 0; e = egress_pool_[e].next) {
      const EgressEntry& eg = egress_pool_[e];
      double total = static_cast<double>(arrival - depart) + eg.walk_s;
      if (total < best_total[eg.target]) {
        best_total[eg.target] = total;
        best_stop[eg.target] = stop;
        best_walk[eg.target] = eg.walk_s;
        improved = true;
      }
    }
    if (improved) UpdateWorst(col);
  }

  // Eager footpath closure: the Router walks transfers when the stop
  // settles; closing them on every strict improvement reaches the same
  // fixed point (each re-improvement re-relaxes with a strictly earlier
  // time). Strict improvement also bounds the recursion — a zero-walk
  // cycle re-offers an equal arrival, which does not write.
  const uint32_t t1 = transfer_offset_[stop + 1];
  for (uint32_t h = transfer_offset_[stop]; h < t1; ++h) {
    const IntHop& hop = transfer_hops_[h];
    gtfs::TimeOfDay at = arrival + hop.walk;
    // Hops are sorted by walk time, so the first over-limit hop ends the
    // scan — every later hop lands past the relax limit too.
    if (at > col_relax_[col]) break;
    gtfs::TimeOfDay& cur = arr_[hop.stop * lane_stride_ + col];
    if (at < cur) {
      // continue, not break: the prune bound is per-stop, so a later
      // (longer-walk) hop may still be worth writing.
      if (prune_ && Prunable(col, hop.stop, at)) continue;
      if (cur == kNever) touched_[col].push_back(hop.stop);
      cur = at;
      min_arr_[hop.stop] = std::min(min_arr_[hop.stop], at);
      Label& next = meta_[hop.stop * lane_stride_ + col];
      next.arrival = at;
      next.kind = Label::Kind::kTransfer;
      next.pred_stop = stop;
      next.trip = gtfs::kInvalidId;
      next.board_time = 0;
      next.walk_s = hop.walk_f;
      Improve(col, hop.stop, at);
    }
  }
}

bool CsaEngine::Activate(size_t col) {
  const WindowLane& def = *col_def_[col];
  const double horizon = options_.horizon_s;
  col_latest_[col] = def.depart + static_cast<gtfs::TimeOfDay>(horizon);
  col_retired_[col] = 0;

  // Per-target walk-only baselines (identical to Router::RouteMany);
  // foreign targets get -inf so the shared egress map skips them.
  double* best_total = best_total_.data() + col * u_stride_;
  double* best_walk = best_walk_.data() + col * u_stride_;
  uint32_t* best_stop = best_stop_.data() + col * u_stride_;
  std::fill(best_total, best_total + u_stride_, -kInf);
  double worst = 0.0;
  double worst_ret = 0.0;
  bool dead = prune_;
  for (size_t k = 0; k < def.num_targets; ++k) {
    const uint32_t u = def.targets[k];
    double direct = direct_walk_[u];
    best_total[u] = direct <= horizon ? direct : kInf;
    best_walk[u] = 0.0;
    best_stop[u] = gtfs::kInvalidId;
    worst = std::max(worst, best_total[u]);
    if (prune_) {
      if (acc_lb_[u] < kFar) dead = false;
      // Unreachable targets (min_tlb_ >= kFar) can never change and drop
      // out of the retirement bound entirely.
      if (min_tlb_[u] < kFar) {
        worst_ret = std::max(
            worst_ret, best_total[u] - static_cast<double>(min_tlb_[u]));
      }
    } else {
      worst_ret = std::max(worst_ret, best_total[u]);
    }
  }
  // Every target decided at birth: no ride or footpath chain reaches any
  // of them from this origin's access stops, so the walk baselines are
  // final and the lane never joins the live range.
  if (dead) return false;
  col_worst_[col] = worst;
  col_worst_ret_[col] = worst_ret;
  col_relax_[col] = RelaxLimit(worst, def.depart, col_latest_[col]);
  max_relax_ = std::max(max_relax_, col_relax_[col]);
  double retire = std::min(static_cast<double>(def.depart) + worst_ret,
                           static_cast<double>(col_latest_[col]) + 1.0);
  col_retire_[col] = retire;
  next_retire_ = std::min(next_retire_, retire);

  // Seed every access label first — the Router's seeding order — then run
  // egress/footpath closure from the seeds.
  for (const IntHop& hop : access_int_) {
    gtfs::TimeOfDay at = def.depart + hop.walk;
    if (at > col_relax_[col]) continue;
    gtfs::TimeOfDay& cur = arr_[hop.stop * lane_stride_ + col];
    if (at < cur) {
      if (prune_ && Prunable(col, hop.stop, at)) continue;
      if (cur == kNever) touched_[col].push_back(hop.stop);
      cur = at;
      min_arr_[hop.stop] = std::min(min_arr_[hop.stop], at);
      Label& label = meta_[hop.stop * lane_stride_ + col];
      label.arrival = at;
      label.kind = Label::Kind::kAccess;
      label.pred_stop = gtfs::kInvalidId;
      label.trip = gtfs::kInvalidId;
      label.walk_s = hop.walk_f;
    }
  }
  for (const IntHop& hop : access_int_) {
    gtfs::TimeOfDay at = arr_[hop.stop * lane_stride_ + col];
    if (at != kNever) Improve(col, hop.stop, at);
  }
  return true;
}

Journey CsaEngine::Reconstruct(size_t col, gtfs::TimeOfDay depart,
                               uint32_t egress_stop,
                               double egress_walk_s) const {
  // Mirror of Router::Reconstruct over the lane's labels.
  Journey j;
  j.feasible = true;
  j.depart = depart;

  std::vector<JourneyLeg> reversed;
  uint32_t stop = egress_stop;
  int guard = 0;
  while (stop != gtfs::kInvalidId && guard++ < 1024) {
    const Label& label = meta_[stop * lane_stride_ + col];
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

        const Label& board_label = meta_[label.pred_stop * lane_stride_ + col];
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

  gtfs::TimeOfDay at_stop = meta_[egress_stop * lane_stride_ + col].arrival;
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

void CsaEngine::Finalize(size_t col) {
  const WindowLane& def = *col_def_[col];
  const gtfs::TimeOfDay depart = def.depart;
  const double* best_total = best_total_.data() + col * u_stride_;
  const double* best_walk = best_walk_.data() + col * u_stride_;
  const uint32_t* best_stop = best_stop_.data() + col * u_stride_;
  for (size_t k = 0; k < def.num_targets; ++k) {
    const uint32_t u = def.targets[k];
    Journey& j = def.out[k];
    if (best_total[u] == kInf) {
      j = Journey{};
      j.depart = depart;  // infeasible
      continue;
    }
    if (best_stop[u] == gtfs::kInvalidId) {
      // Pure walk wins.
      j = Journey{};
      j.feasible = true;
      j.depart = depart;
      j.arrive = depart + static_cast<gtfs::TimeOfDay>(
                              std::lround(direct_walk_[u]));
      j.access_walk_s = direct_walk_[u];
      JourneyLeg leg;
      leg.type = JourneyLeg::Type::kWalk;
      leg.start = depart;
      leg.end = j.arrive;
      j.legs.clear();
      j.legs.push_back(leg);
      continue;
    }
    j = Reconstruct(col, depart, best_stop[u], best_walk[u]);
  }
}

void CsaEngine::ClearColumn(size_t col) {
  for (uint32_t stop : touched_[col]) {
    arr_[stop * lane_stride_ + col] = kNever;
  }
  touched_[col].clear();
  for (uint32_t row : boarded_[col]) {
    trip_time_[row * lane_stride_ + col] = kNever;
    --riding_cnt_[row];
  }
  boarded_[col].clear();
}

void CsaEngine::RouteMany(const geo::Point& origin, const geo::Point* targets,
                          size_t num_targets, gtfs::Day day,
                          gtfs::TimeOfDay depart, Journey* out,
                          const std::vector<WalkHop>* origin_access) {
  if (num_targets == 0) return;
  identity_targets_.resize(num_targets);
  std::iota(identity_targets_.begin(), identity_targets_.end(), 0u);
  WindowLane lane;
  lane.depart = depart;
  lane.targets = identity_targets_.data();
  lane.num_targets = num_targets;
  lane.out = out;
  RouteWindow(origin, targets, num_targets, &lane, 1, day, origin_access);
}

void CsaEngine::RouteWindow(const geo::Point& origin,
                            const geo::Point* unique_targets,
                            size_t num_unique, const WindowLane* lanes,
                            size_t num_lanes, gtfs::Day day,
                            const std::vector<WalkHop>* origin_access) {
  if (num_lanes == 0) return;
  ++call_epoch_;
  egress_pool_.clear();

  // Window calls amortise the one-time lower-bound closure behind
  // target-directed write pruning; single-departure calls never pay for it
  // (but reuse it when a prior window call on this engine built it).
  if (num_lanes > 1 && !bounds_built_) EnsureBounds();
  const size_t num_stops = feed_->num_stops();
  prune_ = !lb_to_.empty();
  if (prune_) target_lb_.assign(num_unique * num_stops, kFar);

  // Shared zone-level egress map + direct-walk baselines over the unique
  // targets; built once, read by every lane.
  direct_walk_.resize(num_unique);
  for (size_t u = 0; u < num_unique; ++u) {
    direct_walk_[u] = walk_table_->WalkSecondsBetween(origin,
                                                      unique_targets[u]);
    walk_table_->AccessStops(unique_targets[u], &egress_scratch_,
                             &neighbor_scratch_);
    for (const WalkHop& hop : egress_scratch_) {
      if (egress_epoch_[hop.stop] != call_epoch_) {
        egress_epoch_[hop.stop] = call_epoch_;
        egress_head_[hop.stop] = -1;
      }
      egress_pool_.push_back(EgressEntry{hop.walk_s, static_cast<uint32_t>(u),
                                         egress_head_[hop.stop]});
      egress_head_[hop.stop] = static_cast<int32_t>(egress_pool_.size()) - 1;
      if (prune_) {
        // Fold this egress candidate into the target's remaining-time
        // bound: floor() keeps the (double) walk admissible.
        const int32_t walk = static_cast<int32_t>(std::floor(hop.walk_s));
        const int32_t* row = lb_to_.data() +
                             static_cast<size_t>(hop.stop) * num_stops;
        int32_t* tl = target_lb_.data() + u * num_stops;
        for (size_t s = 0; s < num_stops; ++s) {
          tl[s] = std::min(tl[s], row[s] + walk);
        }
      }
    }
  }

  if (origin_access == nullptr) {
    walk_table_->AccessStops(origin, &access_scratch_, &neighbor_scratch_);
    origin_access = &access_scratch_;
  }
  access_int_.resize(origin_access->size());
  for (size_t a = 0; a < origin_access->size(); ++a) {
    const WalkHop& hop = (*origin_access)[a];
    access_int_[a] =
        IntHop{hop.stop, static_cast<gtfs::TimeOfDay>(std::lround(hop.walk_s)),
               static_cast<float>(hop.walk_s)};
  }

  // Per-target derived bounds for this call. min_tlb_ feeds lane
  // retirement: a journey settled from sweep time tau onward costs at
  // least (tau - depart) + min_tlb_[u]. acc_lb_ >= kFar proves the target
  // unreachable (by rides OR footpath chains) from every access stop of
  // this origin, which decides the target at lane birth.
  if (prune_) {
    min_tlb_.assign(num_unique, kFar);
    acc_lb_.assign(num_unique, kFar);
    for (size_t u = 0; u < num_unique; ++u) {
      const int32_t* tl = target_lb_.data() + u * num_stops;
      int32_t m = kFar;
      for (size_t s = 0; s < num_stops; ++s) m = std::min(m, tl[s]);
      min_tlb_[u] = m;
      int32_t a = kFar;
      for (const IntHop& hop : access_int_) a = std::min(a, tl[hop.stop]);
      acc_lb_[u] = a;
    }
  }

  // A lane's transit search can only start once the sweep reaches its
  // earliest seeded arrival: depart + the origin's closest access walk.
  gtfs::TimeOfDay min_offset = 0;
  if (!access_int_.empty()) {
    gtfs::TimeOfDay best = kNever;
    for (const IntHop& hop : access_int_) best = std::min(best, hop.walk);
    min_offset = best;
  }

  // Pending lanes in activation (= departure) order; the lane's rank in
  // this order is its column in the lane-major arrays.
  std::vector<uint32_t>& order = lane_order_;
  order.resize(num_lanes);
  std::iota(order.begin(), order.end(), 0u);
  std::stable_sort(order.begin(), order.end(),
                   [lanes](uint32_t a, uint32_t b) {
                     return lanes[a].depart < lanes[b].depart;
                   });

  // Trip rows for the trips the sweep can meet: the sweep starts at the
  // first lane's activation, and no lane outlives its latest arrival
  // (depart + horizon), so every connection it offers departs in between.
  const ConnectionArray::DayView& view = connections_->ForDay(day);
  uint32_t slot_end = 0;
  trip_slot_lo_ = 0;
  if (!access_int_.empty()) {
    view.SlotRange(
        lanes[order.front()].depart + min_offset,
        lanes[order.back()].depart +
            static_cast<gtfs::TimeOfDay>(options_.horizon_s),
        &trip_slot_lo_, &slot_end);
  }
  call_trip_rows_ = slot_end > trip_slot_lo_ ? slot_end - trip_slot_lo_ : 0;
  EnsureLaneCapacity(num_lanes, call_trip_rows_);
  u_stride_ = num_unique;
  best_total_.resize(num_lanes * u_stride_);
  best_walk_.resize(num_lanes * u_stride_);
  best_stop_.resize(num_lanes * u_stride_);
  for (size_t col = 0; col < num_lanes; ++col) {
    col_def_[col] = &lanes[order[col]];
  }
  next_retire_ = kInf;
  active_count_ = 0;
  max_relax_ = -1;
  std::fill(min_arr_.begin(), min_arr_.end(), kNever);

  size_t pi = 0;  // next column to activate
  size_t lo = 0;  // columns [lo, pi) hold every live lane
  if (!access_int_.empty()) {
    auto activation = [&](size_t col) {
      return col_def_[col]->depart + min_offset;
    };
    size_t i = view.LowerBound(activation(0));
    while (i < view.size() && (pi < num_lanes || active_count_ > 0)) {
      const gtfs::TimeOfDay tau = view.dep_time[i];

      while (pi < num_lanes && activation(pi) <= tau) {
        if (Activate(pi)) {
          ++active_count_;
        } else {
          Finalize(pi);
          ClearColumn(pi);
          col_retired_[pi] = 1;
        }
        ++pi;
      }
      while (lo < pi && col_retired_[lo]) ++lo;

      // Retire lanes no later connection can improve: every journey found
      // from here on departs a stop at >= tau, so its total exceeds
      // tau - depart (the Router's settle-loop stopping bound). The pass
      // runs only when tau crosses the earliest retire bound — retiring a
      // lane late is result-neutral because relax_limit already rejects
      // every write past the same bound. The pass also refreshes
      // max_relax_, the live lanes' shared relax upper bound.
      if (active_count_ > 0 && static_cast<double>(tau) >= next_retire_) {
        next_retire_ = kInf;
        max_relax_ = -1;
        for (size_t col = lo; col < pi; ++col) {
          if (col_retired_[col]) continue;
          // Exact bound, not the (rounded) col_retire_ schedule: retiring a
          // lane even one time-unit early could drop a boundary write.
          const gtfs::TimeOfDay depart = col_def_[col]->depart;
          if (static_cast<double>(tau - depart) >= col_worst_ret_[col] ||
              tau > col_latest_[col]) {
            Finalize(col);
            ClearColumn(col);
            col_retired_[col] = 1;
            --active_count_;
          } else {
            next_retire_ = std::min(
                next_retire_,
                std::max(col_retire_[col], static_cast<double>(tau) + 1.0));
            max_relax_ = std::max(max_relax_, col_relax_[col]);
          }
        }
        while (lo < pi && col_retired_[lo]) ++lo;
      }

      if (active_count_ == 0) {
        if (pi >= num_lanes) break;
        i = view.LowerBound(activation(pi));
        continue;
      }

      // Whole-connection skip before any lane row is touched: no lane is
      // riding the trip and none has reached dep_stop by tau (min_arr_ is
      // a conservative lower bound — stale-low after retires), or the
      // connection arrives past every live lane's relax limit. In either
      // case no lane could flag below. A trip outside the call's row range
      // cannot occur (every live lane's horizon covers tau); the row check
      // only keeps that invariant from ever becoming a stray write.
      const uint32_t row = view.slot[i] - trip_slot_lo_;
      const uint32_t dep_stop = view.dep_stop[i];
      const gtfs::TimeOfDay arr = view.arr_time[i];
      if (row >= call_trip_rows_ ||
          (riding_cnt_[row] == 0 && min_arr_[dep_stop] > tau) ||
          arr > max_relax_) {
        ++i;
        continue;
      }

      // Pre-filter: one branch-free pass over the connection's lane-major
      // rows flags exactly the columns the slow path must touch — a lane
      // whose boarding window is open and that is not yet riding (it must
      // board, even if this connection's write fails, because the board
      // time feeds every later label of the trip), or a riding lane whose
      // arrival actually improves arr_stop. Lanes whose relax limit the
      // arrival exceeds never flag: skipping such a boarding outright is
      // result-neutral, since the trip's later connections arrive later
      // still and relax limits only shrink, so no later write was possible
      // either. Cleared/retired columns read kNever and cannot flag. Edge
      // bytes of the 8-wide gather words are zeroed so the word-skip below
      // never reads stale flags.
      gtfs::TimeOfDay* tt = trip_time_.data() +
                            static_cast<size_t>(row) * lane_stride_;
      const gtfs::TimeOfDay* ar = arr_.data() +
                                  static_cast<size_t>(dep_stop) * lane_stride_;
      const uint32_t arr_stop = view.arr_stop[i];
      const gtfs::TimeOfDay* cu = arr_.data() +
                                  static_cast<size_t>(arr_stop) * lane_stride_;
      const gtfs::TimeOfDay* relax = col_relax_.data();
      const gtfs::TimeOfDay window_lo = tau - wait_cap_;
      uint8_t* flags = flags_.data();
      const size_t b0 = lo & ~size_t{7};
      const size_t b1 = (pi + 7) & ~size_t{7};
      for (size_t col = b0; col < lo; ++col) flags[col] = 0;
      for (size_t col = pi; col < b1; ++col) flags[col] = 0;
      for (size_t col = lo; col < pi; ++col) {
        const gtfs::TimeOfDay at = ar[col];
        const uint8_t riding = static_cast<uint8_t>(tt[col] != kNever);
        const uint8_t window = static_cast<uint8_t>(at >= window_lo) &
                               static_cast<uint8_t>(at <= tau);
        const uint8_t write = static_cast<uint8_t>(arr < cu[col]);
        flags[col] = static_cast<uint8_t>(
            ((window & static_cast<uint8_t>(riding ^ 1)) | (riding & write)) &
            static_cast<uint8_t>(arr <= relax[col]));
      }
      slow_cols_.clear();
      for (size_t base = b0; base < b1; base += 8) {
        uint64_t word;
        std::memcpy(&word, flags + base, sizeof(word));
        if (word == 0) continue;
        for (size_t b = 0; b < 8; ++b) {
          if (flags[base + b]) {
            slow_cols_.push_back(static_cast<uint32_t>(base + b));
          }
        }
      }

      if (!slow_cols_.empty()) {
        const gtfs::TripId trip = view.trip[i];
        uint32_t* ts = trip_stop_.data() +
                       static_cast<size_t>(row) * lane_stride_;
        for (uint32_t col : slow_cols_) {
          if (tt[col] == kNever) {
            // Pre-filter guaranteed the boarding condition.
            boarded_[col].push_back(row);
            ++riding_cnt_[row];
            tt[col] = tau;
            ts[col] = dep_stop;
          }
          gtfs::TimeOfDay& cur = arr_[static_cast<size_t>(arr_stop) *
                                          lane_stride_ + col];
          if (arr < cur) {
            // Boarding above stays unguarded: a provably-useless arrival
            // write says nothing about later stops of the same trip.
            if (prune_ && Prunable(col, arr_stop, arr)) continue;
            if (cur == kNever) touched_[col].push_back(arr_stop);
            cur = arr;
            min_arr_[arr_stop] = std::min(min_arr_[arr_stop], arr);
            Label& label = meta_[static_cast<size_t>(arr_stop) *
                                     lane_stride_ + col];
            label.arrival = arr;
            label.kind = Label::Kind::kRide;
            label.pred_stop = ts[col];
            label.trip = trip;
            label.board_time = tt[col];
            label.walk_s = 0;
            Improve(col, arr_stop, arr);
          }
        }
      }
      ++i;
    }
  }

  // Drain: lanes still live when the connections ran out, plus lanes the
  // sweep never reached (or that had no access stops at all). The latter
  // still seed and close footpaths — a rounded multi-hop walk can beat the
  // direct walk — exactly like an activated lane that boarded nothing.
  for (size_t col = lo; col < pi; ++col) {
    if (col_retired_[col]) continue;
    Finalize(col);
    ClearColumn(col);
    col_retired_[col] = 1;
  }
  for (; pi < num_lanes; ++pi) {
    Activate(pi);
    Finalize(pi);
    ClearColumn(pi);
    col_retired_[pi] = 1;
  }
}

}  // namespace staq::router
