#include "router/csa.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <cstring>
#include <functional>
#include <limits>
#include <numeric>
#include <type_traits>

namespace staq::router {

namespace {
constexpr gtfs::TimeOfDay kNever = INT32_MAX;
constexpr double kInf = std::numeric_limits<double>::infinity();
constexpr int32_t kFar = ConnectionArray::kFar;
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

bool CsaEngine::Prunable(size_t col, uint32_t stop, gtfs::TimeOfDay at) const {
  const WindowLane& def = *col_def_[col];
  const double elapsed = static_cast<double>(at - def.depart);
  const double* best = best_total_.data() + col * t_stride_;
  const size_t num_stops = feed_->num_stops();
  for (size_t k = 0; k < def.num_targets; ++k) {
    const int32_t lb =
        target_lb_[static_cast<size_t>(def.targets[k]) * num_stops + stop];
    // lb >= kFar means this target's egress set is unreachable from the
    // stop, so the write cannot serve the target at all.
    if (lb < kFar && elapsed + static_cast<double>(lb) < best[k]) {
      return false;
    }
  }
  return true;
}

size_t CsaEngine::scratch_bytes() const {
  auto bytes = [](const auto& v) {
    return v.capacity() * sizeof(typename std::decay_t<decltype(v)>::value_type);
  };
  size_t total = bytes(arr_) + bytes(meta_) + bytes(trip_time_) +
                 bytes(trip_stop_) + bytes(riding_cnt_) + bytes(best_total_) +
                 bytes(best_walk_) + bytes(best_stop_) + bytes(target_lb_) +
                 bytes(min_arr_) + bytes(egress_pool_) + bytes(direct_walk_) +
                 bytes(acc_lb_) + bytes(flags_);
  for (const auto& v : touched_) total += bytes(v);
  for (const auto& v : boarded_) total += bytes(v);
  return total;
}

void CsaEngine::Reserve(size_t stride, size_t trip_rows) {
  if (stride == lane_stride_) {
    if (trip_rows > trip_rows_) {
      // More rows at the same stride: every existing entry of a free
      // column is already kNever, so growing in place keeps rows clean.
      trip_rows_ = trip_rows;
      trip_time_.resize(trip_rows_ * lane_stride_, kNever);
      trip_stop_.resize(trip_rows_ * lane_stride_, 0);
      riding_cnt_.resize(trip_rows_, 0);
    }
    return;
  }
  // Re-stride mid-call: copy every row's existing columns into the wider
  // layout (live lanes keep their state) and start the new columns clean.
  const size_t old = lane_stride_;
  trip_rows_ = std::max(trip_rows, trip_rows_);
  auto restride = [&](auto& v, size_t rows, auto fill) {
    std::decay_t<decltype(v)> next(rows * stride, fill);
    for (size_t r = 0; r * old < v.size(); ++r) {
      std::copy(v.begin() + r * old, v.begin() + (r + 1) * old,
                next.begin() + r * stride);
    }
    v.swap(next);
  };
  const size_t stops = feed_->num_stops();
  restride(arr_, stops, kNever);
  restride(meta_, stops, Label{});
  restride(trip_time_, trip_rows_, kNever);
  restride(trip_stop_, trip_rows_, 0u);
  riding_cnt_.resize(trip_rows_, 0);
  lane_stride_ = stride;
  touched_.resize(stride);
  boarded_.resize(stride);
  col_def_.resize(stride);
  col_latest_.resize(stride);
  col_worst_.resize(stride);
  col_worst_ret_.resize(stride);
  col_relax_.resize(stride);
  col_retire_.resize(stride);
  col_live_.resize(stride, 0);
  flags_.resize(stride + 8, 0);
  best_total_.resize(stride * t_stride_);
  best_walk_.resize(stride * t_stride_);
  best_stop_.resize(stride * t_stride_);
  for (size_t col = old; col < stride; ++col) {
    free_cols_.push_back(static_cast<uint32_t>(col));
    std::push_heap(free_cols_.begin(), free_cols_.end(), std::greater<>());
  }
}

size_t CsaEngine::TakeColumn(const WindowLane* lane) {
  if (free_cols_.empty()) {
    // Grow by half (at least 8 columns), in multiples of 8 to keep the
    // pre-filter's 8-wide words whole.
    const size_t grown = std::max(lane_stride_ + 8, lane_stride_ * 3 / 2);
    Reserve((grown + 7) & ~size_t{7}, trip_rows_);
  }
  std::pop_heap(free_cols_.begin(), free_cols_.end(), std::greater<>());
  const size_t col = free_cols_.back();
  free_cols_.pop_back();
  col_def_[col] = lane;
  return col;
}

void CsaEngine::Retire(size_t col) {
  Finalize(col);
  ClearColumn(col);
  if (col_live_[col]) {
    col_live_[col] = 0;
    --active_count_;
  }
  free_cols_.push_back(static_cast<uint32_t>(col));
  std::push_heap(free_cols_.begin(), free_cols_.end(), std::greater<>());
}

void CsaEngine::UpdateWorst(size_t col) {
  const WindowLane& def = *col_def_[col];
  const double* best = best_total_.data() + col * t_stride_;
  double worst = 0.0;
  double worst_ret = 0.0;
  for (size_t k = 0; k < def.num_targets; ++k) {
    worst = std::max(worst, best[k]);
    if (prune_) {
      const int32_t m = min_tlb_[def.targets[k]];
      if (m < kFar) {
        worst_ret = std::max(worst_ret, best[k] - static_cast<double>(m));
      }
    } else {
      worst_ret = std::max(worst_ret, best[k]);
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

void CsaEngine::MapLaneTargets(size_t col) {
  const WindowLane* lane = col_def_[col];
  if (slot_lane_ == lane) return;
  slot_lane_ = lane;
  if (++slot_gen_ == 0) {  // wrapped: no stale stamp may read as current
    std::fill(slot_stamp_.begin(), slot_stamp_.end(), 0);
    slot_gen_ = 1;
  }
  for (size_t k = 0; k < lane->num_targets; ++k) {
    slot_stamp_[lane->targets[k]] = slot_gen_;
    slot_k_[lane->targets[k]] = static_cast<uint32_t>(k);
  }
}

void CsaEngine::Improve(size_t col, uint32_t stop, gtfs::TimeOfDay arrival) {
  // Egress relaxation across the lane's targets wanting this stop. The
  // label-correcting oracle settles targets when the stop pops; settling
  // at write time instead sees the same final bests because arrivals only
  // ever decrease — and a write the oracle's settle loop would have cut
  // off (arrival past its stopping bound) can by the same bound never beat
  // a recorded best. Entries of targets outside the lane's subset are
  // skipped.
  if (egress_epoch_[stop] == call_epoch_) {
    MapLaneTargets(col);
    const gtfs::TimeOfDay depart = col_def_[col]->depart;
    double* best_total = best_total_.data() + col * t_stride_;
    double* best_walk = best_walk_.data() + col * t_stride_;
    uint32_t* best_stop = best_stop_.data() + col * t_stride_;
    bool improved = false;
    for (int32_t e = egress_head_[stop]; e >= 0; e = egress_pool_[e].next) {
      const EgressEntry& eg = egress_pool_[e];
      if (slot_stamp_[eg.target] != slot_gen_) continue;
      const uint32_t k = slot_k_[eg.target];
      double total = static_cast<double>(arrival - depart) + eg.walk_s;
      if (total < best_total[k]) {
        best_total[k] = total;
        best_stop[k] = stop;
        best_walk[k] = eg.walk_s;
        improved = true;
      }
    }
    if (improved) UpdateWorst(col);
  }

  // Eager footpath closure: the oracle walks transfers when the stop
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

  // Per-target walk-only baselines (identical to the oracle's RouteMany).
  const size_t pair0 = static_cast<size_t>(def.origin) * num_unique_;
  double* best_total = best_total_.data() + col * t_stride_;
  double* best_walk = best_walk_.data() + col * t_stride_;
  uint32_t* best_stop = best_stop_.data() + col * t_stride_;
  double worst = 0.0;
  double worst_ret = 0.0;
  bool dead = prune_;
  for (size_t k = 0; k < def.num_targets; ++k) {
    const uint32_t u = def.targets[k];
    double direct = direct_walk_[pair0 + u];
    best_total[k] = direct <= horizon ? direct : kInf;
    best_walk[k] = 0.0;
    best_stop[k] = gtfs::kInvalidId;
    worst = std::max(worst, best_total[k]);
    if (prune_) {
      if (acc_lb_[pair0 + u] < kFar) dead = false;
      // Unreachable targets (min_tlb_ >= kFar) can never change and drop
      // out of the retirement bound entirely.
      if (min_tlb_[u] < kFar) {
        worst_ret = std::max(
            worst_ret, best_total[k] - static_cast<double>(min_tlb_[u]));
      }
    } else {
      worst_ret = std::max(worst_ret, best_total[k]);
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

  // Seed every access label first — the oracle's seeding order — then run
  // egress/footpath closure from the seeds.
  const IntHop* hops = access_int_.data() + access_offset_[def.origin];
  const IntHop* hops_end = access_int_.data() + access_offset_[def.origin + 1];
  for (const IntHop* hop = hops; hop != hops_end; ++hop) {
    gtfs::TimeOfDay at = def.depart + hop->walk;
    if (at > col_relax_[col]) continue;
    gtfs::TimeOfDay& cur = arr_[hop->stop * lane_stride_ + col];
    if (at < cur) {
      if (prune_ && Prunable(col, hop->stop, at)) continue;
      if (cur == kNever) touched_[col].push_back(hop->stop);
      cur = at;
      min_arr_[hop->stop] = std::min(min_arr_[hop->stop], at);
      Label& label = meta_[hop->stop * lane_stride_ + col];
      label.arrival = at;
      label.kind = Label::Kind::kAccess;
      label.pred_stop = gtfs::kInvalidId;
      label.trip = gtfs::kInvalidId;
      label.walk_s = hop->walk_f;
    }
  }
  for (const IntHop* hop = hops; hop != hops_end; ++hop) {
    gtfs::TimeOfDay at = arr_[hop->stop * lane_stride_ + col];
    if (at != kNever) Improve(col, hop->stop, at);
  }
  return true;
}

Journey CsaEngine::Reconstruct(size_t col, gtfs::TimeOfDay depart,
                               uint32_t egress_stop,
                               double egress_walk_s) const {
  // Mirror of the oracle's Reconstruct over the lane's labels.
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
  const double* direct = direct_walk_.data() +
                         static_cast<size_t>(def.origin) * num_unique_;
  const double* best_total = best_total_.data() + col * t_stride_;
  const double* best_walk = best_walk_.data() + col * t_stride_;
  const uint32_t* best_stop = best_stop_.data() + col * t_stride_;
  for (size_t k = 0; k < def.num_targets; ++k) {
    Journey& j = def.out[k];
    if (best_total[k] == kInf) {
      j = Journey{};
      j.depart = depart;  // infeasible
      continue;
    }
    if (best_stop[k] == gtfs::kInvalidId) {
      // Pure walk wins.
      const double walk = direct[def.targets[k]];
      j = Journey{};
      j.feasible = true;
      j.depart = depart;
      j.arrive = depart + static_cast<gtfs::TimeOfDay>(std::lround(walk));
      j.access_walk_s = walk;
      JourneyLeg leg;
      leg.type = JourneyLeg::Type::kWalk;
      leg.start = depart;
      leg.end = j.arrive;
      j.legs.clear();
      j.legs.push_back(leg);
      continue;
    }
    j = Reconstruct(col, depart, best_stop[k], best_walk[k]);
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
  WindowOrigin from{origin, origin_access};
  WindowLane lane;
  lane.depart = depart;
  lane.targets = identity_targets_.data();
  lane.num_targets = num_targets;
  lane.out = out;
  RouteWindow(&from, 1, targets, num_targets, &lane, 1, day);
}

void CsaEngine::RouteWindow(const WindowOrigin* origins, size_t num_origins,
                            const geo::Point* unique_targets,
                            size_t num_unique, const WindowLane* lanes,
                            size_t num_lanes, gtfs::Day day) {
  if (num_lanes == 0) return;
  ++call_epoch_;
  egress_pool_.clear();

  // Window calls fetch the feed's shared lower-bound table behind
  // target-directed pruning; single-departure calls never ask for it (but
  // reuse it when a prior window call on this engine fetched it).
  if (num_lanes > 1 && !bounds_fetched_) {
    bounds_fetched_ = true;
    lb_to_ = connections_->LowerBounds(*walk_table_);
  }
  const size_t num_stops = feed_->num_stops();
  prune_ = lb_to_ != nullptr;
  if (prune_) target_lb_.assign(num_unique * num_stops, kFar);

  // Shared egress map over the unique targets of every origin; built once,
  // read by every lane.
  for (size_t u = 0; u < num_unique; ++u) {
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
        const int32_t* row =
            lb_to_->data() + static_cast<size_t>(hop.stop) * num_stops;
        int32_t* tl = target_lb_.data() + u * num_stops;
        for (size_t s = 0; s < num_stops; ++s) {
          tl[s] = std::min(tl[s], row[s] + walk);
        }
      }
    }
  }
  // min_tlb_ feeds lane retirement: a journey settled from sweep time tau
  // onward costs at least (tau - depart) + min_tlb_[u].
  if (prune_) {
    min_tlb_.resize(num_unique);
    for (size_t u = 0; u < num_unique; ++u) {
      const int32_t* tl = target_lb_.data() + u * num_stops;
      min_tlb_[u] = *std::min_element(tl, tl + num_stops);
    }
  }

  // The origin table: access hops and closest access walk per origin.
  access_int_.clear();
  access_offset_.assign(1, 0);
  origin_min_walk_.assign(num_origins, kNever);
  for (size_t o = 0; o < num_origins; ++o) {
    const std::vector<WalkHop>* access = origins[o].access;
    if (access == nullptr) {
      walk_table_->AccessStops(origins[o].point, &access_scratch_,
                               &neighbor_scratch_);
      access = &access_scratch_;
    }
    for (const WalkHop& hop : *access) {
      const IntHop ih{hop.stop,
                      static_cast<gtfs::TimeOfDay>(std::lround(hop.walk_s)),
                      static_cast<float>(hop.walk_s)};
      access_int_.push_back(ih);
      origin_min_walk_[o] = std::min(origin_min_walk_[o], ih.walk);
    }
    access_offset_.push_back(static_cast<uint32_t>(access_int_.size()));
  }

  // Per-(origin, target) tables for the pairs the lanes ask for: the
  // direct-walk baseline, and acc_lb_ >= kFar proving the target
  // unreachable (by rides OR footpath chains) from every access stop of
  // the origin, which decides the target at lane birth.
  num_unique_ = num_unique;
  direct_walk_.assign(num_origins * num_unique, -1.0);
  if (prune_) acc_lb_.resize(num_origins * num_unique);
  t_stride_ = 0;
  for (size_t l = 0; l < num_lanes; ++l) {
    const WindowLane& lane = lanes[l];
    t_stride_ = std::max(t_stride_, lane.num_targets);
    const size_t pair0 = static_cast<size_t>(lane.origin) * num_unique;
    for (size_t k = 0; k < lane.num_targets; ++k) {
      const uint32_t u = lane.targets[k];
      if (direct_walk_[pair0 + u] >= 0.0) continue;
      direct_walk_[pair0 + u] = walk_table_->WalkSecondsBetween(
          origins[lane.origin].point, unique_targets[u]);
      if (prune_) {
        const int32_t* tl = target_lb_.data() + u * num_stops;
        int32_t a = kFar;
        for (uint32_t h = access_offset_[lane.origin];
             h < access_offset_[lane.origin + 1]; ++h) {
          a = std::min(a, tl[access_int_[h].stop]);
        }
        acc_lb_[pair0 + u] = a;
      }
    }
  }
  best_total_.resize(lane_stride_ * t_stride_);
  best_walk_.resize(lane_stride_ * t_stride_);
  best_stop_.resize(lane_stride_ * t_stride_);
  if (slot_stamp_.size() < num_unique) {
    slot_stamp_.resize(num_unique, 0);
    slot_k_.resize(num_unique, 0);
  }
  slot_lane_ = nullptr;

  // A lane's transit search can only start once the sweep reaches its
  // earliest seeded arrival: depart + its origin's closest access walk.
  // Lanes of an origin without access stops have no search; they are
  // decided (walk-only or infeasible) up front. The rest wait in
  // activation order.
  auto activation = [&](uint32_t l) {
    return lanes[l].depart + origin_min_walk_[lanes[l].origin];
  };
  std::vector<uint32_t>& order = lane_order_;
  order.clear();
  gtfs::TimeOfDay last_depart = 0;
  for (uint32_t l = 0; l < num_lanes; ++l) {
    if (origin_min_walk_[lanes[l].origin] == kNever) {
      const size_t col = TakeColumn(&lanes[l]);
      Activate(col);
      Retire(col);
      continue;
    }
    order.push_back(l);
    last_depart = std::max(last_depart, lanes[l].depart);
  }
  std::stable_sort(order.begin(), order.end(), [&](uint32_t a, uint32_t b) {
    return activation(a) < activation(b);
  });
  const size_t num_pending = order.size();
  if (num_pending == 0) return;

  // Trip rows for the trips the sweep can meet: the sweep starts at the
  // first lane's activation, and no lane outlives its latest arrival
  // (depart + horizon), so every connection it offers departs in between.
  const ConnectionArray::DayView& view = connections_->ForDay(day);
  uint32_t slot_end = 0;
  view.SlotRange(activation(order.front()),
                 last_depart + static_cast<gtfs::TimeOfDay>(options_.horizon_s),
                 &trip_slot_lo_, &slot_end);
  call_trip_rows_ = slot_end > trip_slot_lo_ ? slot_end - trip_slot_lo_ : 0;
  Reserve(lane_stride_, call_trip_rows_);
  std::fill(min_arr_.begin(), min_arr_.end(), kNever);
  next_retire_ = kInf;
  active_count_ = 0;
  max_relax_ = -1;
  col_lo_ = col_hi_ = 0;

  size_t pi = 0;  // next lane (in activation order) to activate
  size_t i = view.LowerBound(activation(order[0]));
  while (i < view.size() && (pi < num_pending || active_count_ > 0)) {
    const gtfs::TimeOfDay tau = view.dep_time[i];

    while (pi < num_pending && activation(order[pi]) <= tau) {
      const size_t col = TakeColumn(&lanes[order[pi]]);
      if (Activate(col)) {
        col_live_[col] = 1;
        if (active_count_++ == 0) {
          col_lo_ = col;
          col_hi_ = col + 1;
        } else {
          col_lo_ = std::min(col_lo_, col);
          col_hi_ = std::max(col_hi_, col + 1);
        }
      } else {
        Retire(col);
      }
      ++pi;
    }

    // Retire lanes no later connection can improve: every journey found
    // from here on departs a stop at >= tau, so its total exceeds
    // tau - depart (the oracle's settle-loop stopping bound). The pass
    // runs only when tau crosses the earliest retire bound — retiring a
    // lane late is result-neutral because relax_limit already rejects
    // every write past the same bound. The pass also refreshes
    // max_relax_, the live lanes' shared relax upper bound.
    if (active_count_ > 0 && static_cast<double>(tau) >= next_retire_) {
      next_retire_ = kInf;
      max_relax_ = -1;
      for (size_t col = col_lo_; col < col_hi_; ++col) {
        if (!col_live_[col]) continue;
        // Exact bound, not the (rounded) col_retire_ schedule: retiring a
        // lane even one time-unit early could drop a boundary write.
        const gtfs::TimeOfDay depart = col_def_[col]->depart;
        if (static_cast<double>(tau - depart) >= col_worst_ret_[col] ||
            tau > col_latest_[col]) {
          Retire(col);
        } else {
          next_retire_ = std::min(
              next_retire_,
              std::max(col_retire_[col], static_cast<double>(tau) + 1.0));
          max_relax_ = std::max(max_relax_, col_relax_[col]);
        }
      }
      while (col_hi_ > col_lo_ && !col_live_[col_hi_ - 1]) --col_hi_;
      while (col_lo_ < col_hi_ && !col_live_[col_lo_]) ++col_lo_;
    }

    if (active_count_ == 0) {
      if (pi >= num_pending) break;
      i = view.LowerBound(activation(order[pi]));
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
    // either. Free columns read kNever and cannot flag. Edge bytes of the
    // 8-wide gather words are zeroed so the word-skip below never reads
    // stale flags.
    gtfs::TimeOfDay* tt =
        trip_time_.data() + static_cast<size_t>(row) * lane_stride_;
    const gtfs::TimeOfDay* ar =
        arr_.data() + static_cast<size_t>(dep_stop) * lane_stride_;
    const uint32_t arr_stop = view.arr_stop[i];
    const gtfs::TimeOfDay* cu =
        arr_.data() + static_cast<size_t>(arr_stop) * lane_stride_;
    const gtfs::TimeOfDay* relax = col_relax_.data();
    const gtfs::TimeOfDay window_lo = tau - wait_cap_;
    uint8_t* flags = flags_.data();
    const size_t lo = col_lo_;
    const size_t hi = col_hi_;
    const size_t b0 = lo & ~size_t{7};
    const size_t b1 = (hi + 7) & ~size_t{7};
    for (size_t col = b0; col < lo; ++col) flags[col] = 0;
    for (size_t col = hi; col < b1; ++col) flags[col] = 0;
    for (size_t col = lo; col < hi; ++col) {
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
      uint32_t* ts =
          trip_stop_.data() + static_cast<size_t>(row) * lane_stride_;
      for (uint32_t col : slow_cols_) {
        if (tt[col] == kNever) {
          // Pre-filter guaranteed the boarding condition.
          boarded_[col].push_back(row);
          ++riding_cnt_[row];
          tt[col] = tau;
          ts[col] = dep_stop;
        }
        gtfs::TimeOfDay& cur =
            arr_[static_cast<size_t>(arr_stop) * lane_stride_ + col];
        if (arr < cur) {
          // Boarding above stays unguarded: a provably-useless arrival
          // write says nothing about later stops of the same trip.
          if (prune_ && Prunable(col, arr_stop, arr)) continue;
          if (cur == kNever) touched_[col].push_back(arr_stop);
          cur = arr;
          min_arr_[arr_stop] = std::min(min_arr_[arr_stop], arr);
          Label& label =
              meta_[static_cast<size_t>(arr_stop) * lane_stride_ + col];
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

  // Drain: lanes still live when the connections ran out, plus lanes the
  // sweep never reached. The latter still seed and close footpaths — a
  // rounded multi-hop walk can beat the direct walk — exactly like an
  // activated lane that boarded nothing.
  for (size_t col = col_lo_; col < col_hi_; ++col) {
    if (col_live_[col]) Retire(col);
  }
  for (; pi < num_pending; ++pi) {
    const size_t col = TakeColumn(&lanes[order[pi]]);
    Activate(col);
    Retire(col);
  }
}

}  // namespace staq::router
