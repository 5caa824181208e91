#include "router/connections.h"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "util/check.h"
#include "util/stopwatch.h"

namespace staq::router {

ConnectionArray::ConnectionArray(const gtfs::Feed* feed) : feed_(feed) {
  STAQ_CHECK(feed != nullptr, "ConnectionArray requires a feed");
  util::Stopwatch watch;

  // One connection per consecutive stop-time pair of every trip.
  const auto& stop_times = feed_->stop_times();
  size_t n = 0;
  for (const gtfs::Trip& trip : feed_->trips()) {
    if (trip.num_stop_times >= 2) n += trip.num_stop_times - 1;
  }
  dep_time_.reserve(n);
  arr_time_.reserve(n);
  dep_stop_.reserve(n);
  arr_stop_.reserve(n);
  trip_.reserve(n);
  days_.reserve(n);
  for (const gtfs::Trip& trip : feed_->trips()) {
    const uint32_t end = trip.first_stop_time + trip.num_stop_times;
    for (uint32_t i = trip.first_stop_time; i + 1 < end; ++i) {
      const gtfs::StopTime& from = stop_times[i];
      const gtfs::StopTime& to = stop_times[i + 1];
      dep_time_.push_back(from.departure);
      arr_time_.push_back(to.arrival);
      dep_stop_.push_back(from.stop);
      arr_stop_.push_back(to.stop);
      trip_.push_back(trip.id);
      days_.push_back(trip.days);
    }
  }

  // Sort by (departure, trip, sequence). The build order above is already
  // (trip, sequence), and stable_sort preserves it within equal departures,
  // so the comparator only needs the primary key — and the tie order every
  // scan sees is fully deterministic.
  std::vector<uint32_t> order(dep_time_.size());
  std::iota(order.begin(), order.end(), 0u);
  std::stable_sort(order.begin(), order.end(), [this](uint32_t a, uint32_t b) {
    return dep_time_[a] < dep_time_[b];
  });
  auto permute = [&order](auto& column) {
    auto src = column;
    for (size_t i = 0; i < order.size(); ++i) column[i] = src[order[i]];
  };
  permute(dep_time_);
  permute(arr_time_);
  permute(dep_stop_);
  permute(arr_stop_);
  permute(trip_);
  permute(days_);

  for (auto& flag : once_) flag = std::make_unique<std::once_flag>();
  build_seconds_ = watch.ElapsedSeconds();
}

size_t ConnectionArray::DayView::LowerBound(gtfs::TimeOfDay t) const {
  return static_cast<size_t>(
      std::lower_bound(dep_time.begin(), dep_time.end(), t) -
      dep_time.begin());
}

void ConnectionArray::DayView::SlotRange(gtfs::TimeOfDay lo,
                                         gtfs::TimeOfDay hi, uint32_t* begin,
                                         uint32_t* end) const {
  *begin = static_cast<uint32_t>(
      std::lower_bound(slot_first_dep.begin(), slot_first_dep.end(),
                       lo - max_trip_span) -
      slot_first_dep.begin());
  *end = static_cast<uint32_t>(
      std::upper_bound(slot_first_dep.begin(), slot_first_dep.end(), hi) -
      slot_first_dep.begin());
}

const ConnectionArray::DayView& ConnectionArray::ForDay(gtfs::Day day) const {
  const size_t d = static_cast<size_t>(day);
  STAQ_CHECK(d < 7, "day out of range");
  std::call_once(*once_[d], [this, d, day] {
    DayView& view = day_views_[d];
    size_t n = 0;
    for (gtfs::DayMask mask : days_) {
      if (gtfs::RunsOn(mask, day)) ++n;
    }
    view.dep_time.reserve(n);
    view.arr_time.reserve(n);
    view.dep_stop.reserve(n);
    view.arr_stop.reserve(n);
    view.trip.reserve(n);
    view.slot.reserve(n);
    // Connections arrive in departure order, so a trip's first sighting is
    // its first departure and ranks it; its last sighting bounds its span.
    constexpr uint32_t kUnranked = ~0u;
    std::vector<uint32_t> trip_slot(feed_->num_trips(), kUnranked);
    for (size_t i = 0; i < days_.size(); ++i) {
      if (!gtfs::RunsOn(days_[i], day)) continue;
      uint32_t& slot = trip_slot[trip_[i]];
      if (slot == kUnranked) {
        slot = static_cast<uint32_t>(view.slot_first_dep.size());
        view.slot_first_dep.push_back(dep_time_[i]);
      }
      view.max_trip_span = std::max(
          view.max_trip_span, dep_time_[i] - view.slot_first_dep[slot]);
      view.dep_time.push_back(dep_time_[i]);
      view.arr_time.push_back(arr_time_[i]);
      view.dep_stop.push_back(dep_stop_[i]);
      view.arr_stop.push_back(arr_stop_[i]);
      view.trip.push_back(trip_[i]);
      view.slot.push_back(slot);
    }
  });
  return day_views_[d];
}

std::shared_ptr<const std::vector<int32_t>> ConnectionArray::LowerBounds(
    const WalkTable& walk) const {
  const size_t num_stops = feed_->num_stops();
  if (num_stops == 0 || num_stops > kMaxBoundStops) return nullptr;
  // Transfers depend on exactly these walk parameters.
  const WalkParams& p = walk.params();
  std::lock_guard<std::mutex> lock(bounds_mu_);
  if (bounds_ != nullptr && bounds_params_.speed_mps == p.speed_mps &&
      bounds_params_.detour_factor == p.detour_factor &&
      bounds_params_.max_transfer_walk_s == p.max_transfer_walk_s) {
    return bounds_;
  }

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
    for (const WalkHop& hop : walk.Transfers(s)) {
      int32_t& cell = d[s * num_stops + hop.stop];
      cell = std::min(cell, static_cast<int32_t>(std::lround(hop.walk_s)));
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
  // contiguous row in the engine's per-call target bound build.
  auto lb = std::make_shared<std::vector<int32_t>>(num_stops * num_stops);
  for (size_t s = 0; s < num_stops; ++s) {
    for (size_t e = 0; e < num_stops; ++e) {
      (*lb)[e * num_stops + s] = d[s * num_stops + e];
    }
  }
  bounds_params_ = p;
  bounds_ = std::move(lb);
  return bounds_;
}

std::shared_ptr<const ConnectionArray> ConnectionArray::EnsureFor(
    std::shared_ptr<const ConnectionArray> existing, const gtfs::Feed* feed) {
  if (existing != nullptr && existing->feed() == feed) return existing;
  return std::make_shared<const ConnectionArray>(feed);
}

}  // namespace staq::router
