#include "router/connections.h"

#include <algorithm>
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

std::shared_ptr<const ConnectionArray> ConnectionArray::EnsureFor(
    std::shared_ptr<const ConnectionArray> existing, const gtfs::Feed* feed) {
  if (existing != nullptr && existing->feed() == feed) return existing;
  return std::make_shared<const ConnectionArray>(feed);
}

}  // namespace staq::router
