// Preprocessed connection view of a gtfs::Feed for the Connection Scan
// engine (router/csa.h).
//
// A connection is one elementary ride: trip t leaves stop a at τ_dep and
// reaches the next stop b of its sequence at τ_arr. Flattening the
// timetable into one array of connections sorted by departure time is the
// whole preprocessing step of CSA (Dibbelt et al.; the GTFS2STN
// spatiotemporal-network construction is the equivalent view): a query then
// scans a contiguous, prefetch-friendly window of this array instead of
// driving a priority queue over per-stop departure indexes.
//
// The array is immutable and derived purely from the feed, so it is built
// once per timetable and shared: every Router/CsaEngine on every thread
// references the same ConnectionArray through a shared_ptr, and a scenario
// epoch "rebuild" under the serve mutation set (POI edits, interval
// switches — none of which touch the timetable) is a share, verified by
// EnsureFor(). Per-day filtered views (service-day masks resolved away) are
// materialised lazily and memoised, one per weekday, under a call_once so
// concurrent first queries race safely.
#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <mutex>
#include <vector>

#include "gtfs/feed.h"
#include "router/walk_table.h"

namespace staq::router {

/// Flat, time-sorted connection array over one feed.
class ConnectionArray {
 public:
  /// Builds the base array from `feed` (non-null; must outlive the array).
  /// Connections are sorted by (departure time, trip, stop sequence), the
  /// deterministic order every scan — and therefore every tie-break —
  /// derives from.
  explicit ConnectionArray(const gtfs::Feed* feed);

  ConnectionArray(const ConnectionArray&) = delete;
  ConnectionArray& operator=(const ConnectionArray&) = delete;

  const gtfs::Feed* feed() const { return feed_; }
  size_t num_connections() const { return dep_time_.size(); }
  /// Wall-clock seconds the base-array build took (bench reporting).
  double build_seconds() const { return build_seconds_; }

  /// Connections running on one service day, in base order, stored
  /// structure-of-arrays so the scan touches only the columns it reads.
  ///
  /// The day's trips are also ranked by first departure: `slot[i]` is the
  /// rank of connection i's trip. A connection departing at τ belongs to a
  /// trip whose first departure lies in [τ − max_trip_span, τ], so the
  /// trips a scan over departures [lo, hi] can meet occupy one contiguous
  /// slot range (SlotRange) — per-trip scan state sized to that range
  /// instead of to every trip of the feed.
  struct DayView {
    std::vector<gtfs::TimeOfDay> dep_time;
    std::vector<gtfs::TimeOfDay> arr_time;
    std::vector<uint32_t> dep_stop;
    std::vector<uint32_t> arr_stop;
    std::vector<gtfs::TripId> trip;
    std::vector<uint32_t> slot;  // the trip's first-departure rank
    /// First departure of the trip holding each slot (ascending).
    std::vector<gtfs::TimeOfDay> slot_first_dep;
    /// Longest first-to-last departure span of any trip of the day.
    gtfs::TimeOfDay max_trip_span = 0;

    size_t size() const { return dep_time.size(); }
    /// Index of the first connection departing at or after `t`.
    size_t LowerBound(gtfs::TimeOfDay t) const;
    /// Slots [*begin, *end) of every trip with a connection departing in
    /// [lo, hi].
    void SlotRange(gtfs::TimeOfDay lo, gtfs::TimeOfDay hi, uint32_t* begin,
                   uint32_t* end) const;
  };

  /// The day's filtered view, built on first use and memoised. Thread-safe;
  /// the returned reference lives as long as the array.
  const DayView& ForDay(gtfs::Day day) const;

  /// "Unreachable" entry of the LowerBounds table. Small enough that
  /// kFar + kFar and arrival + kFar stay far from int32 overflow.
  static constexpr int32_t kFar = 1 << 29;
  /// LowerBounds stays off above this many stops: the min-plus closure is
  /// cubic in stops and would not pay off.
  static constexpr size_t kMaxBoundStops = 1024;

  /// Admissible stop-to-stop lower bounds behind the CSA engine's
  /// target-directed pruning (router/csa.h): entry [e * num_stops + s]
  /// lower-bounds any ride/footpath continuation from s to e (kFar: none).
  /// Footpaths come from `walk` (built over this array's feed), so the
  /// table is memoised for one walk-parameter set and rebuilt when another
  /// asks; engines share it read-only. Null above kMaxBoundStops.
  /// Thread-safe.
  std::shared_ptr<const std::vector<int32_t>> LowerBounds(
      const WalkTable& walk) const;

  /// Epoch-rebuild hook: returns `existing` when it was built from `feed`
  /// (the timetable is unchanged, so the rebuild is a share), otherwise
  /// builds a fresh array. This is what keeps one array alive across every
  /// POI-edit and interval-switch epoch of a serve scenario store.
  static std::shared_ptr<const ConnectionArray> EnsureFor(
      std::shared_ptr<const ConnectionArray> existing, const gtfs::Feed* feed);

 private:
  const gtfs::Feed* feed_;
  double build_seconds_ = 0.0;

  // Base array, sorted by (dep_time, trip, seq); days_ carries the owning
  // trip's service mask for the per-day filters.
  std::vector<gtfs::TimeOfDay> dep_time_;
  std::vector<gtfs::TimeOfDay> arr_time_;
  std::vector<uint32_t> dep_stop_;
  std::vector<uint32_t> arr_stop_;
  std::vector<gtfs::TripId> trip_;
  std::vector<gtfs::DayMask> days_;

  // Lazily materialised per-day views. once_ lives behind a unique_ptr so
  // the slots stay valid references; the array itself is non-movable.
  mutable std::array<std::unique_ptr<std::once_flag>, 7> once_;
  mutable std::array<DayView, 7> day_views_;

  // LowerBounds memo: the table for one walk-parameter set.
  mutable std::mutex bounds_mu_;
  mutable WalkParams bounds_params_;
  mutable std::shared_ptr<const std::vector<int32_t>> bounds_;
};

}  // namespace staq::router
