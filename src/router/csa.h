// Connection Scan engine (CSA) over a preprocessed ConnectionArray: the
// engine every router::Router query runs on.
//
// A one-to-many earliest-arrival query is one linear sweep over the day's
// time-sorted connections: a connection (dep_stop, arr_stop, τ_dep, τ_arr,
// trip) relaxes arr_stop when its trip was already boarded or when dep_stop
// was reached by τ_dep within the boarding-wait budget. Footpaths are
// closed eagerly on every arrival improvement and egress targets are
// settled at write time. Journey times, feasibility, and therefore every
// journey-time MAC/ACSD aggregate are exactly equal to the independent
// label-correcting search kept as the test oracle
// (tests/testing/label_correcting_router.h; CsaEquivalenceTest pins this).
// Journeys that tie on arrival may decompose into different legs than the
// oracle's, because the scan writes ties in departure order where the
// oracle's bucket queue writes them in settle order, so generalized-cost
// labels differ: 18 % of one Brindale 0.1 school TODAM's journeys, and GAC
// MAC in 59-84 % of zones; see DESIGN.md §11 for the contract and the
// numbers. The scan's own legs are pinned across commits by
// CsaJourneyDigestTest.
//
// The profile (window) entry point is what the labeling hot path uses: all
// departure times of a block of zones' TODAM rate windows are answered
// with ONE sweep. Each distinct (origin, departure) is a *lane* — an
// independent replica of the single-query scan state — and every
// connection is offered to the lanes active at its departure time. Lanes
// activate when the sweep reaches their earliest seeded arrival (depart +
// their origin's closest access walk) and retire (finalising their
// journeys) as soon as no later connection can improve them, so the number
// of live lanes tracks the spread of unfinished searches, not the window
// length. A lane holds a state column only while live, so the columns are
// recycled and the state is sized to the peak live count. Per-lane results
// are bit-identical to running that departure's scan alone — lanes share
// only the connection decode and the call's egress table, never any
// information.
//
// Lane state is stored structure-of-arrays, lane-major per stop and per
// trip: a connection's boarding test reads two contiguous rows
// (trip_time_[trip][*] and arr_[dep_stop][*]) instead of chasing one
// ~50KB private state block per lane, and a branch-free pre-filter walks
// those rows to find the (rare) lanes that actually board or improve. The
// slow path then replays the exact single-lane logic, so the layout is
// invisible in the results. Trip rows exist only for the trips a call's
// sweep can meet — the day view's first-departure slots of its scan range
// (ConnectionArray::DayView::SlotRange) — so they cost a window's share of
// the timetable, not the whole day's.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "router/connections.h"
#include "router/cost.h"
#include "router/router.h"
#include "router/walk_table.h"

namespace staq::router {

/// One origin of a window (profile) query. `access`, when non-null, must
/// equal AccessStops(point) — pass a cached copy so repeated scans from one
/// origin skip the seeding lookup.
struct WindowOrigin {
  geo::Point point;
  const std::vector<WalkHop>* access = nullptr;
};

/// One departure of a window query: a departure time from one of the
/// call's origins plus the subset of the call's unique targets it must
/// answer. `origin` indexes the origin table passed alongside, `targets`
/// the unique-target array; `out` receives one journey per target entry,
/// in the same order.
struct WindowLane {
  gtfs::TimeOfDay depart = 0;
  uint32_t origin = 0;
  const uint32_t* targets = nullptr;
  size_t num_targets = 0;
  Journey* out = nullptr;
};

/// Connection Scan engine over one feed. Holds per-query scratch (epoch
/// versioned), so one instance per thread; the ConnectionArray it scans is
/// immutable and shared across threads. Construct via a Router — the Router
/// owns the engine and dispatches to it, keeping one walk table and one
/// options set between the two.
class CsaEngine {
 public:
  /// `feed`, `connections` (built from `feed`) and `walk_table` must
  /// outlive the engine. Options are validated by the owning Router.
  CsaEngine(const gtfs::Feed* feed, const RouterOptions& options,
            std::shared_ptr<const ConnectionArray> connections,
            const WalkTable* walk_table);

  const ConnectionArray& connections() const { return *connections_; }

  /// One-to-many earliest arrival; same contract as Router::RouteMany. A
  /// window call with one origin and one lane.
  void RouteMany(const geo::Point& origin, const geo::Point* targets,
                 size_t num_targets, gtfs::Day day, gtfs::TimeOfDay depart,
                 Journey* out,
                 const std::vector<WalkHop>* origin_access = nullptr);

  /// Profile query: answers every lane — the departures of one or more
  /// origins' rate windows — with a single sweep. `unique_targets` is the
  /// deduplicated target table the lanes index into; each lane's journeys
  /// are bit-identical to a RouteMany call for (its origin, its targets,
  /// its depart).
  void RouteWindow(const WindowOrigin* origins, size_t num_origins,
                   const geo::Point* unique_targets, size_t num_unique,
                   const WindowLane* lanes, size_t num_lanes, gtfs::Day day);

  /// Columns of the lane-major scan state: the most lanes ever live at
  /// once in one call on this engine (grow-only, rounded up to 8).
  size_t lane_stride() const { return lane_stride_; }
  /// Bytes of scan scratch this engine holds (lane-major rows, per-lane
  /// bests, per-call tables), by vector capacity. The shared lower-bound
  /// table is not counted: it belongs to the connection array.
  size_t scratch_bytes() const;
  /// The lower-bound table this engine prunes with: null until its first
  /// multi-lane window call, and on feeds too large for the closure.
  const std::vector<int32_t>* lower_bounds() const { return lb_to_.get(); }

 private:
  /// Per-stop search label; mirrors the oracle's label field for field so
  /// the reconstruction is the same code shape.
  struct Label {
    enum class Kind : uint8_t { kNone, kAccess, kRide, kTransfer };
    gtfs::TimeOfDay arrival = 0;
    Kind kind = Kind::kNone;
    uint32_t pred_stop = gtfs::kInvalidId;
    gtfs::TripId trip = gtfs::kInvalidId;
    gtfs::TimeOfDay board_time = 0;
    float walk_s = 0;
  };

  /// One merged egress candidate (stop -> (unique target, walk)), chained
  /// through `next` into per-stop lists headed by egress_head_.
  struct EgressEntry {
    double walk_s = 0.0;
    uint32_t target = 0;
    int32_t next = -1;
  };

  /// One footpath/seed hop with the rounded-seconds integer the scan adds
  /// and the float the journey leg records — both precomputed so the hot
  /// closure loop never calls lround.
  struct IntHop {
    uint32_t stop = 0;
    gtfs::TimeOfDay walk = 0;  // lround(walk_s)
    float walk_f = 0.0f;
  };

  /// True when a label write (stop, at) in lane `col` provably cannot
  /// change any output: for every target of the lane, the write's journey
  /// time plus the admissible remaining-time bound already reaches the
  /// target's current best. Bit-exact: bests only decrease (the bound
  /// only tightens), ties don't write (strict improvement), and every
  /// prefix of an eventually-winning journey strictly beats the best of
  /// its time, so winning chains are never pruned.
  bool Prunable(size_t col, uint32_t stop, gtfs::TimeOfDay at) const;
  /// Grows the lane-major arrays to `stride` columns and `trip_rows` trip
  /// rows, keeping every live column's contents. Free columns are always
  /// wiped back to kNever, so new columns and rows start clean.
  void Reserve(size_t stride, size_t trip_rows);
  /// Hands the lowest free column to `lane`, growing the stride when every
  /// column is live.
  size_t TakeColumn(const WindowLane* lane);
  /// Finalizes the column's lane, wipes the column and frees it.
  void Retire(size_t col);
  /// Recomputes a lane's pruning state from its own targets' bests.
  void UpdateWorst(size_t col);
  /// Points slot_k_ at the lane in `col`: its targets' positions k.
  void MapLaneTargets(size_t col);
  /// Relaxes egress candidates and closes footpaths after `stop` improved
  /// to `arrival` in lane `col`. Recursive over transfer chains (strict
  /// improvement bounds the depth).
  void Improve(size_t col, uint32_t stop, gtfs::TimeOfDay arrival);
  /// Seeds a lane's access stops; called when the sweep reaches the lane's
  /// first possible arrival. Returns false when the lane is already decided
  /// at birth — every target provably transit-unreachable — and only needs
  /// Finalize; it must then never join the live range.
  bool Activate(size_t col);
  /// Writes the lane's journeys (reconstruct / pure walk / infeasible).
  void Finalize(size_t col);
  /// Wipes the lane's stop/trip rows back to kNever (touched/boarded lists
  /// record exactly what was written). Must follow Finalize.
  void ClearColumn(size_t col);
  Journey Reconstruct(size_t col, gtfs::TimeOfDay depart, uint32_t egress_stop,
                      double egress_walk_s) const;

  const gtfs::Feed* feed_;
  const RouterOptions& options_;
  std::shared_ptr<const ConnectionArray> connections_;
  const WalkTable* walk_table_;
  gtfs::TimeOfDay wait_cap_;  // max_boarding_wait_s, truncated

  // Shared per-call state (one window = one call epoch): merged egress map
  // over the unique targets of every origin.
  uint32_t call_epoch_ = 0;
  std::vector<uint32_t> egress_epoch_;
  std::vector<int32_t> egress_head_;
  std::vector<EgressEntry> egress_pool_;

  // Transfer footpaths in CSR form with precomputed integer walk seconds
  // (built once in the constructor from the walk table).
  std::vector<IntHop> transfer_hops_;
  std::vector<uint32_t> transfer_offset_;  // num_stops + 1 entries

  // The in-flight call's origin table: every origin's access hops (its
  // lanes' seeds) in CSR form with the same precomputed integer/float walk
  // pair, and its closest access walk (kNever: no access stops).
  std::vector<IntHop> access_int_;
  std::vector<uint32_t> access_offset_;  // num_origins + 1 entries
  std::vector<gtfs::TimeOfDay> origin_min_walk_;
  // Per-(origin, unique target) tables, [origin * num_unique_ + target],
  // filled for the pairs some lane asks for: the direct-walk baseline and,
  // when pruning, acc_lb_ (see below).
  size_t num_unique_ = 0;
  std::vector<double> direct_walk_;
  std::vector<int32_t> acc_lb_;

  // --- Lane-major scan state. A lane takes the lowest free column when it
  // activates and gives it back when it retires, so the stride
  // (lane_stride_, grow-only) is the peak number of live lanes, not the
  // call's lane count. arr_ duplicates meta_'s arrival so the hot
  // pre-filter touches 4-byte rows only; meta_ entries are valid exactly
  // where arr_ != kNever.
  size_t lane_stride_ = 0;
  std::vector<gtfs::TimeOfDay> arr_;        // [stop * stride + col]
  std::vector<Label> meta_;                 // [stop * stride + col]
  // Trip rows: row = the trip's day slot − trip_slot_lo_, for the slots of
  // the in-flight call's scan range (trip_rows_ = grow-only capacity).
  size_t trip_rows_ = 0;
  uint32_t trip_slot_lo_ = 0;
  size_t call_trip_rows_ = 0;  // rows the in-flight call's range spans
  std::vector<gtfs::TimeOfDay> trip_time_;  // [row * stride + col] board
                                            // time; kNever = not riding
  std::vector<uint32_t> trip_stop_;         // board stop, valid while riding
  std::vector<std::vector<uint32_t>> touched_;  // per col: stops written
  std::vector<std::vector<uint32_t>> boarded_;  // per col: trip rows boarded

  // Per-column lane scalars. col_live_ marks the columns holding a live
  // lane, all of which lie in [col_lo_, col_hi_); free_cols_ is a min-heap
  // of the other columns below the stride.
  std::vector<const WindowLane*> col_def_;
  std::vector<gtfs::TimeOfDay> col_latest_;
  std::vector<double> col_worst_;
  std::vector<gtfs::TimeOfDay> col_relax_;
  std::vector<double> col_retire_;  // min(depart + worst, latest + 1)
  std::vector<uint8_t> col_live_;
  std::vector<uint32_t> free_cols_;
  size_t col_lo_ = 0;
  size_t col_hi_ = 0;
  /// Earliest col_retire_ among live lanes: the sweep only runs its
  /// retirement pass when tau reaches it. Retiring late is result-neutral
  /// (relax_limit already blocks every write past the bound).
  double next_retire_ = 0.0;
  size_t active_count_ = 0;

  // Per-(col, lane target) bests, stride t_stride_ = the call's largest
  // lane target count: entry k belongs to the lane's k-th target, so the
  // rows do not grow with the call's unique-target table. Egress entries
  // name unique targets; slot_k_[u] maps one to its k in the lane last
  // mapped (slot_lane_), valid where slot_stamp_[u] == slot_gen_.
  size_t t_stride_ = 0;
  std::vector<double> best_total_;
  std::vector<double> best_walk_;
  std::vector<uint32_t> best_stop_;
  std::vector<uint32_t> slot_stamp_;
  std::vector<uint32_t> slot_k_;
  uint32_t slot_gen_ = 0;
  const WindowLane* slot_lane_ = nullptr;

  // Connection-skip summaries: a connection is offered to lanes only when
  // some live lane could possibly use it. min_arr_[stop] lower-bounds every
  // live lane's arrival at the stop (stale-low after retires — only ever
  // conservative); riding_cnt_[row] counts lanes riding the row's trip;
  // max_relax_ upper-bounds every live lane's relax limit.
  std::vector<gtfs::TimeOfDay> min_arr_;
  std::vector<uint16_t> riding_cnt_;
  gtfs::TimeOfDay max_relax_ = 0;

  // Target-directed write pruning (output-exact, A*-style). lb_to_ is the
  // connection array's shared lower-bound table
  // (ConnectionArray::LowerBounds), fetched on the engine's first
  // multi-lane window call: lb_to_[e*S+s] lower-bounds any in-network
  // continuation s→e. target_lb_[u*S+s] is the per-call refinement min over
  // the target's egress stops e of lb_to_[e][s] + floor(egress walk) — a
  // lower bound on the journey time still ahead of a label at s bound for
  // unique target u.
  bool bounds_fetched_ = false;
  bool prune_ = false;  // this call has target_lb_ (lb_to_ present)
  std::shared_ptr<const std::vector<int32_t>> lb_to_;
  std::vector<int32_t> target_lb_;  // [unique target * num_stops + stop]
  // Per-call derived bounds. min_tlb_[u] = min over stops of target_lb_:
  // every journey settled from sweep time tau onward costs at least
  // (tau - depart) + min_tlb_[u], which retires lanes earlier than the
  // plain depart + best schedule. acc_lb_[o*U+u] >= kFar proves target u
  // has no transit path from ANY of origin o's access stops — a lane whose
  // targets are all such is finalised at activation (walk-only /
  // infeasible) and never joins the live range at all.
  std::vector<int32_t> min_tlb_;  // [unique target]
  // Retirement variant of col_worst_: max over the lane's targets of
  // best - min_tlb_. Unreachable targets drop out entirely (their best can
  // never change). col_worst_ itself must stay the plain max — it bounds
  // which *writes* can still matter (relax limits), where the per-stop
  // slack is already charged by Prunable.
  std::vector<double> col_worst_ret_;

  // Activation-order scratch, the pre-filter's byte flags and hit list,
  // and the identity-target scratch for RouteMany.
  std::vector<uint32_t> lane_order_;
  std::vector<uint8_t> flags_;
  std::vector<uint32_t> slow_cols_;
  std::vector<uint32_t> identity_targets_;

  // Walk-lookup reuse buffers.
  std::vector<WalkHop> access_scratch_;
  std::vector<WalkHop> egress_scratch_;
  std::vector<geo::Neighbor> neighbor_scratch_;
};

}  // namespace staq::router
