// Epoch-versioned city scenarios with incremental relabeling.
//
// A Scenario is an immutable snapshot of one city configuration: the POI
// set, the analysis interval, and the interval's offline structures
// (isochrones, hop trees, feature extractor). Scenarios are published
// RCU-style by a ScenarioStore: readers Acquire() a shared_ptr to the
// current snapshot and keep using it for as long as they like; a mutation
// (any of the eight wal::MutationRecord kinds) builds the *next* snapshot
// off to the side and installs it with one pointer swap. In-flight queries
// never observe a half-mutated scenario and never block writers.
//
// Incremental relabeling (the reason mutations are cheap): exact answers
// are derived from an ExactLabelState — the edit-stable TODAM, every
// trip's cost under the state's key and every zone's exact label. The
// edit-stable construction (core/todam.h) keys each (zone, POI) RNG
// stream by the POI's *stable id* and freezes the gravity normaliser over
// the base city's POI set, which makes the TODAM history-independent:
// editing one POI perturbs only that POI's trips. A POI mutation
// therefore patches the parent epoch's materialised states trip by trip:
// a removal drops the POI's trips and their costs, an addition samples the
// new column and routes only its trips (a journey does not depend on the
// other targets of its lane), and either re-aggregates only the zones
// whose trip sequence changed (= zones with at least one sampled trip to
// the edited POI; exact, not a conservative superset). The patched state
// is bit-identical to a from-scratch build over the edited POI set, which
// the golden tests assert; a removal runs no SPQ and an addition one per
// new trip. The TODAM is the one index of a state's trips (one flat array
// grouped by zone, core/todam.h) and the trip columns follow its offsets,
// so either patch is one pass over flat arrays. What a patch cost goes to
// the mutation's report; a state keeps no accounting, and an exact answer
// reports one SPQ per trip of its state, however the state was made.
//
// Timetable disruptions (scenario subsystem) extend the same contract to
// the supply side. SuspendRoute / CloseStop / ScaleHeadway build a
// disrupted feed through the pure transforms of scenario/transform.h,
// screen the zones that could have used a removed connection on the OLD
// timetable (scenario/impact.h), and install the next epoch with only the
// screened zones relabeled; SetFare relabels every zone of the
// generalized-cost states and shares journey-time states verbatim;
// ScaleWalkSpeed rescales the walk parameters (router and isochrone ω) and
// rebuilds everything. Each disrupted epoch carries its own city copy —
// zones and base POIs preserved, so the frozen gravity normalisers (and
// with them the TODAM) never shift — plus a network version stamp worker
// pools key their routers on. Every patched state is bit-identical to a
// full rebuild from the mutated feed (golden-tested), and mutations stay
// all-or-nothing: the new network is built entirely aside and committed
// only after every patch has succeeded.
//
// Zones are labeled one way: a build, a patch, a batch capture and an SSR
// answer's β sample all run Scenario::LabelZoneBlocks through a ZoneLoop —
// the serving loop of an AqServer (which a store's patches use too) or a
// SerialZoneLoop over one engine. SSR answers are answered one way too:
// Scenario::AnswerSsr, for the server and the paper benches alike.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <future>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "core/features.h"
#include "core/hoptree.h"
#include "core/isochrone.h"
#include "core/labeling.h"
#include "core/pipeline.h"
#include "core/todam.h"
#include "ml/matrix.h"
#include "router/router.h"
#include "scenario/transform.h"
#include "serve/request.h"
#include "synth/city_builder.h"
#include "util/status.h"
#include "wal/record.h"

namespace staq::serve {

/// Build-once memo of shared immutable values keyed by `Key::Canonical()`.
/// The first caller for a key builds the value; concurrent callers for the
/// key wait for that build. A failed build fails its waiters and erases the
/// key, so a later caller builds afresh instead of inheriting the failure.
template <typename Key, typename Value>
class BuildOnceMemo {
 public:
  using Ptr = std::shared_ptr<const Value>;

  /// The value for `key`; `build()` makes it when absent (and *built_fresh
  /// is set, when non-null). The build's exception reaches the builder and
  /// every waiter.
  template <typename Build>
  Ptr GetOrBuild(const Key& key, const Build& build,
                 bool* built_fresh = nullptr) {
    if (built_fresh != nullptr) *built_fresh = false;
    const std::string canonical = key.Canonical();
    std::promise<Ptr> promise;
    std::shared_future<Ptr> future;
    {
      std::lock_guard<std::mutex> lock(mu_);
      auto it = entries_.find(canonical);
      if (it != entries_.end()) {
        future = it->second.future;
      } else {
        entries_.emplace(canonical,
                         Entry{key, promise.get_future().share()});
      }
    }
    if (future.valid()) return future.get();

    Ptr value;
    try {
      value = build();
    } catch (...) {
      // An unfulfilled promise would hang every waiter, and a dead entry
      // would poison the key forever. Drop the entry first (so Ready and
      // later callers never see the broken future), then fail the waiters.
      {
        std::lock_guard<std::mutex> lock(mu_);
        entries_.erase(canonical);
      }
      promise.set_exception(std::current_exception());
      throw;
    }
    promise.set_value(value);
    if (built_fresh != nullptr) *built_fresh = true;
    return value;
  }

  /// Pre-publishes a value under `key`.
  void Seed(const Key& key, Ptr value) {
    std::promise<Ptr> promise;
    promise.set_value(std::move(value));
    std::lock_guard<std::mutex> lock(mu_);
    entries_.emplace(key.Canonical(), Entry{key, promise.get_future().share()});
  }

  /// The values built so far (in-flight builds are skipped).
  std::vector<std::pair<Key, Ptr>> Ready() const {
    std::vector<std::pair<Key, Ptr>> out;
    std::lock_guard<std::mutex> lock(mu_);
    out.reserve(entries_.size());
    for (const auto& [canonical, entry] : entries_) {
      if (entry.future.wait_for(std::chrono::seconds(0)) ==
          std::future_status::ready) {
        out.emplace_back(entry.key, entry.future.get());
      }
    }
    return out;
  }

 private:
  struct Entry {
    Key key;
    std::shared_future<Ptr> future;
  };

  mutable std::mutex mu_;
  std::unordered_map<std::string, Entry> entries_;
};

/// A POI category and a gravity decay scale: what a scenario's zone
/// feature matrix (the category's POIs, aggregated over α rows of that
/// decay) and the city's frozen gravity normalisers depend on besides the
/// scenario.
struct ZoneFeatureKey {
  synth::PoiCategory category = synth::PoiCategory::kSchool;
  double decay_scale_m = 0.0;

  std::string Canonical() const;
};

/// Offline structures of one analysis interval. They depend only on the
/// city — zones, road graph, GTFS feed and its own POIs — never on a
/// scenario's POI edits, so every POI-edit epoch shares its parent's
/// OfflineState; only an interval switch builds a new one. Isochrones
/// never read the timetable either, so a disruption epoch shares its
/// parent's set.
struct OfflineState {
  OfflineState(const synth::City& city, const gtfs::TimeInterval& interval,
               core::IsochroneConfig iso_config = {});

  /// Adopts `isochrones` (a parent epoch's, or persisted ones) and hop
  /// trees verbatim and rebuilds the (cheap, deterministic) feature
  /// extractor against `city`, which must outlive the state exactly as for
  /// the building ctor.
  OfflineState(const synth::City& city, const gtfs::TimeInterval& interval,
               std::shared_ptr<const core::IsochroneSet> isochrones,
               std::unique_ptr<core::HopTreeSet> hop_trees);

  gtfs::TimeInterval interval;
  std::shared_ptr<const core::IsochroneSet> isochrones;
  std::unique_ptr<core::HopTreeSet> hop_trees;
  std::unique_ptr<core::FeatureExtractor> features;
  double build_seconds = 0.0;
  /// Frozen gravity normalisers per (category, decay scale):
  /// core::StableGravityNorms over the city's own POIs of the category,
  /// built once and read by Scenario::StableTodam of every epoch sharing
  /// this state. Edits never change the city's POIs, so an entry never
  /// goes stale.
  mutable BuildOnceMemo<ZoneFeatureKey, std::vector<double>> gravity_norms;
};

/// One exact labeling of one scenario under one LabelKey: the edit-stable
/// TODAM over the scenario's POIs of key.category, every trip's cost under
/// the key and the exact label of every zone — and nothing else: the POIs
/// a trip's index points into come from the scenario (Scenario::PoisOf)
/// and the gravity normalisers from its offline state. Immutable once
/// published; patches copy-then-modify. The TODAM alone groups the trips
/// by zone: the trip columns are indexed by todam.offsets(), so zone z's
/// costs and flags occupy [offsets[z], offsets[z + 1]).
struct ExactLabelState {
  /// The TODAM's trips, α rows dropped (SSR derives its own through
  /// Scenario::StableTodam); an SSR sample's state holds its zones' only.
  core::Todam todam;
  /// Each trip's cost under the key (LabelKey::cost and ::gac) and its
  /// flags (bit0 feasible, bit1 walk-only), one entry per TODAM trip in
  /// todam.trips() order. POI patches splice these columns instead of
  /// routing whole zones again.
  std::vector<uint8_t> trip_flags;
  std::vector<double> trip_costs;
  /// Indexed by zone; every label is core::AggregateZoneLabels over its
  /// zone's trip columns.
  std::vector<core::ZoneLabel> labels;

  /// A state over `todam`'s trips (α rows dropped), trip columns sized
  /// with every trip zeroed (the infeasible encoding) and no zone labeled:
  /// what LabelZoneBlocks fills.
  static std::shared_ptr<ExactLabelState> Unlabeled(core::Todam todam);

  /// Derives `zones`' labels from their trip columns.
  void AggregateZones(const std::vector<uint32_t>& zones);
};

class Scenario;

/// One work item of a zone loop: labels item `index` — a block of up to
/// core::kZoneBlock zones, one window scan — with `engine` and returns the
/// step that stores the item's results.
using ZoneLoopBody = std::function<std::function<void()>(
    core::LabelingEngine& engine, size_t index)>;

/// The one way zones get labeled: every label-state build, patch, batch
/// capture and SSR sample runs its zone loop through one of these. Each
/// zone is labeled independently of its block, so how a loop is split
/// across threads never shows in the labels: an implementation may hand
/// items to any number of engines as long as each routes over
/// `scenario`'s network, and may even label an item twice (the owning
/// thread takes over an item a stalled helper still holds) — but it runs
/// exactly one store step per item. A body can still be running on a
/// straggling helper after Run returns, so it must own (by value or
/// shared_ptr) everything it reads and writes. AqServer implements the
/// loop with the owning thread plus idle-priority helpers leasing the
/// server's contexts (DESIGN.md §16); SerialZoneLoop runs it on one engine.
class ZoneLoop {
 public:
  virtual ~ZoneLoop() = default;

  /// Labels and stores every item in [0, n), returning when all are
  /// stored; rethrows the first exception a body threw.
  virtual void Run(const Scenario& scenario, size_t n,
                   const ZoneLoopBody& body) = 0;
};

/// Labels and stores each item in order on the calling thread, on one
/// engine.
class SerialZoneLoop : public ZoneLoop {
 public:
  /// Labels on an engine of its own, built over the network of the
  /// scenario it runs for and built again whenever a later scenario's
  /// network differs: the loop to hand a store, which gets its loop before
  /// it owns a city an engine could route over.
  SerialZoneLoop() = default;
  /// Labels on `engine` (not owned), which its caller built for the
  /// network of the scenarios the loop runs for.
  explicit SerialZoneLoop(core::LabelingEngine& engine) : engine_(&engine) {}

  void Run(const Scenario& scenario, size_t n,
           const ZoneLoopBody& body) override;

 private:
  /// A default-constructed loop's engine and the network it routes over.
  struct OwnEngine {
    OwnEngine(std::shared_ptr<const synth::City> city_in,
              const router::RouterOptions& options, uint64_t network)
        : city(std::move(city_in)),
          router(&city->feed, options),
          engine(city.get(), &router),
          network_id(network) {}
    std::shared_ptr<const synth::City> city;
    router::Router router;
    core::LabelingEngine engine;
    uint64_t network_id;
  };

  core::LabelingEngine* engine_ = nullptr;
  std::unique_ptr<OwnEngine> own_;
};

/// Every zone id of a city with `count` zones, ascending.
std::vector<uint32_t> AllZones(size_t count);

/// Immutable scenario snapshot. Thread-safe: all mutable state is the
/// internal label-state and feature memos, guarded and built once per key.
class Scenario {
 public:
  Scenario(uint64_t epoch, std::shared_ptr<const synth::City> base,
           std::vector<synth::Poi> pois,
           std::shared_ptr<const OfflineState> offline);

  uint64_t epoch() const { return epoch_; }
  /// The scenario's city — the disrupted copy once timetable mutations have
  /// run. Every disruption preserves zones and base POIs, so the frozen
  /// gravity normalisers read off this city never shift across epochs.
  const synth::City& base_city() const { return *base_; }
  /// Shared handle on the scenario's city; worker contexts hold it as a
  /// keepalive so their routers survive later network mutations.
  std::shared_ptr<const synth::City> city_ptr() const { return base_; }
  const std::vector<synth::Poi>& pois() const { return pois_; }
  const OfflineState& offline() const { return *offline_; }
  /// The shared offline handle, for deriving POI-edit epochs that reuse it
  /// (sharing the handle, not aliasing the scenario, so dead epochs free).
  std::shared_ptr<const OfflineState> offline_ptr() const { return offline_; }
  const gtfs::TimeInterval& interval() const { return offline_->interval; }

  /// Network stamp: increments with every timetable, fare, or walk
  /// mutation. Pooled worker contexts key on network_id(), not on it.
  uint64_t network_version() const { return network_version_; }
  /// Process-unique identity of the network this scenario routes over.
  /// Unlike network_version(), an id is never reused — not even by a
  /// network built for a mutation that then failed — so pooled labeling
  /// contexts key on it.
  uint64_t network_id() const { return network_id_; }
  /// Router options matching this scenario's network: the (possibly
  /// rescaled) walk parameters plus the connection array of the scenario's
  /// own feed.
  const router::RouterOptions& router_options() const {
    return router_options_;
  }

  /// Cumulative ScaleWalkSpeed factor of this scenario's network: its walk
  /// parameters are the store's base ones times this scale.
  double walk_scale() const { return walk_scale_; }

  /// Stamps the network version, id, router options and walk scale
  /// (mutation derivation, ScenarioStore only). Must only be called before
  /// the scenario is installed.
  void SetNetwork(uint64_t version, uint64_t id,
                  const router::RouterOptions& options, double walk_scale);

  /// The scenario's POIs of one category, in stable-id order.
  std::vector<synth::Poi> PoisOf(synth::PoiCategory category) const;

  /// Memoised exact label state: the first caller for a key builds it
  /// through `loop` (and sets *built_fresh when non-null); concurrent
  /// callers for the same key block until that build is published.
  std::shared_ptr<const ExactLabelState> GetOrBuildLabelState(
      const LabelKey& key, ZoneLoop& loop, bool* built_fresh = nullptr) const;

  /// Memoised zone feature matrix (|Z| x core::kNumFeatures) of `key`'s
  /// category POIs, aggregated over `alpha` — the α rows of the request's
  /// edit-stable TODAM (Todam::alpha()), as core::DrawSsrSample would
  /// aggregate them. Those rows read neither the seed nor the keep scale
  /// nor the sample rate, only the POIs and the decay scale, so one build
  /// serves every SSR request for the key in this epoch. The first caller
  /// builds it (and sets *built_fresh when non-null); concurrent callers
  /// wait for that build, and a failed build fails them without poisoning
  /// the key.
  std::shared_ptr<const ml::Matrix> GetOrBuildZoneFeatures(
      const ZoneFeatureKey& key,
      const std::vector<std::vector<double>>& alpha,
      bool* built_fresh = nullptr) const;

  /// From-scratch build, bypassing the memo: an Unlabeled state over
  /// StableTodam, LabelZoneBlocks over every zone through `loop`. This is
  /// the golden reference the incremental path is checked against (tests,
  /// bench gates).
  std::shared_ptr<const ExactLabelState> BuildLabelState(const LabelKey& key,
                                                         ZoneLoop& loop) const;

  /// The edit-stable TODAM of `key` over `pois` (this scenario's POIs of
  /// key.category, or a POI patch's new one). Its gravity normalisers are
  /// frozen over the *base* city's POIs of the category and read from the
  /// offline state's memo, so every epoch — and every patch — sees the
  /// same keep probabilities.
  core::Todam StableTodam(const LabelKey& key,
                          const std::vector<synth::Poi>& pois) const;

  /// The one zone-block routine of state builds, patches and batch
  /// captures: labels `zones` of `state` under key.cost and key.gac over
  /// this scenario's network through `loop`, core::kZoneBlock entries of
  /// `zones` per loop item; a trip's POI index points into
  /// PoisOf(key.category). Stores every label at its zone and every
  /// trip's cost and flags in the state's trip columns (which must be
  /// sized to its TODAM, as Unlabeled sizes them): one SPQ per trip of
  /// `zones`. `capture`, when non-null, must be empty; it receives one
  /// trip range per entry of `zones`, in order, holding every trip's cost
  /// basis (each block's LabelingEngine::block_columns()).
  void LabelZoneBlocks(
      ZoneLoop& loop, const LabelKey& key,
      const std::shared_ptr<ExactLabelState>& state,
      std::vector<uint32_t> zones,
      const std::shared_ptr<core::TripCostColumns>& capture = nullptr) const;

  /// One SSR answer over `todam`, a TODAM over this scenario's POIs of
  /// `category`, in four steps: core::DrawSsrSample (`features`, when
  /// non-null, stands in for the zone feature matrix the offline state's
  /// extractor would aggregate over the TODAM's α rows); a state over the
  /// sampled zones' trips alone; LabelZoneBlocks of the sampled zones
  /// through `loop` under config.cost and config.gac, timed into
  /// timings.labeling_s, one SPQ per trip; and core::FitSsr, offered
  /// `fit_helpers`. The server answers over StableTodam; the paper benches
  /// over their own index-keyed gravity TODAM (bench/bench_common.h).
  util::Result<core::PipelineResult> AnswerSsr(
      ZoneLoop& loop, synth::PoiCategory category, const core::Todam& todam,
      const core::PipelineConfig& config, const ml::Matrix* features,
      util::ThreadPool* fit_helpers) const;

  /// Label states the scenario currently holds materialised (ready, not
  /// in-flight). Mutations patch these into the next epoch; a state still
  /// being built during a mutation is simply not carried over — the next
  /// epoch rebuilds it on demand, and history-independence guarantees the
  /// rebuild equals the patch it missed.
  std::vector<std::pair<LabelKey, std::shared_ptr<const ExactLabelState>>>
  MaterializedStates() const;

  /// Pre-publishes a label state (mutation derivation). Must only be
  /// called before the scenario is installed.
  void SeedLabelState(const LabelKey& key,
                      std::shared_ptr<const ExactLabelState> state);

 private:
  uint64_t epoch_;
  std::shared_ptr<const synth::City> base_;
  std::vector<synth::Poi> pois_;
  std::shared_ptr<const OfflineState> offline_;
  uint64_t network_version_ = 0;
  uint64_t network_id_ = 0;
  router::RouterOptions router_options_;
  double walk_scale_ = 1.0;

  /// Both memos live and die with the epoch: a new epoch starts with only
  /// the label states its mutation seeded, and builds its own features.
  mutable BuildOnceMemo<LabelKey, ExactLabelState> states_;
  mutable BuildOnceMemo<ZoneFeatureKey, ml::Matrix> features_;
};

/// Everything store::LoadSnapshot recovers from disk: the ingredients of a
/// ScenarioStore that skips the offline cold build. The city is already in
/// its final shared_ptr home because the offline state's feature extractor
/// points into it — moving the city after building the extractor would
/// dangle that pointer.
struct RestoredScenario {
  std::shared_ptr<const synth::City> city;
  std::vector<synth::Poi> pois;
  std::shared_ptr<const OfflineState> offline;
  std::vector<std::pair<LabelKey, std::shared_ptr<const ExactLabelState>>>
      label_states;
  /// Epoch the snapshot was exported from (diagnostic only: a restored
  /// store republishes as epoch 0).
  uint64_t source_epoch = 0;
  /// POI id cursor at export time. Persisted — not recomputed from the live
  /// POIs — because removed POIs leave no trace, and reusing their ids
  /// would splice new POIs onto dead RNG streams.
  uint32_t next_poi_id = 0;
  /// Cumulative ScaleWalkSpeed factor of the exported network (1.0 when the
  /// snapshot predates its section). The restored store's walk parameters
  /// are the defaults times this scale, as they were on the exporter.
  double walk_scale = 1.0;
};

/// Owns the current scenario and serialises mutations. Readers are
/// wait-free with respect to writers apart from one pointer-load mutex.
class ScenarioStore {
 public:
  /// Takes ownership of the city; builds the offline state for `interval`
  /// and installs epoch 0 over the city's own POIs. Every patch labels
  /// its zones through `loop` (not owned; it must outlive the store's
  /// mutations and route over each patched epoch's network). AqServer
  /// passes itself, so patches lease its contexts and helpers.
  ScenarioStore(synth::City city, const gtfs::TimeInterval& interval,
                ZoneLoop& loop);

  /// Warm start from a loaded snapshot (store/snapshot.h): installs the
  /// restored scenario as epoch 0 with its label states pre-seeded,
  /// skipping the offline cold build entirely. `loop` as above.
  ScenarioStore(RestoredScenario restored, ZoneLoop& loop);

  /// The current snapshot. The returned scenario stays fully usable after
  /// any number of subsequent mutations.
  std::shared_ptr<const Scenario> Acquire() const;

  uint64_t epoch() const { return Acquire()->epoch(); }
  const synth::City& base_city() const { return *base_; }

  /// Sequence offset of epoch 0: a warm-started store restarts its local
  /// epochs at 0, but the mutation history continues where the snapshot's
  /// source left off. base_sequence() + epoch() is the store's absolute
  /// scenario sequence — the number the WAL and replication speak
  /// (wal/record.h). Cold-built stores sit at 0.
  uint64_t base_sequence() const { return base_sequence_; }

  /// The default router options with the shared connection array of the
  /// base feed injected (built once in the constructor). Per-worker
  /// Routers built from these share the array instead of rebuilding it; a
  /// disrupted epoch's scenario carries its own (Scenario::router_options).
  const router::RouterOptions& router_options() const { return router_; }

  /// What one mutation did and what it cost.
  struct MutationReport {
    uint64_t epoch = 0;  // the epoch the mutation installed
    /// AddPoi: id of the new POI; RemovePoi: the removed id; disruptions:
    /// the target route/stop id (scenario::kAllRoutes for "all").
    uint32_t poi_id = 0;
    uint32_t states_patched = 0;  // label states carried over by patching
    uint32_t states_shared = 0;   // carried over untouched (other category)
    /// Zones whose labels the patches derived again: re-aggregated from
    /// trip costs (POI edits) or relabeled (network mutations).
    uint32_t zones_relabeled = 0;
    uint32_t zones_total = 0;     // per patched state
    uint64_t spqs = 0;            // SPQs the patches routed
    double seconds = 0.0;
  };

  /// Adds a POI and installs the next epoch. Every materialised label
  /// state of the POI's category is patched incrementally.
  MutationReport AddPoi(synth::PoiCategory category,
                        const geo::Point& position);

  /// Removes a POI by id. NotFound when absent.
  util::Result<MutationReport> RemovePoi(uint32_t poi_id);

  /// The id the next AddPoi will assign. Replication validates a replayed
  /// record against this *before* applying it, so an id mismatch leaves
  /// the store untouched instead of installing a forked epoch.
  uint32_t next_poi_id() const {
    return next_poi_id_.load(std::memory_order_acquire);
  }

  /// Switches the analysis interval: rebuilds the offline structures and
  /// installs a fresh epoch. Label states are interval-dependent and are
  /// not carried over. A switch to the interval already served still
  /// installs an epoch (WAL sequences count it) but shares the offline
  /// state and carries every label state verbatim.
  MutationReport SetInterval(const gtfs::TimeInterval& interval);

  /// Applies one mutation record through the typed method of its kind —
  /// the only dispatch over wal::MutationType below the codec. The record's
  /// sequence and (for kAddPoi) poi_id are not read: AqServer checks or
  /// assigns those around the call.
  util::Result<MutationReport> Apply(const wal::MutationRecord& record);

  /// Timetable disruptions (scenario subsystem). Each builds the disrupted
  /// feed through scenario/transform.h, screens the zones that could have
  /// used a removed connection on the old timetable (scenario/impact.h),
  /// and installs the next epoch with every materialised label state
  /// patched: only the screened zones relabel, and the result is
  /// bit-identical to a full rebuild from the mutated feed (golden-tested).
  /// All-or-nothing: on any error the current epoch and network stay
  /// exactly as they were.
  util::Result<MutationReport> SuspendRoute(uint32_t route);
  util::Result<MutationReport> CloseStop(uint32_t stop);
  /// Service thinning; factor >= 2, route may be scenario::kAllRoutes.
  util::Result<MutationReport> ScaleHeadway(uint32_t route, uint32_t factor);
  /// Fare shock: relabels every zone of the generalized-cost states;
  /// journey-time states are shared verbatim (fares never enter JT).
  util::Result<MutationReport> SetFare(uint32_t route, double fare);
  /// "Snow day": scales walking speed (router walk params and isochrone ω)
  /// by `factor`, cumulatively: both become the defaults times the
  /// cumulative scale, so a snapshot that persists the scale restores the
  /// same bits. Rebuilds the offline state and relabels every zone of
  /// every materialised state.
  util::Result<MutationReport> ScaleWalkSpeed(double factor);

  /// Network stamp of the current epoch (0 until the first disruption).
  uint64_t network_version() const { return Acquire()->network_version(); }
  /// Cumulative walk-speed factor applied by ScaleWalkSpeed (persisted by
  /// snapshots).
  double walk_scale() const { return Acquire()->walk_scale(); }

  /// Serialises `scenario` — any epoch a caller still retains — plus the
  /// store's POI id cursor to `path` (store/snapshot.h format). Safe under
  /// concurrent queries and mutations: the scenario is immutable and the
  /// cursor is read atomically, so the export never takes mutation_mu_.
  util::Status ExportSnapshot(const Scenario& scenario,
                              const std::string& path) const;

  /// Convenience: exports the current epoch.
  util::Status ExportSnapshot(const std::string& path) const {
    return ExportSnapshot(*Acquire(), path);
  }

 private:
  using StatePtr = std::shared_ptr<const ExactLabelState>;

  /// One label state carried into the next epoch and what carrying it
  /// cost; a state shared verbatim costs nothing.
  struct Carried {
    StatePtr state;
    uint64_t spqs = 0;   // SPQs the patch routed
    uint32_t zones = 0;  // zones whose labels the patch derived again
  };

  /// One mutation's next epoch as its kind decides it, before anything is
  /// installed. Every field starts as the current epoch's (DraftFrom).
  struct Draft {
    std::vector<synth::Poi> pois;
    std::shared_ptr<const OfflineState> offline;
    /// The next epoch's network, the current epoch's unless the mutation
    /// built a new one; `new_network` gives it a fresh id and version.
    std::shared_ptr<const synth::City> city;
    router::RouterOptions router;
    double walk_scale = 1.0;
    bool new_network = false;
    /// Reported as MutationReport::poi_id.
    uint32_t report_id = 0;
    /// The POI id cursor after the mutation; committed with the epoch, so
    /// a mutation that fails never uses up an id.
    uint32_t next_poi_id = 0;
    /// Carries one materialised label state into `next`: returns
    /// `{parent}` to share it verbatim, or its patched copy with what the
    /// patch cost. Empty: no state is carried (an interval switch).
    std::function<Carried(const Scenario& next, const LabelKey& key,
                          const StatePtr& parent)>
        carry;
  };
  using DeriveFn = std::function<util::Result<Draft>(const Scenario&)>;

  /// The one mutation routine: under mutation_mu_, `derive` drafts the
  /// next epoch from the current one; the epoch is then built aside, every
  /// materialised label state goes through draft.carry, and the network is
  /// installed with the epoch. A derive error or a throw anywhere
  /// (failpoints included) leaves the current epoch and network untouched.
  util::Result<MutationReport> Advance(const DeriveFn& derive);
  /// The current epoch over its own network (a store keeps no other copy
  /// of the network). Caller holds mutation_mu_.
  Draft DraftFrom(const Scenario& current) const;
  /// A new network over a copy of the current city with `feed`: isochrones
  /// adopted (they never read the timetable), hop trees and features
  /// rebuilt. Caller holds mutation_mu_.
  Draft FeedDraft(const Scenario& current, gtfs::Feed feed) const;
  /// SuspendRoute / CloseStop / ScaleHeadway: screens the affected zones
  /// on the old timetable and relabels only those. Caller holds
  /// mutation_mu_.
  util::Result<Draft> TimetableDraft(
      const Scenario& current,
      util::Result<scenario::TransformResult> transformed, uint32_t target);

  /// Samples and routes only `poi`'s trips (a one-column state through
  /// the zone loop), merges them after each zone's trips in the TODAM and
  /// the trip columns, and re-aggregates the zones that gained any: one
  /// SPQ per new trip.
  Carried PatchAdd(const Scenario& next, const LabelKey& key,
                   const ExactLabelState& parent, const synth::Poi& poi);
  /// Drops the trips to the POI at `index` of the category's POIs from
  /// the TODAM and the trip columns and re-aggregates the zones that held
  /// any: no SPQ runs.
  Carried PatchRemove(const ExactLabelState& parent, uint32_t index);
  /// Carries one label state across a network mutation: the TODAM is
  /// demand-side and moves verbatim; `affected` zones relabel over
  /// `next`'s (new) network through the zone loop, one SPQ per trip.
  Carried PatchNetwork(const Scenario& next, const LabelKey& key,
                       const ExactLabelState& parent,
                       const std::vector<uint32_t>& affected);
  void Install(std::shared_ptr<const Scenario> next);

  std::shared_ptr<const synth::City> base_;
  /// Default router options bound to the base feed's connection array.
  router::RouterOptions router_;
  /// Absolute sequence of epoch 0 (the snapshot's source sequence at warm
  /// start, else 0). Immutable after construction.
  uint64_t base_sequence_ = 0;

  /// Where patches label their zones.
  ZoneLoop& zone_loop_;

  /// Serialises mutations; never held while readers run queries.
  std::mutex mutation_mu_;
  /// Next stable POI id (monotonic, never reused: a reused id would splice
  /// a new POI onto a removed POI's RNG stream). Written only by Advance's
  /// commit, under mutation_mu_; atomic so ExportSnapshot can read it
  /// without joining the writer queue.
  std::atomic<uint32_t> next_poi_id_{0};

  mutable std::mutex current_mu_;
  std::shared_ptr<const Scenario> current_;
};

}  // namespace staq::serve
