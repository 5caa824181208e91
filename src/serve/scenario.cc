#include "serve/scenario.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <numeric>

#include "core/columnar.h"
#include "router/connections.h"
#include "scenario/impact.h"
#include "store/snapshot.h"
#include "util/failpoint.h"
#include "util/stopwatch.h"

namespace staq::serve {

namespace {

/// Binds router options to `feed`: the connection array is shared when it
/// was built from `feed` (the store's base feed, once per store) and built
/// deterministically when a disruption produced a new feed, so every
/// labeling Router constructed from the options scans one immutable array.
router::RouterOptions BindConnections(router::RouterOptions options,
                                      const gtfs::Feed* feed) {
  options.connections =
      router::ConnectionArray::EnsureFor(options.connections, feed);
  return options;
}

/// Offline state for a timetable/fare mutation: isochrones depend only on
/// the road graph and walk config — never on the timetable — so the
/// parent's polygons are adopted verbatim (bit-identical to recomputing
/// them) while hop trees and features rebuild over the disrupted city.
std::shared_ptr<const OfflineState> RebuildOfflineKeepingIsochrones(
    const synth::City& city, const OfflineState& parent) {
  std::vector<geo::Polygon> polygons;
  polygons.reserve(parent.isochrones->size());
  for (uint32_t z = 0; z < parent.isochrones->size(); ++z) {
    polygons.push_back(parent.isochrones->For(z));
  }
  auto isochrones = std::make_unique<core::IsochroneSet>(
      parent.isochrones->config(), std::move(polygons));
  auto hop_trees =
      std::make_unique<core::HopTreeSet>(city, *isochrones, parent.interval);
  return std::make_shared<const OfflineState>(
      city, parent.interval, std::move(isochrones), std::move(hop_trees));
}

/// Stamps every network a store builds — including ones whose mutation
/// then fails — with an id no other network in the process shares.
uint64_t NewNetworkId() {
  static std::atomic<uint64_t> next{1};
  return next.fetch_add(1, std::memory_order_relaxed);
}

}  // namespace

std::vector<uint32_t> AllZones(size_t count) {
  std::vector<uint32_t> all(count);
  std::iota(all.begin(), all.end(), 0u);
  return all;
}

OfflineState::OfflineState(const synth::City& city,
                           const gtfs::TimeInterval& interval_in,
                           core::IsochroneConfig iso_config)
    : interval(interval_in) {
  util::Stopwatch watch;
  isochrones = std::make_unique<core::IsochroneSet>(city, iso_config);
  hop_trees = std::make_unique<core::HopTreeSet>(city, *isochrones, interval);
  features = std::make_unique<core::FeatureExtractor>(&city, isochrones.get(),
                                                      hop_trees.get());
  build_seconds = watch.ElapsedSeconds();
}

OfflineState::OfflineState(const synth::City& city,
                           const gtfs::TimeInterval& interval_in,
                           std::unique_ptr<core::IsochroneSet> isochrones_in,
                           std::unique_ptr<core::HopTreeSet> hop_trees_in)
    : interval(interval_in),
      isochrones(std::move(isochrones_in)),
      hop_trees(std::move(hop_trees_in)) {
  features = std::make_unique<core::FeatureExtractor>(&city, isochrones.get(),
                                                      hop_trees.get());
}

Scenario::Scenario(uint64_t epoch, std::shared_ptr<const synth::City> base,
                   std::vector<synth::Poi> pois,
                   std::shared_ptr<const OfflineState> offline)
    : epoch_(epoch),
      base_(std::move(base)),
      pois_(std::move(pois)),
      offline_(std::move(offline)) {}

void Scenario::SetNetwork(uint64_t version, uint64_t id,
                          const router::RouterOptions& options) {
  network_version_ = version;
  network_id_ = id;
  router_options_ = options;
}

std::vector<synth::Poi> Scenario::PoisOf(synth::PoiCategory category) const {
  std::vector<synth::Poi> out;
  for (const synth::Poi& poi : pois_) {
    if (poi.category == category) out.push_back(poi);
  }
  return out;
}

std::shared_ptr<const ExactLabelState> Scenario::BuildLabelState(
    const LabelKey& key, core::LabelingEngine* engine, ZoneLoop* loop) const {
  // Fault site: a from-scratch state build failing (models OOM / engine
  // faults). GetOrBuildLabelState must propagate this to current waiters
  // without poisoning the memo key (BuildOnceMemo::GetOrBuild).
  STAQ_FAILPOINT("serve.scenario.build_label_state");
  std::shared_ptr<ExactLabelState> state =
      NewLabelState(key, PoisOf(key.category));
  LabelZoneBlocks(loop, engine, key, state, AllZones(base_->zones.size()));
  return state;
}

core::Todam Scenario::StableTodam(const LabelKey& key,
                                  const std::vector<synth::Poi>& pois,
                                  std::vector<double>* zone_norm) const {
  std::vector<double> norm = core::StableGravityNorms(
      base_->zones, base_->PoisOf(key.category), key.gravity.decay_scale_m);
  core::TodamBuilder builder(base_->zones, pois, interval(), key.gravity);
  core::Todam todam = builder.BuildGravityStable(key.seed, norm);
  if (zone_norm != nullptr) *zone_norm = std::move(norm);
  return todam;
}

std::shared_ptr<ExactLabelState> Scenario::NewLabelState(
    const LabelKey& key, std::vector<synth::Poi> pois) const {
  auto state = std::make_shared<ExactLabelState>();
  state->pois = std::move(pois);
  state->todam = StableTodam(key, state->pois, &state->zone_norm);
  state->labels.resize(base_->zones.size());
  return state;
}

void Scenario::LabelZoneBlocks(
    ZoneLoop* loop, core::LabelingEngine* engine, const LabelKey& key,
    const std::shared_ptr<ExactLabelState>& state, std::vector<uint32_t> zones,
    const std::shared_ptr<core::TripCostColumns>& capture) const {
  const gtfs::Day day = interval().day;
  // The body owns what it touches (ZoneLoop contract).
  auto shared_zones =
      std::make_shared<const std::vector<uint32_t>>(std::move(zones));
  if (capture != nullptr) {
    // Every range is opened up front, so each block is captured into
    // columns of its own on any participant and stored into its entries'
    // ranges (consecutive entries, so one contiguous copy).
    for (uint32_t z : *shared_zones) {
      capture->AppendZone(state->todam.TripsFor(z).size());
    }
  }
  const ZoneLoopBody label_block =
      [state, key, day, shared_zones, capture](
          core::LabelingEngine& labeler, size_t i) -> std::function<void()> {
    const size_t first = i * core::kZoneBlock;
    const size_t n = std::min(core::kZoneBlock, shared_zones->size() - first);
    labeler.set_gac_weights(key.gac);
    std::vector<core::ZoneLabel> labels(n);
    auto block = capture != nullptr ? std::make_shared<core::TripCostColumns>()
                                    : nullptr;
    labeler.LabelBlock(state->todam, shared_zones->data() + first, n,
                       state->pois, key.cost, day, labels.data(), block.get());
    return [state, shared_zones, first, labels = std::move(labels), capture,
            block] {
      for (size_t b = 0; b < labels.size(); ++b) {
        state->labels[(*shared_zones)[first + b]] = labels[b];
      }
      if (capture != nullptr) {
        capture->StoreZone(capture->zone_offsets[first], *block);
      }
    };
  };
  const size_t num_blocks = core::NumZoneBlocks(shared_zones->size());
  if (loop != nullptr) {
    loop->Run(*this, engine, num_blocks, label_block);
  } else {
    for (size_t i = 0; i < num_blocks; ++i) label_block(*engine, i)();
  }
  // One SPQ per TODAM trip, whichever engine answered it.
  state->build_spqs = 0;
  for (uint32_t z : *shared_zones) {
    state->build_spqs += state->labels[z].num_trips;
  }
  state->relabeled_zones = static_cast<uint32_t>(shared_zones->size());
}

std::shared_ptr<const ExactLabelState> Scenario::GetOrBuildLabelState(
    const LabelKey& key, core::LabelingEngine* engine, bool* built_fresh,
    ZoneLoop* loop) const {
  return states_.GetOrBuild(
      key, [&] { return BuildLabelState(key, engine, loop); }, built_fresh);
}

std::string ZoneFeatureKey::Canonical() const {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "cat=%d|decay=%.17g",
                static_cast<int>(category), decay_scale_m);
  return buf;
}

std::shared_ptr<const ml::Matrix> Scenario::GetOrBuildZoneFeatures(
    const ZoneFeatureKey& key, const std::vector<std::vector<double>>& alpha,
    bool* built_fresh) const {
  return features_.GetOrBuild(
      key,
      [&] {
        // Fault site: a feature build failing (models OOM). Every waiter
        // must fail with it and the key must stay buildable.
        STAQ_FAILPOINT("serve.scenario.build_zone_features");
        return std::make_shared<const ml::Matrix>(
            offline_->features->ExtractZoneMatrix(PoisOf(key.category),
                                                  alpha));
      },
      built_fresh);
}

std::vector<std::pair<LabelKey, std::shared_ptr<const ExactLabelState>>>
Scenario::MaterializedStates() const {
  return states_.Ready();
}

void Scenario::SeedLabelState(const LabelKey& key,
                              std::shared_ptr<const ExactLabelState> state) {
  states_.Seed(key, std::move(state));
}

ScenarioStore::ScenarioStore(synth::City city,
                             const gtfs::TimeInterval& interval,
                             Options options)
    : base_(std::make_shared<const synth::City>(std::move(city))),
      options_{options.iso,
               BindConnections(std::move(options.router), &base_->feed)},
      network_city_(base_),
      network_router_(options_.router),
      network_iso_(options_.iso),
      network_id_(NewNetworkId()) {
  auto offline =
      std::make_shared<const OfflineState>(*base_, interval, options_.iso);
  auto scenario = std::make_shared<Scenario>(/*epoch=*/0, base_, base_->pois,
                                             std::move(offline));
  scenario->SetNetwork(network_version_, network_id_, network_router_);
  current_ = std::move(scenario);
  for (const synth::Poi& poi : base_->pois) {
    if (poi.id >= next_poi_id_) next_poi_id_ = poi.id + 1;
  }
}

ScenarioStore::ScenarioStore(RestoredScenario restored, Options options)
    : base_(std::move(restored.city)),
      options_{options.iso,
               BindConnections(std::move(options.router), &base_->feed)},
      network_city_(base_),
      network_router_(options_.router),
      network_iso_(options_.iso),
      network_id_(NewNetworkId()) {
  auto scenario = std::make_shared<Scenario>(/*epoch=*/0, base_,
                                             std::move(restored.pois),
                                             std::move(restored.offline));
  scenario->SetNetwork(network_version_, network_id_, network_router_);
  for (auto& [key, state] : restored.label_states) {
    scenario->SeedLabelState(key, std::move(state));
  }
  // The persisted cursor is authoritative (removed POIs must stay retired),
  // but never hand out an id a live POI already holds.
  uint32_t next_id = restored.next_poi_id;
  for (const synth::Poi& poi : scenario->pois()) {
    if (poi.id >= next_id) next_id = poi.id + 1;
  }
  next_poi_id_ = next_id;
  base_sequence_ = restored.source_epoch;
  current_ = std::move(scenario);
}

util::Status ScenarioStore::ExportSnapshot(const Scenario& scenario,
                                           const std::string& path) const {
  // The persisted sequence is absolute so a chain snapshot -> mutate ->
  // snapshot keeps counting instead of restarting at the local epoch.
  return store::SaveSnapshot(scenario, next_poi_id_.load(), path,
                             base_sequence_);
}

std::shared_ptr<const Scenario> ScenarioStore::Acquire() const {
  std::lock_guard<std::mutex> lock(current_mu_);
  return current_;
}

void ScenarioStore::Install(std::shared_ptr<const Scenario> next) {
  std::lock_guard<std::mutex> lock(current_mu_);
  current_ = std::move(next);
}

ScenarioStore::StatePtr ScenarioStore::PatchAdd(
    const Scenario& next, const LabelKey& key, const ExactLabelState& parent,
    const synth::Poi& poi) {
  // Fault site: the TODAM column patch failing before the parent state is
  // copied into. The parent is immutable, so an abort here is free.
  STAQ_FAILPOINT("serve.scenario.patch_add");
  auto state = std::make_shared<ExactLabelState>(parent);
  state->pois.push_back(poi);
  const uint32_t new_index = static_cast<uint32_t>(state->pois.size() - 1);

  // Sample only the new POI's column. Every other pair's RNG stream is
  // keyed by its own stable id, so the rest of the TODAM is untouched.
  std::vector<uint32_t> affected;
  state->todam.AppendStablePoiColumn(base_->zones, poi, new_index,
                                     state->zone_norm, key.gravity,
                                     next.interval(), key.seed, &affected);

  // Fault site: relabeling the affected zones failing mid-mutation. Only
  // the un-installed copy is damaged; the store never publishes it.
  STAQ_FAILPOINT("serve.scenario.relabel");
  Relabel(next, key, std::move(affected), state);
  return state;
}

ScenarioStore::StatePtr ScenarioStore::PatchRemove(
    const Scenario& next, const LabelKey& key, const ExactLabelState& parent,
    uint32_t poi_id) {
  // Fault site: mirror of serve.scenario.patch_add for the remove path.
  STAQ_FAILPOINT("serve.scenario.patch_remove");
  auto state = std::make_shared<ExactLabelState>(parent);
  auto it = std::find_if(
      state->pois.begin(), state->pois.end(),
      [poi_id](const synth::Poi& p) { return p.id == poi_id; });
  if (it == state->pois.end()) {
    // Carried-over states must contain every scenario POI of their
    // category; proceeding would erase(end()) and corrupt the TODAM.
    std::fprintf(stderr,
                 "PatchRemove: POI %u absent from parent label state\n",
                 poi_id);
    std::abort();
  }
  const uint32_t index = static_cast<uint32_t>(it - state->pois.begin());
  state->pois.erase(it);

  std::vector<uint32_t> affected;
  state->todam.RemovePoiColumn(index, &affected);

  STAQ_FAILPOINT("serve.scenario.relabel");
  Relabel(next, key, std::move(affected), state);
  return state;
}

ScenarioStore::StatePtr ScenarioStore::PatchNetwork(
    const Scenario& next, const LabelKey& key, const ExactLabelState& parent,
    const std::vector<uint32_t>& affected) {
  // The TODAM is demand-side (zones x POIs x interval) and carries over
  // verbatim; only the screened zones resolve their trips again, over the
  // new network. Zones outside `affected` could never have used a removed
  // connection, so their labels are already the exact labels of the
  // mutated feed.
  auto state = std::make_shared<ExactLabelState>(parent);
  Relabel(next, key, affected, state);
  return state;
}

void ScenarioStore::Relabel(const Scenario& next, const LabelKey& key,
                            std::vector<uint32_t> zones,
                            const std::shared_ptr<ExactLabelState>& state) {
  next.LabelZoneBlocks(zone_loop_,
                       zone_loop_ != nullptr ? nullptr : &SerialEngine(next),
                       key, state, std::move(zones));
}

core::LabelingEngine& ScenarioStore::SerialEngine(const Scenario& next) {
  if (serial_engine_ == nullptr || serial_network_id_ != next.network_id()) {
    serial_engine_.reset();  // built over the old router
    serial_city_ = next.city_ptr();
    serial_router_ = std::make_unique<router::Router>(&serial_city_->feed,
                                                      next.router_options());
    serial_engine_ = std::make_unique<core::LabelingEngine>(
        serial_city_.get(), serial_router_.get());
    serial_network_id_ = next.network_id();
  }
  return *serial_engine_;
}

util::Result<ScenarioStore::MutationReport> ScenarioStore::Advance(
    const DeriveFn& derive) {
  std::lock_guard<std::mutex> mutation(mutation_mu_);
  util::Stopwatch watch;
  auto current = Acquire();
  util::Result<Draft> drafted = derive(*current);
  if (!drafted.ok()) return drafted.status();
  Draft& draft = drafted.value();
  if (draft.new_network) {
    // Fault site: the network patch failing before any label state is
    // carried. Everything so far is built aside, so an abort here (or in
    // any patch below) leaves the current epoch and network untouched.
    STAQ_FAILPOINT("serve.scenario.patch_network");
  }
  const uint64_t version = network_version_ + (draft.new_network ? 1 : 0);
  const uint64_t network_id = draft.new_network ? NewNetworkId() : network_id_;
  auto next = std::make_shared<Scenario>(current->epoch() + 1, draft.city,
                                         std::move(draft.pois),
                                         std::move(draft.offline));
  next->SetNetwork(version, network_id, draft.router);

  MutationReport report;
  report.epoch = next->epoch();
  report.poi_id = draft.report_id;
  report.zones_total = static_cast<uint32_t>(base_->zones.size());
  if (draft.carry) {
    for (const auto& [key, state] : current->MaterializedStates()) {
      StatePtr carried = draft.carry(*next, key, state);
      if (carried == state) {
        ++report.states_shared;
      } else {
        report.spqs += carried->build_spqs;
        report.zones_relabeled += carried->relabeled_zones;
        ++report.states_patched;
      }
      next->SeedLabelState(key, std::move(carried));
    }
  }

  // Commit: every patch succeeded, so the epoch's network (the current one
  // unless the draft built a new one) becomes the store's current network
  // in the same breath as the epoch install.
  network_city_ = std::move(draft.city);
  network_router_ = std::move(draft.router);
  network_iso_ = draft.iso;
  walk_scale_.store(draft.walk_scale, std::memory_order_release);
  network_id_ = network_id;
  network_version_ = version;
  next_poi_id_.store(draft.next_poi_id, std::memory_order_release);
  Install(std::move(next));
  report.seconds = watch.ElapsedSeconds();
  return report;
}

ScenarioStore::Draft ScenarioStore::DraftFrom(const Scenario& current) const {
  Draft draft;
  draft.pois = current.pois();
  draft.offline = current.offline_ptr();
  draft.city = network_city_;
  draft.router = network_router_;
  draft.iso = network_iso_;
  draft.walk_scale = walk_scale_.load(std::memory_order_relaxed);
  draft.next_poi_id = next_poi_id_.load(std::memory_order_relaxed);
  return draft;
}

ScenarioStore::Draft ScenarioStore::FeedDraft(const Scenario& current,
                                              gtfs::Feed feed) const {
  Draft draft = DraftFrom(current);
  synth::City disrupted = *network_city_;
  disrupted.feed = std::move(feed);
  draft.city = std::make_shared<const synth::City>(std::move(disrupted));
  draft.router = BindConnections(network_router_, &draft.city->feed);
  draft.offline = RebuildOfflineKeepingIsochrones(*draft.city,
                                                  current.offline());
  draft.new_network = true;
  return draft;
}

util::Result<ScenarioStore::MutationReport> ScenarioStore::Apply(
    const wal::MutationRecord& record) {
  switch (record.type) {
    case wal::MutationType::kAddPoi:
      return AddPoi(record.category, record.position);
    case wal::MutationType::kRemovePoi:
      return RemovePoi(record.poi_id);
    case wal::MutationType::kSetInterval:
      return SetInterval(record.interval);
    // Disruption replay: the records carry resolved ids, and every
    // transform plus the affected-zone screen is a pure function of the
    // current feed, so replicas install bit-identical epochs.
    case wal::MutationType::kSuspendRoute:
      return SuspendRoute(record.target);
    case wal::MutationType::kCloseStop:
      return CloseStop(record.target);
    case wal::MutationType::kScaleHeadway:
      return ScaleHeadway(record.target, record.factor);
    case wal::MutationType::kSetFare:
      return SetFare(record.target, record.value);
    case wal::MutationType::kScaleWalkSpeed:
      return ScaleWalkSpeed(record.value);
  }
  return util::Status::InvalidArgument("unknown mutation type");
}

ScenarioStore::MutationReport ScenarioStore::AddPoi(
    synth::PoiCategory category, const geo::Point& position) {
  return Advance([&](const Scenario& current) -> util::Result<Draft> {
           Draft draft = DraftFrom(current);
           synth::Poi poi;
           poi.id = draft.next_poi_id++;
           poi.category = category;
           poi.position = position;
           draft.pois.push_back(poi);
           draft.report_id = poi.id;
           draft.carry = [this, poi](const Scenario& next, const LabelKey& key,
                                     const StatePtr& parent) -> StatePtr {
             if (key.category != poi.category) return parent;
             return PatchAdd(next, key, *parent, poi);
           };
           return draft;
         })
      .value();
}

util::Result<ScenarioStore::MutationReport> ScenarioStore::RemovePoi(
    uint32_t poi_id) {
  return Advance([&](const Scenario& current) -> util::Result<Draft> {
    auto it = std::find_if(
        current.pois().begin(), current.pois().end(),
        [poi_id](const synth::Poi& p) { return p.id == poi_id; });
    if (it == current.pois().end()) {
      return util::Status::NotFound("no POI with id " +
                                    std::to_string(poi_id));
    }
    Draft draft = DraftFrom(current);
    draft.pois.erase(draft.pois.begin() + (it - current.pois().begin()));
    draft.report_id = poi_id;
    draft.carry = [this, poi_id, category = it->category](
                      const Scenario& next, const LabelKey& key,
                      const StatePtr& parent) -> StatePtr {
      if (key.category != category) return parent;
      return PatchRemove(next, key, *parent, poi_id);
    };
    return draft;
  });
}

ScenarioStore::MutationReport ScenarioStore::SetInterval(
    const gtfs::TimeInterval& interval) {
  return Advance([&](const Scenario& current) -> util::Result<Draft> {
           // Label states are interval-dependent: none is carried.
           Draft draft = DraftFrom(current);
           draft.offline = std::make_shared<const OfflineState>(
               *draft.city, interval, draft.iso);
           return draft;
         })
      .value();
}

util::Result<ScenarioStore::Draft> ScenarioStore::TimetableDraft(
    const Scenario& current,
    util::Result<scenario::TransformResult> transformed, uint32_t target) {
  if (!transformed.ok()) return transformed.status();
  // Screen on the OLD timetable: only zones that could have reached a
  // removed departure event can change label.
  const router::WalkTable walk(&network_city_->feed, network_router_.walk);
  scenario::ImpactInputs impact;
  impact.city = network_city_.get();
  impact.feed = &network_city_->feed;
  impact.walk = &walk;
  impact.interval = current.interval();
  impact.removed_trips = std::move(transformed.value().removed_trips);
  impact.closed_stop = transformed.value().closed_stop;
  std::vector<uint32_t> affected = scenario::AffectedZones(impact);

  Draft draft = FeedDraft(current, std::move(transformed.value().feed));
  draft.report_id = target;
  draft.carry = [this, affected = std::move(affected)](
                    const Scenario& next, const LabelKey& key,
                    const StatePtr& parent) {
    return PatchNetwork(next, key, *parent, affected);
  };
  return draft;
}

util::Result<ScenarioStore::MutationReport> ScenarioStore::SuspendRoute(
    uint32_t route) {
  return Advance([&](const Scenario& current) {
    return TimetableDraft(
        current, scenario::SuspendRoute(network_city_->feed, route), route);
  });
}

util::Result<ScenarioStore::MutationReport> ScenarioStore::CloseStop(
    uint32_t stop) {
  return Advance([&](const Scenario& current) {
    return TimetableDraft(current,
                          scenario::CloseStop(network_city_->feed, stop), stop);
  });
}

util::Result<ScenarioStore::MutationReport> ScenarioStore::ScaleHeadway(
    uint32_t route, uint32_t factor) {
  return Advance([&](const Scenario& current) {
    return TimetableDraft(
        current, scenario::ScaleHeadway(network_city_->feed, route, factor),
        route);
  });
}

util::Result<ScenarioStore::MutationReport> ScenarioStore::SetFare(
    uint32_t route, double fare) {
  return Advance([&](const Scenario& current) -> util::Result<Draft> {
    auto feed = scenario::SetFlatFare(network_city_->feed, route, fare);
    if (!feed.ok()) return feed.status();
    Draft draft = FeedDraft(current, std::move(feed).value());
    draft.report_id = route;
    // Fares enter GAC only: journey-time states are shared verbatim (their
    // rebuild over the new feed would reproduce the same bits), while every
    // generalized-cost state relabels all zones — any trip may board the
    // repriced route mid-journey, so no cheaper screen is sound.
    draft.carry = [this, all = AllZones(base_->zones.size())](
                      const Scenario& next, const LabelKey& key,
                      const StatePtr& parent) -> StatePtr {
      if (key.cost != core::CostKind::kGeneralizedCost) return parent;
      return PatchNetwork(next, key, *parent, all);
    };
    return draft;
  });
}

util::Result<ScenarioStore::MutationReport> ScenarioStore::ScaleWalkSpeed(
    double factor) {
  return Advance([&](const Scenario& current) -> util::Result<Draft> {
    if (!(factor > 0.0) || !std::isfinite(factor)) {
      return util::Status::InvalidArgument(
          "walk-speed factor must be positive and finite");
    }
    // Same city and feed (the connection array is shared); only the walk
    // parameters change — the router's walk table and the isochrone speed ω
    // scale together so online routing and the offline reachability
    // structures describe the same pedestrian.
    Draft draft = DraftFrom(current);
    draft.router.walk.speed_mps *= factor;
    draft.iso.omega_kph *= factor;
    draft.walk_scale *= factor;
    // The isochrone config changed, so this is a full offline build.
    draft.offline = std::make_shared<const OfflineState>(
        *draft.city, current.interval(), draft.iso);
    draft.new_network = true;
    // Every journey has walk legs, so every zone of every state relabels.
    draft.carry = [this, all = AllZones(base_->zones.size())](
                      const Scenario& next, const LabelKey& key,
                      const StatePtr& parent) {
      return PatchNetwork(next, key, *parent, all);
    };
    return draft;
  });
}

}  // namespace staq::serve
