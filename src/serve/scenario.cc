#include "serve/scenario.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
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
/// parent's set is shared (bit-identical to recomputing it) while hop
/// trees and features rebuild over the disrupted city.
std::shared_ptr<const OfflineState> RebuildOfflineKeepingIsochrones(
    const synth::City& city, const OfflineState& parent) {
  auto hop_trees = std::make_unique<core::HopTreeSet>(
      city, *parent.isochrones, parent.interval);
  return std::make_shared<const OfflineState>(
      city, parent.interval, parent.isochrones, std::move(hop_trees));
}

/// A POI patch's starting point: `parent`'s labels. The patch builds the
/// TODAM and trip columns and re-derives the labels of the zones it edits.
std::shared_ptr<ExactLabelState> PatchBase(const ExactLabelState& parent) {
  auto state = std::make_shared<ExactLabelState>();
  state->labels = parent.labels;
  return state;
}

/// The isochrone config of a network walking at `walk_scale` times the
/// default speed: ω scales with the router's walk speed.
core::IsochroneConfig IsochronesAt(double walk_scale) {
  core::IsochroneConfig config;
  config.omega_kph *= walk_scale;
  return config;
}

/// Stamps every network a store builds — including ones whose mutation
/// then fails — with an id no other network in the process shares.
uint64_t NewNetworkId() {
  static std::atomic<uint64_t> next{1};
  return next.fetch_add(1, std::memory_order_relaxed);
}

}  // namespace

void SerialZoneLoop::Run(const Scenario& scenario, size_t n,
                         const ZoneLoopBody& body) {
  core::LabelingEngine* engine = engine_;
  if (engine == nullptr) {
    if (own_ == nullptr || own_->network_id != scenario.network_id()) {
      own_.reset();  // its engine routes over the old network
      own_ = std::make_unique<OwnEngine>(scenario.city_ptr(),
                                         scenario.router_options(),
                                         scenario.network_id());
    }
    engine = &own_->engine;
  }
  for (size_t i = 0; i < n; ++i) body(*engine, i)();
}

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
  isochrones = std::make_shared<const core::IsochroneSet>(city, iso_config);
  hop_trees = std::make_unique<core::HopTreeSet>(city, *isochrones, interval);
  features = std::make_unique<core::FeatureExtractor>(&city, isochrones.get(),
                                                      hop_trees.get());
  build_seconds = watch.ElapsedSeconds();
}

OfflineState::OfflineState(
    const synth::City& city, const gtfs::TimeInterval& interval_in,
    std::shared_ptr<const core::IsochroneSet> isochrones_in,
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
                          const router::RouterOptions& options,
                          double walk_scale) {
  network_version_ = version;
  network_id_ = id;
  router_options_ = options;
  walk_scale_ = walk_scale;
}

std::shared_ptr<ExactLabelState> ExactLabelState::Unlabeled(
    core::Todam todam) {
  auto state = std::make_shared<ExactLabelState>();
  state->todam = std::move(todam);
  state->todam.DropAlpha();
  state->trip_flags.assign(state->todam.num_trips(), 0);
  state->trip_costs.assign(state->todam.num_trips(), 0.0);
  state->labels.resize(state->todam.num_zones());
  return state;
}

void ExactLabelState::AggregateZones(const std::vector<uint32_t>& zones) {
  for (uint32_t z : zones) {
    core::AggregateZoneLabels(&todam.offsets()[z], 1, trip_flags.data(),
                              trip_costs.data(), &labels[z]);
  }
}

std::vector<synth::Poi> Scenario::PoisOf(synth::PoiCategory category) const {
  std::vector<synth::Poi> out;
  for (const synth::Poi& poi : pois_) {
    if (poi.category == category) out.push_back(poi);
  }
  return out;
}

std::shared_ptr<const ExactLabelState> Scenario::BuildLabelState(
    const LabelKey& key, ZoneLoop& loop) const {
  // Fault site: a from-scratch state build failing (models OOM / engine
  // faults). GetOrBuildLabelState must propagate this to current waiters
  // without poisoning the memo key (BuildOnceMemo::GetOrBuild).
  STAQ_FAILPOINT("serve.scenario.build_label_state");
  auto state =
      ExactLabelState::Unlabeled(StableTodam(key, PoisOf(key.category)));
  LabelZoneBlocks(loop, key, state, AllZones(base_->zones.size()));
  return state;
}

core::Todam Scenario::StableTodam(const LabelKey& key,
                                  const std::vector<synth::Poi>& pois) const {
  const auto norms = offline_->gravity_norms.GetOrBuild(
      ZoneFeatureKey{key.category, key.gravity.decay_scale_m}, [&] {
        return std::make_shared<const std::vector<double>>(
            core::StableGravityNorms(base_->zones, base_->PoisOf(key.category),
                                     key.gravity.decay_scale_m));
      });
  return core::TodamBuilder(base_->zones, pois, interval(), key.gravity)
      .BuildGravityStable(key.seed, *norms);
}

void Scenario::LabelZoneBlocks(
    ZoneLoop& loop, const LabelKey& key,
    const std::shared_ptr<ExactLabelState>& state, std::vector<uint32_t> zones,
    const std::shared_ptr<core::TripCostColumns>& capture) const {
  const gtfs::Day day = interval().day;
  // The body owns what it touches (ZoneLoop contract).
  auto pois =
      std::make_shared<const std::vector<synth::Poi>>(PoisOf(key.category));
  auto shared_zones =
      std::make_shared<const std::vector<uint32_t>>(std::move(zones));
  if (capture != nullptr) {
    // Every range is opened up front, so each block's columns are copied
    // off its participant's engine and stored into its entries' ranges
    // (consecutive entries, so one contiguous copy).
    for (uint32_t z : *shared_zones) {
      capture->AppendZone(state->todam.TripsFor(z).size());
    }
  }
  const ZoneLoopBody label_block =
      [state, key, day, pois, shared_zones, capture](
          core::LabelingEngine& labeler, size_t i) -> std::function<void()> {
    const size_t first = i * core::kZoneBlock;
    const size_t n = std::min(core::kZoneBlock, shared_zones->size() - first);
    labeler.set_gac_weights(key.gac);
    std::vector<core::ZoneLabel> labels(n);
    labeler.LabelBlock(state->todam, shared_zones->data() + first, n,
                       *pois, key.cost, day, labels.data());
    auto block = capture != nullptr ? std::make_shared<core::TripCostColumns>(
                                          labeler.block_columns())
                                    : nullptr;
    return [state, shared_zones, first, labels = std::move(labels), capture,
            block, costs = labeler.block_costs(),
            flags = labeler.block_columns().flags] {
      // The block's trips are its zones' ranges back to back.
      size_t trip = 0;
      for (size_t b = 0; b < labels.size(); ++b) {
        const uint32_t z = (*shared_zones)[first + b];
        state->labels[z] = labels[b];
        const size_t begin = state->todam.offsets()[z];
        const size_t count = state->todam.offsets()[z + 1] - begin;
        std::copy_n(costs.begin() + trip, count,
                    state->trip_costs.begin() + begin);
        std::copy_n(flags.begin() + trip, count,
                    state->trip_flags.begin() + begin);
        trip += count;
      }
      if (capture != nullptr) {
        capture->StoreZone(capture->zone_offsets[first], *block);
      }
    };
  };
  loop.Run(*this, core::NumZoneBlocks(shared_zones->size()), label_block);
}

util::Result<core::PipelineResult> Scenario::AnswerSsr(
    ZoneLoop& loop, synth::PoiCategory category, const core::Todam& todam,
    const core::PipelineConfig& config, const ml::Matrix* features,
    util::ThreadPool* fit_helpers) const {
  auto drawn = core::DrawSsrSample(*base_, *offline_->features,
                                   PoisOf(category), todam, config, features);
  if (!drawn.ok()) return drawn.status();
  core::SsrSample& sample = drawn.value();

  // The sample labels like an exact build, over its own zones' trips.
  const std::vector<uint32_t>& labeled = sample.result.labeled;
  std::vector<uint8_t> in_sample(todam.num_zones(), 0);
  for (uint32_t z : labeled) in_sample[z] = 1;
  std::vector<size_t> offsets = {0};
  std::vector<core::TripEntry> trips;
  for (uint32_t z = 0; z < todam.num_zones(); ++z) {
    if (in_sample[z]) {
      const std::span<const core::TripEntry> zone_trips = todam.TripsFor(z);
      trips.insert(trips.end(), zone_trips.begin(), zone_trips.end());
    }
    offsets.push_back(trips.size());
  }
  auto state = ExactLabelState::Unlabeled(
      core::Todam::FromParts(std::move(offsets), std::move(trips), {}));
  LabelKey key;
  key.category = category;
  key.cost = config.cost;
  key.gac = config.gac;
  util::Stopwatch watch;
  LabelZoneBlocks(loop, key, state, labeled);
  sample.result.timings.labeling_s = watch.ElapsedSeconds();
  sample.result.spqs = state->todam.num_trips();  // one SPQ per trip
  std::vector<core::ZoneLabel> labels;
  for (uint32_t z : labeled) labels.push_back(state->labels[z]);

  // Fault site (tests): an SSR answer parked between labeling and fit.
  STAQ_FAILPOINT("serve.ssr.fit");
  return core::FitSsr(std::move(sample), labels, config, fit_helpers);
}

std::shared_ptr<const ExactLabelState> Scenario::GetOrBuildLabelState(
    const LabelKey& key, ZoneLoop& loop, bool* built_fresh) const {
  return states_.GetOrBuild(
      key, [&] { return BuildLabelState(key, loop); }, built_fresh);
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
                             ZoneLoop& loop)
    : base_(std::make_shared<const synth::City>(std::move(city))),
      router_(BindConnections({}, &base_->feed)),
      zone_loop_(loop) {
  auto offline = std::make_shared<const OfflineState>(*base_, interval);
  auto scenario = std::make_shared<Scenario>(/*epoch=*/0, base_, base_->pois,
                                             std::move(offline));
  scenario->SetNetwork(/*version=*/0, NewNetworkId(), router_,
                       /*walk_scale=*/1.0);
  current_ = std::move(scenario);
  for (const synth::Poi& poi : base_->pois) {
    if (poi.id >= next_poi_id_) next_poi_id_ = poi.id + 1;
  }
}

ScenarioStore::ScenarioStore(RestoredScenario restored, ZoneLoop& loop)
    : base_(std::move(restored.city)),
      router_(BindConnections({}, &base_->feed)),
      zone_loop_(loop) {
  // The exporter walked at the defaults times the cumulative scale; so
  // does this store (ScaleWalkSpeed derives the walk speed the same way).
  const double walk_scale = restored.walk_scale;
  router::RouterOptions network_router = router_;
  network_router.walk.speed_mps = router_.walk.speed_mps * walk_scale;
  auto scenario = std::make_shared<Scenario>(/*epoch=*/0, base_,
                                             std::move(restored.pois),
                                             std::move(restored.offline));
  scenario->SetNetwork(/*version=*/0, NewNetworkId(), network_router,
                       walk_scale);
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

ScenarioStore::Carried ScenarioStore::PatchAdd(
    const Scenario& next, const LabelKey& key, const ExactLabelState& parent,
    const synth::Poi& poi) {
  // Fault site: the TODAM column patch failing before the parent state is
  // copied into. The parent is immutable, so an abort here is free.
  STAQ_FAILPOINT("serve.scenario.patch_add");
  std::shared_ptr<ExactLabelState> state = PatchBase(parent);

  // The new POI's column as a state of its own: the edit-stable TODAM over
  // {poi}. Every pair's RNG stream is keyed by its POI's stable id, so
  // these are exactly the trips a from-scratch build draws for the POI,
  // and no other column changes. Its trips point at the POI's index in
  // `next`'s category list: the last one, because ids only grow.
  const core::Todam drawn = next.StableTodam(key, {poi});
  std::vector<core::TripEntry> drawn_trips = drawn.trips();
  const auto new_index =
      static_cast<uint32_t>(next.PoisOf(key.category).size() - 1);
  for (core::TripEntry& trip : drawn_trips) trip.poi = new_index;
  auto column = ExactLabelState::Unlabeled(
      core::Todam::FromParts(drawn.offsets(), std::move(drawn_trips), {}));
  std::vector<uint32_t> affected;
  for (uint32_t z = 0; z < column->todam.num_zones(); ++z) {
    if (!column->todam.TripsFor(z).empty()) affected.push_back(z);
  }

  // Fault site: labeling the new trips failing mid-mutation. Only the
  // un-installed copies are damaged; the store never publishes them.
  STAQ_FAILPOINT("serve.scenario.relabel");
  // A trip's journey does not depend on its lane's other targets, so each
  // new trip's cost equals the one a full build would route.
  next.LabelZoneBlocks(zone_loop_, key, column, affected);

  // One merge pass: each zone's trips are its parent's, then the column's
  // (the new POI comes last in scenario order), and so are their columns.
  const size_t total = parent.todam.num_trips() + column->todam.num_trips();
  std::vector<size_t> offsets = {0};
  offsets.reserve(parent.todam.offsets().size());
  std::vector<core::TripEntry> trips;
  trips.reserve(total);
  state->trip_flags.reserve(total);
  state->trip_costs.reserve(total);
  const auto append_columns = [&state](const ExactLabelState& from,
                                       uint32_t z) {
    const size_t begin = from.todam.offsets()[z];
    const size_t end = from.todam.offsets()[z + 1];
    state->trip_flags.insert(state->trip_flags.end(),
                             from.trip_flags.begin() + begin,
                             from.trip_flags.begin() + end);
    state->trip_costs.insert(state->trip_costs.end(),
                             from.trip_costs.begin() + begin,
                             from.trip_costs.begin() + end);
  };
  for (uint32_t z = 0; z < parent.todam.num_zones(); ++z) {
    const std::span<const core::TripEntry> kept = parent.todam.TripsFor(z);
    trips.insert(trips.end(), kept.begin(), kept.end());
    append_columns(parent, z);
    const std::span<const core::TripEntry> added = column->todam.TripsFor(z);
    trips.insert(trips.end(), added.begin(), added.end());
    append_columns(*column, z);
    offsets.push_back(trips.size());
  }
  state->todam =
      core::Todam::FromParts(std::move(offsets), std::move(trips), {});
  state->AggregateZones(affected);
  return {state, column->todam.num_trips(),
          static_cast<uint32_t>(affected.size())};
}

ScenarioStore::Carried ScenarioStore::PatchRemove(
    const ExactLabelState& parent, uint32_t index) {
  // Fault site: mirror of serve.scenario.patch_add for the remove path.
  STAQ_FAILPOINT("serve.scenario.patch_remove");
  std::shared_ptr<ExactLabelState> state = PatchBase(parent);

  // Fault site: re-deriving the affected zones failing mid-mutation.
  STAQ_FAILPOINT("serve.scenario.relabel");
  // One flat pass drops the POI's trips from the TODAM and both columns
  // and shifts higher POI indices down by one, as the POI's erase from
  // the category list does.
  // Every surviving trip keeps its cost, so no SPQ runs; the zones that
  // lost a trip re-aggregate.
  const std::vector<core::TripEntry>& from = parent.todam.trips();
  const auto dropped = [index](const core::TripEntry& t) {
    return t.poi == index;
  };
  const size_t kept = from.size() - static_cast<size_t>(std::count_if(
                                        from.begin(), from.end(), dropped));
  std::vector<size_t> offsets = {0};
  offsets.reserve(parent.todam.offsets().size());
  std::vector<core::TripEntry> trips;
  trips.reserve(kept);
  state->trip_flags.reserve(kept);
  state->trip_costs.reserve(kept);
  std::vector<uint32_t> affected;
  for (uint32_t z = 0; z < parent.todam.num_zones(); ++z) {
    const size_t end = parent.todam.offsets()[z + 1];
    for (size_t i = parent.todam.offsets()[z]; i < end; ++i) {
      if (dropped(from[i])) continue;
      core::TripEntry trip = from[i];
      if (trip.poi > index) --trip.poi;
      trips.push_back(trip);
      state->trip_flags.push_back(parent.trip_flags[i]);
      state->trip_costs.push_back(parent.trip_costs[i]);
    }
    if (trips.size() - offsets.back() != parent.todam.TripsFor(z).size()) {
      affected.push_back(z);
    }
    offsets.push_back(trips.size());
  }
  state->todam =
      core::Todam::FromParts(std::move(offsets), std::move(trips), {});
  state->AggregateZones(affected);
  return {state, 0, static_cast<uint32_t>(affected.size())};
}

ScenarioStore::Carried ScenarioStore::PatchNetwork(
    const Scenario& next, const LabelKey& key, const ExactLabelState& parent,
    const std::vector<uint32_t>& affected) {
  // The TODAM is demand-side (zones x POIs x interval) and carries over
  // verbatim; only the screened zones resolve their trips again, over the
  // new network. Zones outside `affected` could never have used a removed
  // connection, so their labels are already the exact labels of the
  // mutated feed.
  auto state = std::make_shared<ExactLabelState>(parent);
  next.LabelZoneBlocks(zone_loop_, key, state, affected);
  uint64_t spqs = 0;
  for (uint32_t z : affected) spqs += state->todam.TripsFor(z).size();
  return {state, spqs, static_cast<uint32_t>(affected.size())};
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
  const uint64_t version =
      current->network_version() + (draft.new_network ? 1 : 0);
  const uint64_t network_id =
      draft.new_network ? NewNetworkId() : current->network_id();
  auto next = std::make_shared<Scenario>(current->epoch() + 1, draft.city,
                                         std::move(draft.pois),
                                         std::move(draft.offline));
  next->SetNetwork(version, network_id, draft.router, draft.walk_scale);

  MutationReport report;
  report.epoch = next->epoch();
  report.poi_id = draft.report_id;
  report.zones_total = static_cast<uint32_t>(base_->zones.size());
  if (draft.carry) {
    for (const auto& [key, state] : current->MaterializedStates()) {
      Carried carried = draft.carry(*next, key, state);
      if (carried.state == state) {
        ++report.states_shared;
      } else {
        report.spqs += carried.spqs;
        report.zones_relabeled += carried.zones;
        ++report.states_patched;
      }
      next->SeedLabelState(key, std::move(carried.state));
    }
  }

  // Commit: every patch succeeded, so the epoch — and with it its network,
  // the current one unless the draft built a new one — is installed.
  next_poi_id_.store(draft.next_poi_id, std::memory_order_release);
  Install(std::move(next));
  report.seconds = watch.ElapsedSeconds();
  return report;
}

ScenarioStore::Draft ScenarioStore::DraftFrom(const Scenario& current) const {
  Draft draft;
  draft.pois = current.pois();
  draft.offline = current.offline_ptr();
  draft.city = current.city_ptr();
  draft.router = current.router_options();
  draft.walk_scale = current.walk_scale();
  draft.next_poi_id = next_poi_id_.load(std::memory_order_relaxed);
  return draft;
}

ScenarioStore::Draft ScenarioStore::FeedDraft(const Scenario& current,
                                              gtfs::Feed feed) const {
  Draft draft = DraftFrom(current);
  synth::City disrupted = current.base_city();
  disrupted.feed = std::move(feed);
  draft.city = std::make_shared<const synth::City>(std::move(disrupted));
  draft.router = BindConnections(draft.router, &draft.city->feed);
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
                                     const StatePtr& parent) -> Carried {
             if (key.category != poi.category) return {parent};
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
    // The POI's index among its category's POIs: its trips' index.
    const synth::PoiCategory category = it->category;
    const auto index = static_cast<uint32_t>(
        std::count_if(current.pois().begin(), it,
                      [category](const synth::Poi& p) {
                        return p.category == category;
                      }));
    Draft draft = DraftFrom(current);
    draft.pois.erase(draft.pois.begin() + (it - current.pois().begin()));
    draft.report_id = poi_id;
    draft.carry = [this, index, category](const Scenario&,
                                          const LabelKey& key,
                                          const StatePtr& parent) -> Carried {
      if (key.category != category) return {parent};
      return PatchRemove(*parent, index);
    };
    return draft;
  });
}

ScenarioStore::MutationReport ScenarioStore::SetInterval(
    const gtfs::TimeInterval& interval) {
  return Advance([&](const Scenario& current) -> util::Result<Draft> {
           Draft draft = DraftFrom(current);
           if (interval == current.interval()) {
             // Nothing interval-dependent changes: the offline state is
             // shared and every label state carried verbatim.
             draft.carry = [](const Scenario&, const LabelKey&,
                              const StatePtr& parent) -> Carried {
               return {parent};
             };
             return draft;
           }
           // Label states are interval-dependent: none is carried.
           draft.offline = std::make_shared<const OfflineState>(
               *draft.city, interval, IsochronesAt(draft.walk_scale));
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
  const synth::City& city = current.base_city();
  const router::WalkTable walk(&city.feed, current.router_options().walk);
  scenario::ImpactInputs impact;
  impact.city = &city;
  impact.feed = &city.feed;
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
        current, scenario::SuspendRoute(current.base_city().feed, route),
        route);
  });
}

util::Result<ScenarioStore::MutationReport> ScenarioStore::CloseStop(
    uint32_t stop) {
  return Advance([&](const Scenario& current) {
    return TimetableDraft(
        current, scenario::CloseStop(current.base_city().feed, stop), stop);
  });
}

util::Result<ScenarioStore::MutationReport> ScenarioStore::ScaleHeadway(
    uint32_t route, uint32_t factor) {
  return Advance([&](const Scenario& current) {
    return TimetableDraft(
        current,
        scenario::ScaleHeadway(current.base_city().feed, route, factor),
        route);
  });
}

util::Result<ScenarioStore::MutationReport> ScenarioStore::SetFare(
    uint32_t route, double fare) {
  return Advance([&](const Scenario& current) -> util::Result<Draft> {
    auto feed = scenario::SetFlatFare(current.base_city().feed, route, fare);
    if (!feed.ok()) return feed.status();
    Draft draft = FeedDraft(current, std::move(feed).value());
    draft.report_id = route;
    // Fares enter GAC only: journey-time states are shared verbatim (their
    // rebuild over the new feed would reproduce the same bits), while every
    // generalized-cost state relabels all zones — any trip may board the
    // repriced route mid-journey, so no cheaper screen is sound.
    draft.carry = [this, all = AllZones(base_->zones.size())](
                      const Scenario& next, const LabelKey& key,
                      const StatePtr& parent) -> Carried {
      if (key.cost != core::CostKind::kGeneralizedCost) return {parent};
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
    draft.walk_scale *= factor;
    draft.router.walk.speed_mps = router_.walk.speed_mps * draft.walk_scale;
    // The isochrone config changed, so this is a full offline build.
    draft.offline = std::make_shared<const OfflineState>(
        *draft.city, current.interval(), IsochronesAt(draft.walk_scale));
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
