#include "store/snapshot.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <exception>
#include <limits>
#include <memory>
#include <utility>

#include "core/features.h"
#include "store/writer.h"

namespace staq::store {
namespace {

// Section catalog. Every section is independently checksummed; the load
// path resolves them by name, so adding sections (format evolution) never
// shifts existing readers.
constexpr char kMeta[] = "meta";
constexpr char kCitySpec[] = "city/spec";
constexpr char kCityZones[] = "city/zones";
constexpr char kCityRoad[] = "city/road";
constexpr char kCityPois[] = "city/pois";
constexpr char kFeedStops[] = "feed/stops";
constexpr char kFeedRoutes[] = "feed/routes";
constexpr char kFeedTrips[] = "feed/trips";
constexpr char kFeedStopTimes[] = "feed/stop_times";
constexpr char kOfflineInterval[] = "offline/interval";
constexpr char kOfflineIso[] = "offline/iso";
constexpr char kOfflineHop[] = "offline/hop";
constexpr char kScenarioPois[] = "scenario/pois";
/// Cumulative walk-speed scale of the exported network (one raw double).
/// Optional: a snapshot without it walks at scale 1.
constexpr char kNetworkWalkScale[] = "network/walk_scale";

std::string LabelSection(size_t i, const char* leaf) {
  return "label/" + std::to_string(i) + "/" + leaf;
}

util::Status Malformed(const std::string& section) {
  return util::Status::DataLoss("snapshot section '" + section +
                                "' decodes short or malformed");
}

util::Status Inconsistent(const std::string& section, const std::string& why) {
  return util::Status::InvalidArgument("snapshot section '" + section +
                                       "': " + why);
}

/// Reads a zigzag varint into a bounded int (spec knobs, times).
bool ReadInt(ByteReader* in, int* out) {
  int64_t v;
  if (!in->ReadZigZag64(&v)) return false;
  if (v < std::numeric_limits<int>::min() ||
      v > std::numeric_limits<int>::max()) {
    return false;
  }
  *out = static_cast<int>(v);
  return true;
}

bool ReadTime(ByteReader* in, gtfs::TimeOfDay* out) {
  int v;
  if (!ReadInt(in, &v)) return false;
  *out = static_cast<gtfs::TimeOfDay>(v);
  return true;
}

uint64_t SectionElementCount(const Reader& reader, const std::string& name) {
  for (const SectionEntry& entry : reader.sections()) {
    if (entry.name == name) return entry.element_count;
  }
  return 0;
}

// --- POI column (shared by the city and scenario sections) ----------------

void PutPois(std::vector<uint8_t>* out, const std::vector<synth::Poi>& pois) {
  std::vector<uint32_t> ids;
  std::vector<uint8_t> categories;
  std::vector<geo::Point> positions;
  ids.reserve(pois.size());
  categories.reserve(pois.size());
  positions.reserve(pois.size());
  for (const synth::Poi& poi : pois) {
    ids.push_back(poi.id);
    categories.push_back(static_cast<uint8_t>(poi.category));
    positions.push_back(poi.position);
  }
  PutDeltaColumn(out, ids);
  PutFixedColumn(out, categories);
  PutFixedColumn(out, positions);
}

util::Status ReadPois(ByteReader* in, const std::string& section,
                      std::vector<synth::Poi>* out) {
  std::vector<uint32_t> ids;
  std::vector<uint8_t> categories;
  std::vector<geo::Point> positions;
  if (!ReadDeltaColumn(in, &ids) || !ReadFixedColumn(in, &categories) ||
      !ReadFixedColumn(in, &positions)) {
    return Malformed(section);
  }
  if (categories.size() != ids.size() || positions.size() != ids.size()) {
    return Inconsistent(section, "POI column lengths differ");
  }
  out->clear();
  out->reserve(ids.size());
  for (size_t i = 0; i < ids.size(); ++i) {
    if (categories[i] >= synth::kNumPoiCategories) {
      return Inconsistent(section, "POI category out of range");
    }
    synth::Poi poi;
    poi.id = ids[i];
    poi.category = static_cast<synth::PoiCategory>(categories[i]);
    poi.position = positions[i];
    out->push_back(poi);
  }
  return util::Status::OK();
}

// --- encoders --------------------------------------------------------------

std::vector<uint8_t> EncodeMeta(const serve::Scenario& scenario,
                                uint64_t base_sequence, uint32_t next_poi_id,
                                uint64_t num_states) {
  const synth::City& city = scenario.base_city();
  std::vector<uint8_t> b;
  PutVarint64(&b, base_sequence + scenario.epoch());
  PutVarint64(&b, next_poi_id);
  PutVarint64(&b, num_states);
  PutLengthPrefixed(&b, city.spec.name);
  PutLengthPrefixed(&b, scenario.interval().label);
  PutVarint64(&b, city.zones.size());
  PutVarint64(&b, scenario.pois().size());
  PutVarint64(&b, city.feed.num_stops());
  PutVarint64(&b, city.feed.num_trips());
  PutVarint64(&b, city.feed.num_stop_times());
  return b;
}

std::vector<uint8_t> EncodeSpec(const synth::City& city) {
  const synth::CitySpec& spec = city.spec;
  std::vector<uint8_t> b;
  PutLengthPrefixed(&b, spec.name);
  PutFixed(&b, spec.seed);
  PutFixed(&b, spec.scale);
  PutZigZag64(&b, spec.zones_x);
  PutZigZag64(&b, spec.zones_y);
  PutFixed(&b, spec.zone_spacing_m);
  PutFixed(&b, spec.centre_density_scale_m);
  PutZigZag64(&b, spec.road_nodes_per_zone_axis);
  PutFixed(&b, spec.diagonal_edge_prob);
  PutFixed(&b, spec.road_detour_factor);
  PutZigZag64(&b, spec.num_radial_routes);
  PutZigZag64(&b, spec.num_orbital_routes);
  PutZigZag64(&b, spec.num_crosstown_routes);
  PutFixed(&b, spec.stop_spacing_m);
  PutFixed(&b, spec.bus_speed_mps);
  PutFixed(&b, spec.dwell_s);
  PutFixed(&b, spec.peak_headway_s);
  PutFixed(&b, spec.offpeak_headway_s);
  PutFixed(&b, spec.weekend_headway_multiplier);
  PutFixed(&b, spec.route_headway_jitter);
  PutFixed(&b, spec.flat_fare);
  PutZigZag64(&b, spec.service_start_hour);
  PutZigZag64(&b, spec.service_end_hour);
  PutFixed(&b, spec.base_zone_population);
  PutVarint64(&b, spec.pois.size());
  for (const synth::PoiSpec& ps : spec.pois) {
    PutFixed(&b, static_cast<uint8_t>(ps.category));
    PutZigZag64(&b, ps.count);
    PutFixed(&b, static_cast<uint8_t>(ps.placement));
  }
  PutFixed(&b, city.extent.min_x);
  PutFixed(&b, city.extent.min_y);
  PutFixed(&b, city.extent.max_x);
  PutFixed(&b, city.extent.max_y);
  return b;
}

util::Status DecodeSpec(ByteReader in, synth::CitySpec* spec,
                        geo::BBox* extent) {
  bool ok = in.ReadLengthPrefixed(&spec->name);
  ok = ok && in.ReadFixed(&spec->seed);
  ok = ok && in.ReadFixed(&spec->scale);
  ok = ok && ReadInt(&in, &spec->zones_x);
  ok = ok && ReadInt(&in, &spec->zones_y);
  ok = ok && in.ReadFixed(&spec->zone_spacing_m);
  ok = ok && in.ReadFixed(&spec->centre_density_scale_m);
  ok = ok && ReadInt(&in, &spec->road_nodes_per_zone_axis);
  ok = ok && in.ReadFixed(&spec->diagonal_edge_prob);
  ok = ok && in.ReadFixed(&spec->road_detour_factor);
  ok = ok && ReadInt(&in, &spec->num_radial_routes);
  ok = ok && ReadInt(&in, &spec->num_orbital_routes);
  ok = ok && ReadInt(&in, &spec->num_crosstown_routes);
  ok = ok && in.ReadFixed(&spec->stop_spacing_m);
  ok = ok && in.ReadFixed(&spec->bus_speed_mps);
  ok = ok && in.ReadFixed(&spec->dwell_s);
  ok = ok && in.ReadFixed(&spec->peak_headway_s);
  ok = ok && in.ReadFixed(&spec->offpeak_headway_s);
  ok = ok && in.ReadFixed(&spec->weekend_headway_multiplier);
  ok = ok && in.ReadFixed(&spec->route_headway_jitter);
  ok = ok && in.ReadFixed(&spec->flat_fare);
  ok = ok && ReadInt(&in, &spec->service_start_hour);
  ok = ok && ReadInt(&in, &spec->service_end_hour);
  ok = ok && in.ReadFixed(&spec->base_zone_population);
  uint64_t num_poi_specs = 0;
  ok = ok && in.ReadVarint64(&num_poi_specs);
  if (!ok) return Malformed(kCitySpec);
  spec->pois.clear();
  for (uint64_t i = 0; i < num_poi_specs; ++i) {
    uint8_t category, placement;
    synth::PoiSpec ps;
    if (!in.ReadFixed(&category) || !ReadInt(&in, &ps.count) ||
        !in.ReadFixed(&placement)) {
      return Malformed(kCitySpec);
    }
    if (category >= synth::kNumPoiCategories || placement > 3) {
      return Inconsistent(kCitySpec, "POI spec enum out of range");
    }
    ps.category = static_cast<synth::PoiCategory>(category);
    ps.placement = static_cast<synth::PoiPlacement>(placement);
    spec->pois.push_back(ps);
  }
  ok = in.ReadFixed(&extent->min_x) && in.ReadFixed(&extent->min_y) &&
       in.ReadFixed(&extent->max_x) && in.ReadFixed(&extent->max_y);
  if (!ok) return Malformed(kCitySpec);
  return util::Status::OK();
}

std::vector<uint8_t> EncodeZones(const std::vector<synth::Zone>& zones) {
  std::vector<uint32_t> ids;
  std::vector<geo::Point> centroids;
  std::vector<double> population, vulnerability;
  for (const synth::Zone& z : zones) {
    ids.push_back(z.id);
    centroids.push_back(z.centroid);
    population.push_back(z.population);
    vulnerability.push_back(z.vulnerability);
  }
  std::vector<uint8_t> b;
  PutDeltaColumn(&b, ids);
  PutFixedColumn(&b, centroids);
  PutFixedColumn(&b, population);
  PutFixedColumn(&b, vulnerability);
  return b;
}

util::Status DecodeZones(ByteReader in, std::vector<synth::Zone>* out) {
  std::vector<uint32_t> ids;
  std::vector<geo::Point> centroids;
  std::vector<double> population, vulnerability;
  if (!ReadDeltaColumn(&in, &ids) || !ReadFixedColumn(&in, &centroids) ||
      !ReadFixedColumn(&in, &population) ||
      !ReadFixedColumn(&in, &vulnerability)) {
    return Malformed(kCityZones);
  }
  if (centroids.size() != ids.size() || population.size() != ids.size() ||
      vulnerability.size() != ids.size()) {
    return Inconsistent(kCityZones, "zone column lengths differ");
  }
  out->clear();
  out->reserve(ids.size());
  for (size_t i = 0; i < ids.size(); ++i) {
    synth::Zone z;
    z.id = ids[i];
    z.centroid = centroids[i];
    z.population = population[i];
    z.vulnerability = vulnerability[i];
    out->push_back(z);
  }
  return util::Status::OK();
}

std::vector<uint8_t> EncodeRoad(const synth::City& city) {
  const graph::Graph& road = city.road;
  std::vector<uint32_t> heads;
  std::vector<double> lengths;
  heads.reserve(road.num_arcs());
  lengths.reserve(road.num_arcs());
  for (const graph::Arc& arc : road.arcs()) {
    heads.push_back(arc.head);
    lengths.push_back(arc.length_m);
  }
  std::vector<uint8_t> b;
  PutFixedColumn(&b, road.positions());
  PutDeltaColumn(&b, road.offsets());
  PutDeltaColumn(&b, heads);
  PutFixedColumn(&b, lengths);
  PutDeltaColumn(&b, city.zone_node);
  return b;
}

util::Status DecodeRoad(ByteReader in, size_t num_zones, graph::Graph* road,
                        std::vector<graph::NodeId>* zone_node) {
  std::vector<geo::Point> positions;
  std::vector<uint32_t> offsets, heads;
  std::vector<double> lengths;
  if (!ReadFixedColumn(&in, &positions) || !ReadDeltaColumn(&in, &offsets) ||
      !ReadDeltaColumn(&in, &heads) || !ReadFixedColumn(&in, &lengths) ||
      !ReadDeltaColumn(&in, zone_node)) {
    return Malformed(kCityRoad);
  }
  if (heads.size() != lengths.size()) {
    return Inconsistent(kCityRoad, "arc column lengths differ");
  }
  std::vector<graph::Arc> arcs;
  arcs.reserve(heads.size());
  for (size_t i = 0; i < heads.size(); ++i) {
    arcs.push_back(graph::Arc{heads[i], lengths[i]});
  }
  util::Result<graph::Graph> built = graph::Graph::FromParts(
      std::move(positions), std::move(offsets), std::move(arcs));
  if (!built.ok()) return built.status();
  *road = std::move(built).value();
  if (zone_node->size() != num_zones) {
    return Inconsistent(kCityRoad, "zone_node length != zone count");
  }
  for (graph::NodeId node : *zone_node) {
    if (node >= road->num_nodes()) {
      return Inconsistent(kCityRoad, "zone_node references unknown node");
    }
  }
  return util::Status::OK();
}

std::vector<uint8_t> EncodeStops(const gtfs::Feed& feed) {
  std::vector<uint8_t> b;
  PutVarint64(&b, feed.num_stops());
  std::vector<geo::Point> positions;
  positions.reserve(feed.num_stops());
  for (const gtfs::Stop& stop : feed.stops()) {
    PutLengthPrefixed(&b, stop.name);
    positions.push_back(stop.position);
  }
  PutFixedColumn(&b, positions);
  return b;
}

std::vector<uint8_t> EncodeRoutes(const gtfs::Feed& feed) {
  std::vector<uint8_t> b;
  PutVarint64(&b, feed.num_routes());
  std::vector<double> fares;
  fares.reserve(feed.num_routes());
  for (const gtfs::Route& route : feed.routes()) {
    PutLengthPrefixed(&b, route.name);
    fares.push_back(route.flat_fare);
  }
  PutFixedColumn(&b, fares);
  return b;
}

std::vector<uint8_t> EncodeTrips(const gtfs::Feed& feed) {
  std::vector<uint32_t> routes, first, count;
  std::vector<uint8_t> days;
  for (const gtfs::Trip& trip : feed.trips()) {
    routes.push_back(trip.route);
    days.push_back(trip.days);
    first.push_back(trip.first_stop_time);
    count.push_back(trip.num_stop_times);
  }
  std::vector<uint8_t> b;
  PutDeltaColumn(&b, routes);
  PutFixedColumn(&b, days);
  PutDeltaColumn(&b, first);
  PutDeltaColumn(&b, count);
  return b;
}

std::vector<uint8_t> EncodeStopTimes(const gtfs::Feed& feed) {
  std::vector<uint32_t> trips, stops;
  std::vector<int32_t> arrivals, departures;
  trips.reserve(feed.num_stop_times());
  stops.reserve(feed.num_stop_times());
  arrivals.reserve(feed.num_stop_times());
  departures.reserve(feed.num_stop_times());
  for (const gtfs::StopTime& st : feed.stop_times()) {
    trips.push_back(st.trip);
    stops.push_back(st.stop);
    arrivals.push_back(st.arrival);
    departures.push_back(st.departure);
  }
  std::vector<uint8_t> b;
  PutDeltaColumn(&b, trips);
  PutDeltaColumn(&b, stops);
  PutDeltaColumn(&b, arrivals);
  PutDeltaColumn(&b, departures);
  return b;
}

util::Status DecodeFeed(ByteReader stops_in, ByteReader routes_in,
                        ByteReader trips_in, ByteReader times_in,
                        gtfs::Feed* out) {
  uint64_t num_stops = 0;
  if (!stops_in.ReadVarint64(&num_stops)) return Malformed(kFeedStops);
  std::vector<gtfs::Stop> stops(static_cast<size_t>(
      num_stops <= stops_in.remaining() ? num_stops : 0));
  if (stops.size() != num_stops) {
    return Inconsistent(kFeedStops, "absurd stop count");
  }
  for (uint64_t i = 0; i < num_stops; ++i) {
    stops[i].id = static_cast<gtfs::StopId>(i);
    if (!stops_in.ReadLengthPrefixed(&stops[i].name)) {
      return Malformed(kFeedStops);
    }
  }
  std::vector<geo::Point> positions;
  if (!ReadFixedColumn(&stops_in, &positions) ||
      positions.size() != num_stops) {
    return Malformed(kFeedStops);
  }
  for (uint64_t i = 0; i < num_stops; ++i) stops[i].position = positions[i];

  uint64_t num_routes = 0;
  if (!routes_in.ReadVarint64(&num_routes)) return Malformed(kFeedRoutes);
  std::vector<gtfs::Route> routes(static_cast<size_t>(
      num_routes <= routes_in.remaining() ? num_routes : 0));
  if (routes.size() != num_routes) {
    return Inconsistent(kFeedRoutes, "absurd route count");
  }
  for (uint64_t i = 0; i < num_routes; ++i) {
    routes[i].id = static_cast<gtfs::RouteId>(i);
    if (!routes_in.ReadLengthPrefixed(&routes[i].name)) {
      return Malformed(kFeedRoutes);
    }
  }
  std::vector<double> fares;
  if (!ReadFixedColumn(&routes_in, &fares) || fares.size() != num_routes) {
    return Malformed(kFeedRoutes);
  }
  for (uint64_t i = 0; i < num_routes; ++i) routes[i].flat_fare = fares[i];

  std::vector<uint32_t> trip_routes, trip_first, trip_count;
  std::vector<uint8_t> trip_days;
  if (!ReadDeltaColumn(&trips_in, &trip_routes) ||
      !ReadFixedColumn(&trips_in, &trip_days) ||
      !ReadDeltaColumn(&trips_in, &trip_first) ||
      !ReadDeltaColumn(&trips_in, &trip_count)) {
    return Malformed(kFeedTrips);
  }
  if (trip_days.size() != trip_routes.size() ||
      trip_first.size() != trip_routes.size() ||
      trip_count.size() != trip_routes.size()) {
    return Inconsistent(kFeedTrips, "trip column lengths differ");
  }
  std::vector<gtfs::Trip> trips(trip_routes.size());
  for (size_t i = 0; i < trips.size(); ++i) {
    trips[i].id = static_cast<gtfs::TripId>(i);
    trips[i].route = trip_routes[i];
    trips[i].days = trip_days[i];
    trips[i].first_stop_time = trip_first[i];
    trips[i].num_stop_times = trip_count[i];
  }

  std::vector<uint32_t> st_trips, st_stops;
  std::vector<int32_t> st_arrivals, st_departures;
  if (!ReadDeltaColumn(&times_in, &st_trips) ||
      !ReadDeltaColumn(&times_in, &st_stops) ||
      !ReadDeltaColumn(&times_in, &st_arrivals) ||
      !ReadDeltaColumn(&times_in, &st_departures)) {
    return Malformed(kFeedStopTimes);
  }
  if (st_stops.size() != st_trips.size() ||
      st_arrivals.size() != st_trips.size() ||
      st_departures.size() != st_trips.size()) {
    return Inconsistent(kFeedStopTimes, "stop_time column lengths differ");
  }
  std::vector<gtfs::StopTime> stop_times(st_trips.size());
  for (size_t i = 0; i < stop_times.size(); ++i) {
    stop_times[i].trip = st_trips[i];
    stop_times[i].stop = st_stops[i];
    stop_times[i].arrival = st_arrivals[i];
    stop_times[i].departure = st_departures[i];
  }

  util::Result<gtfs::Feed> built =
      gtfs::Feed::FromParts(std::move(stops), std::move(routes),
                            std::move(trips), std::move(stop_times));
  if (!built.ok()) return built.status();
  *out = std::move(built).value();
  return util::Status::OK();
}

std::vector<uint8_t> EncodeInterval(const serve::OfflineState& offline) {
  std::vector<uint8_t> b;
  PutZigZag64(&b, offline.interval.start);
  PutZigZag64(&b, offline.interval.end);
  PutFixed(&b, static_cast<uint8_t>(offline.interval.day));
  PutLengthPrefixed(&b, offline.interval.label);
  PutFixed(&b, offline.isochrones->config().tau_s);
  PutFixed(&b, offline.isochrones->config().omega_kph);
  PutFixed(&b, 0.0);  // build-time slot, unread: a wall clock varies per save
  return b;
}

util::Status DecodeInterval(ByteReader in, gtfs::TimeInterval* interval,
                            core::IsochroneConfig* iso_config) {
  uint8_t day = 0;
  double unread = 0.0;  // the build-time slot
  bool ok = ReadTime(&in, &interval->start) && ReadTime(&in, &interval->end) &&
            in.ReadFixed(&day) && in.ReadLengthPrefixed(&interval->label) &&
            in.ReadFixed(&iso_config->tau_s) &&
            in.ReadFixed(&iso_config->omega_kph) && in.ReadFixed(&unread);
  if (!ok) return Malformed(kOfflineInterval);
  if (day > static_cast<uint8_t>(gtfs::Day::kSunday)) {
    return Inconsistent(kOfflineInterval, "service day out of range");
  }
  interval->day = static_cast<gtfs::Day>(day);
  return util::Status::OK();
}

std::vector<uint8_t> EncodeIsochrones(const core::IsochroneSet& iso) {
  std::vector<uint32_t> counts;
  std::vector<geo::Point> vertices;
  counts.reserve(iso.size());
  for (uint32_t z = 0; z < iso.size(); ++z) {
    const auto& poly = iso.For(z).vertices();
    counts.push_back(static_cast<uint32_t>(poly.size()));
    vertices.insert(vertices.end(), poly.begin(), poly.end());
  }
  std::vector<uint8_t> b;
  PutDeltaColumn(&b, counts);
  PutFixedColumn(&b, vertices);
  return b;
}

util::Status DecodeIsochrones(ByteReader in, size_t num_zones,
                              std::vector<geo::Polygon>* out) {
  std::vector<uint32_t> counts;
  std::vector<geo::Point> vertices;
  if (!ReadDeltaColumn(&in, &counts) || !ReadFixedColumn(&in, &vertices)) {
    return Malformed(kOfflineIso);
  }
  if (counts.size() != num_zones) {
    return Inconsistent(kOfflineIso, "polygon count != zone count");
  }
  uint64_t total = 0;
  for (uint32_t c : counts) total += c;
  if (total != vertices.size()) {
    return Inconsistent(kOfflineIso, "vertex column length mismatch");
  }
  out->clear();
  out->reserve(num_zones);
  size_t cursor = 0;
  for (uint32_t c : counts) {
    out->emplace_back(std::vector<geo::Point>(
        vertices.begin() + cursor, vertices.begin() + cursor + c));
    cursor += c;
  }
  return util::Status::OK();
}

void EncodeHopDirection(std::vector<uint8_t>* b, const core::HopTreeSet& hops,
                        core::HopDirection direction) {
  std::vector<uint32_t> counts, zones, services, routes;
  std::vector<double> means;
  std::vector<geo::Point> positions;
  for (uint32_t z = 0; z < hops.num_zones(); ++z) {
    const core::HopTree& tree = direction == core::HopDirection::kOutbound
                                    ? hops.Outbound(z)
                                    : hops.Inbound(z);
    counts.push_back(static_cast<uint32_t>(tree.size()));
    for (const core::HopLeaf& leaf : tree.leaves()) {
      zones.push_back(leaf.zone);
      services.push_back(leaf.service_count);
      routes.push_back(leaf.route_count);
      means.push_back(leaf.mean_journey_s);
      positions.push_back(leaf.position);
    }
  }
  PutDeltaColumn(b, counts);
  PutDeltaColumn(b, zones);
  PutDeltaColumn(b, services);
  PutDeltaColumn(b, routes);
  PutFixedColumn(b, means);
  PutFixedColumn(b, positions);
}

util::Status DecodeHopDirection(ByteReader* in, size_t num_zones,
                                std::vector<core::HopTree>* out) {
  std::vector<uint32_t> counts, zones, services, routes;
  std::vector<double> means;
  std::vector<geo::Point> positions;
  if (!ReadDeltaColumn(in, &counts) || !ReadDeltaColumn(in, &zones) ||
      !ReadDeltaColumn(in, &services) || !ReadDeltaColumn(in, &routes) ||
      !ReadFixedColumn(in, &means) || !ReadFixedColumn(in, &positions)) {
    return Malformed(kOfflineHop);
  }
  if (counts.size() != num_zones) {
    return Inconsistent(kOfflineHop, "tree count != zone count");
  }
  uint64_t total = 0;
  for (uint32_t c : counts) total += c;
  if (zones.size() != total || services.size() != total ||
      routes.size() != total || means.size() != total ||
      positions.size() != total) {
    return Inconsistent(kOfflineHop, "leaf column lengths differ");
  }
  out->clear();
  out->reserve(num_zones);
  size_t cursor = 0;
  for (uint32_t root = 0; root < num_zones; ++root) {
    std::vector<core::HopLeaf> leaves(counts[root]);
    for (uint32_t i = 0; i < counts[root]; ++i, ++cursor) {
      if (zones[cursor] >= num_zones) {
        return Inconsistent(kOfflineHop, "leaf references unknown zone");
      }
      leaves[i].zone = zones[cursor];
      leaves[i].service_count = services[cursor];
      leaves[i].route_count = routes[cursor];
      leaves[i].mean_journey_s = means[cursor];
      leaves[i].position = positions[cursor];
    }
    out->emplace_back(root, std::move(leaves));
  }
  return util::Status::OK();
}

std::vector<uint8_t> EncodeHops(const core::HopTreeSet& hops) {
  std::vector<uint8_t> b;
  EncodeHopDirection(&b, hops, core::HopDirection::kOutbound);
  EncodeHopDirection(&b, hops, core::HopDirection::kInbound);
  PutDeltaColumn(&b, hops.stop_zone());
  return b;
}

util::Status DecodeHops(ByteReader in, size_t num_zones, size_t num_stops,
                        const gtfs::TimeInterval& interval,
                        std::unique_ptr<core::HopTreeSet>* out) {
  std::vector<core::HopTree> outbound, inbound;
  util::Status st = DecodeHopDirection(&in, num_zones, &outbound);
  if (!st.ok()) return st;
  st = DecodeHopDirection(&in, num_zones, &inbound);
  if (!st.ok()) return st;
  std::vector<uint32_t> stop_zone;
  if (!ReadDeltaColumn(&in, &stop_zone)) return Malformed(kOfflineHop);
  if (stop_zone.size() != num_stops) {
    return Inconsistent(kOfflineHop, "stop_zone length != stop count");
  }
  for (uint32_t z : stop_zone) {
    if (z >= num_zones) {
      return Inconsistent(kOfflineHop, "stop_zone references unknown zone");
    }
  }
  *out = std::make_unique<core::HopTreeSet>(interval, std::move(outbound),
                                            std::move(inbound),
                                            std::move(stop_zone));
  return util::Status::OK();
}

// --- exact label states ----------------------------------------------------

std::vector<uint8_t> EncodeLabelKey(const serve::LabelKey& key) {
  std::vector<uint8_t> b;
  PutFixed(&b, static_cast<uint8_t>(key.category));
  PutFixed(&b, static_cast<uint8_t>(key.cost));
  PutFixed(&b, key.gac.lambda_tan);
  PutFixed(&b, key.gac.lambda_wt);
  PutFixed(&b, key.gac.lambda_ivt);
  PutFixed(&b, key.gac.lambda_et);
  PutFixed(&b, key.gac.transfer_penalty_s);
  PutFixed(&b, key.gac.value_of_time);
  PutFixed(&b, key.gravity.decay_scale_m);
  PutFixed(&b, key.gravity.keep_scale);
  PutZigZag64(&b, key.gravity.sample_rate_per_hour);
  PutFixed(&b, key.seed);
  // Two accounting slots (a state's build SPQs and relabeled zones) that
  // states no longer keep: written as 0, never read.
  PutVarint64(&b, 0);
  PutVarint64(&b, 0);
  return b;
}

util::Status DecodeLabelKey(ByteReader in, const std::string& section,
                            serve::LabelKey* key) {
  uint8_t category = 0, cost = 0;
  uint64_t unread = 0;
  bool ok = in.ReadFixed(&category) && in.ReadFixed(&cost) &&
            in.ReadFixed(&key->gac.lambda_tan) &&
            in.ReadFixed(&key->gac.lambda_wt) &&
            in.ReadFixed(&key->gac.lambda_ivt) &&
            in.ReadFixed(&key->gac.lambda_et) &&
            in.ReadFixed(&key->gac.transfer_penalty_s) &&
            in.ReadFixed(&key->gac.value_of_time) &&
            in.ReadFixed(&key->gravity.decay_scale_m) &&
            in.ReadFixed(&key->gravity.keep_scale) &&
            ReadInt(&in, &key->gravity.sample_rate_per_hour) &&
            in.ReadFixed(&key->seed) && in.ReadVarint64(&unread) &&
            in.ReadVarint64(&unread);
  if (!ok) return Malformed(section);
  if (category >= synth::kNumPoiCategories ||
      cost > static_cast<uint8_t>(core::CostKind::kGeneralizedCost)) {
    return Inconsistent(section, "label key enum out of range");
  }
  key->category = static_cast<synth::PoiCategory>(category);
  key->cost = static_cast<core::CostKind>(cost);
  // Mutations patch every restored state under its key, so a key no
  // request could name (say, a sample rate of 0 or 2^31 per hour) is
  // refused here rather than sampled by the next AddPoi.
  util::Status checked = serve::CheckLabelKey(*key);
  if (!checked.ok()) return Inconsistent(section, checked.message());
  return util::Status::OK();
}

std::vector<uint8_t> EncodeTodam(const core::Todam& todam) {
  std::vector<uint32_t> trip_counts, pois;
  std::vector<int32_t> departs;
  for (uint32_t z = 0; z < todam.num_zones(); ++z) {
    trip_counts.push_back(static_cast<uint32_t>(todam.TripsFor(z).size()));
  }
  for (const core::TripEntry& trip : todam.trips()) {
    pois.push_back(trip.poi);
    departs.push_back(trip.depart);
  }
  // Exact states hold no α rows. The α columns keep their place in the
  // layout as an empty row per zone, so the section decodes as before.
  const std::vector<uint32_t> alpha_counts(todam.num_zones(), 0);
  const std::vector<double> alpha;
  std::vector<uint8_t> b;
  PutVarint64(&b, todam.num_zones());
  PutDeltaColumn(&b, trip_counts);
  PutDeltaColumn(&b, pois);
  PutDeltaColumn(&b, departs);
  PutDeltaColumn(&b, alpha_counts);
  PutFixedColumn(&b, alpha);
  return b;
}

/// `num_pois` bounds every trip's POI index: the restored scenario's POI
/// count of the state's category.
util::Status DecodeTodam(ByteReader in, const std::string& section,
                         size_t num_zones, size_t num_pois,
                         core::Todam* out) {
  uint64_t stored_zones = 0;
  std::vector<uint32_t> trip_counts, pois, alpha_counts;
  std::vector<int32_t> departs;
  std::vector<double> alpha;
  if (!in.ReadVarint64(&stored_zones) || !ReadDeltaColumn(&in, &trip_counts) ||
      !ReadDeltaColumn(&in, &pois) || !ReadDeltaColumn(&in, &departs) ||
      !ReadDeltaColumn(&in, &alpha_counts) || !ReadFixedColumn(&in, &alpha)) {
    return Malformed(section);
  }
  if (stored_zones != num_zones || trip_counts.size() != num_zones ||
      alpha_counts.size() != num_zones) {
    return Inconsistent(section, "TODAM zone count mismatch");
  }
  std::vector<size_t> offsets = {0};
  offsets.reserve(num_zones + 1);
  for (uint32_t c : trip_counts) offsets.push_back(offsets.back() + c);
  if (pois.size() != offsets.back() || departs.size() != offsets.back()) {
    return Inconsistent(section, "TODAM trip column lengths differ");
  }
  uint64_t total_alpha = 0;
  for (uint32_t c : alpha_counts) total_alpha += c;
  if (alpha.size() != total_alpha) {
    return Inconsistent(section, "TODAM alpha column length mismatch");
  }
  std::vector<core::TripEntry> trips(pois.size());
  for (size_t i = 0; i < trips.size(); ++i) {
    if (pois[i] >= num_pois) {
      return Inconsistent(section, "trip references unknown POI");
    }
    trips[i] = core::TripEntry{pois[i], departs[i]};
  }
  // α rows an older snapshot carries are validated above and dropped:
  // exact states hold none.
  *out = core::Todam::FromParts(std::move(offsets), std::move(trips), {});
  return util::Status::OK();
}

/// A state's trip columns: flags then costs, one entry per TODAM trip.
std::vector<uint8_t> EncodeTripCosts(const serve::ExactLabelState& state) {
  std::vector<uint8_t> b;
  PutFixedColumn(&b, state.trip_flags);
  PutFixedColumn(&b, state.trip_costs);
  return b;
}

/// Restores `state`'s trip columns; its TODAM must already be decoded.
util::Status DecodeTripCosts(ByteReader in, const std::string& section,
                             serve::ExactLabelState* state) {
  std::vector<uint8_t> flags;
  std::vector<double> costs;
  if (!ReadFixedColumn(&in, &flags) || !ReadFixedColumn(&in, &costs)) {
    return Malformed(section);
  }
  if (flags.size() != state->todam.num_trips() ||
      costs.size() != state->todam.num_trips()) {
    return Inconsistent(section, "trip column length != TODAM trip count");
  }
  for (uint8_t f : flags) {
    if (f > 3 || f == 2) {
      return Inconsistent(section, "trip flag out of range");
    }
  }
  state->trip_flags = std::move(flags);
  state->trip_costs = std::move(costs);
  return util::Status::OK();
}

/// The walk-scale section.
std::vector<uint8_t> EncodeRawDoubles(const std::vector<double>& values) {
  // Pure raw doubles (kRaw): no count prefix, no per-value framing. The
  // element count travels in the footer entry, and the read path
  // memcpy's the column straight out of the page cache.
  std::vector<uint8_t> b(values.size() * sizeof(double));
  if (!values.empty()) std::memcpy(b.data(), values.data(), b.size());
  return b;
}

// --- load ------------------------------------------------------------------

util::Result<serve::RestoredScenario> LoadSnapshotImpl(
    const std::string& path) {
  Reader reader;
  util::Status st = reader.Open(path);
  if (!st.ok()) return st;

  auto section = [&reader](const char* name,
                           SectionEncoding enc) -> util::Result<ByteReader> {
    return reader.Section(name, enc);
  };

  auto meta = section(kMeta, SectionEncoding::kStruct);
  if (!meta.ok()) return meta.status();
  ByteReader meta_in = meta.value();
  uint64_t epoch = 0, next_poi_id = 0, num_states = 0;
  std::string city_name, interval_label;
  uint64_t meta_zones = 0, meta_pois = 0, meta_stops = 0, meta_trips = 0,
           meta_stop_times = 0;
  bool meta_ok = meta_in.ReadVarint64(&epoch) &&
                 meta_in.ReadVarint64(&next_poi_id) &&
                 meta_in.ReadVarint64(&num_states) &&
                 meta_in.ReadLengthPrefixed(&city_name) &&
                 meta_in.ReadLengthPrefixed(&interval_label) &&
                 meta_in.ReadVarint64(&meta_zones) &&
                 meta_in.ReadVarint64(&meta_pois) &&
                 meta_in.ReadVarint64(&meta_stops) &&
                 meta_in.ReadVarint64(&meta_trips) &&
                 meta_in.ReadVarint64(&meta_stop_times);
  if (!meta_ok) return Malformed(kMeta);

  synth::CitySpec spec;
  geo::BBox extent;
  auto spec_in = section(kCitySpec, SectionEncoding::kStruct);
  if (!spec_in.ok()) return spec_in.status();
  st = DecodeSpec(spec_in.value(), &spec, &extent);
  if (!st.ok()) return st;

  std::vector<synth::Zone> zones;
  auto zones_in = section(kCityZones, SectionEncoding::kStruct);
  if (!zones_in.ok()) return zones_in.status();
  st = DecodeZones(zones_in.value(), &zones);
  if (!st.ok()) return st;
  if (zones.size() != meta_zones) {
    return Inconsistent(kCityZones, "zone count disagrees with meta");
  }

  graph::Graph road;
  std::vector<graph::NodeId> zone_node;
  auto road_in = section(kCityRoad, SectionEncoding::kStruct);
  if (!road_in.ok()) return road_in.status();
  st = DecodeRoad(road_in.value(), zones.size(), &road, &zone_node);
  if (!st.ok()) return st;

  gtfs::Feed feed;
  auto stops_in = section(kFeedStops, SectionEncoding::kStruct);
  auto routes_in = section(kFeedRoutes, SectionEncoding::kStruct);
  auto trips_in = section(kFeedTrips, SectionEncoding::kStruct);
  auto times_in = section(kFeedStopTimes, SectionEncoding::kDelta);
  if (!stops_in.ok()) return stops_in.status();
  if (!routes_in.ok()) return routes_in.status();
  if (!trips_in.ok()) return trips_in.status();
  if (!times_in.ok()) return times_in.status();
  st = DecodeFeed(stops_in.value(), routes_in.value(), trips_in.value(),
                  times_in.value(), &feed);
  if (!st.ok()) return st;

  std::vector<synth::Poi> base_pois;
  auto city_pois_in = section(kCityPois, SectionEncoding::kStruct);
  if (!city_pois_in.ok()) return city_pois_in.status();
  st = ReadPois(&city_pois_in.value(), kCityPois, &base_pois);
  if (!st.ok()) return st;

  gtfs::TimeInterval interval;
  core::IsochroneConfig iso_config;
  auto interval_in = section(kOfflineInterval, SectionEncoding::kStruct);
  if (!interval_in.ok()) return interval_in.status();
  st = DecodeInterval(interval_in.value(), &interval, &iso_config);
  if (!st.ok()) return st;

  std::vector<geo::Polygon> polygons;
  auto iso_in = section(kOfflineIso, SectionEncoding::kStruct);
  if (!iso_in.ok()) return iso_in.status();
  st = DecodeIsochrones(iso_in.value(), zones.size(), &polygons);
  if (!st.ok()) return st;
  auto isochrones =
      std::make_unique<core::IsochroneSet>(iso_config, std::move(polygons));

  std::unique_ptr<core::HopTreeSet> hop_trees;
  auto hop_in = section(kOfflineHop, SectionEncoding::kDelta);
  if (!hop_in.ok()) return hop_in.status();
  st = DecodeHops(hop_in.value(), zones.size(), feed.num_stops(), interval,
                  &hop_trees);
  if (!st.ok()) return st;

  std::vector<synth::Poi> scenario_pois;
  auto scenario_pois_in = section(kScenarioPois, SectionEncoding::kStruct);
  if (!scenario_pois_in.ok()) return scenario_pois_in.status();
  st = ReadPois(&scenario_pois_in.value(), kScenarioPois, &scenario_pois);
  if (!st.ok()) return st;

  // Assemble the city first: the offline state's feature extractor points
  // into it, so the city must already be at its final address.
  synth::City city;
  city.spec = std::move(spec);
  city.zones = std::move(zones);
  city.road = std::move(road);
  city.zone_node = std::move(zone_node);
  city.feed = std::move(feed);
  city.pois = std::move(base_pois);
  city.extent = extent;
  auto city_ptr = std::make_shared<const synth::City>(std::move(city));
  const size_t num_zones = city_ptr->zones.size();

  auto offline = std::make_unique<serve::OfflineState>(
      *city_ptr, interval, std::move(isochrones), std::move(hop_trees));

  serve::RestoredScenario restored;
  restored.city = city_ptr;
  restored.pois = std::move(scenario_pois);
  restored.offline =
      std::shared_ptr<const serve::OfflineState>(std::move(offline));
  restored.source_epoch = epoch;
  restored.next_poi_id = static_cast<uint32_t>(next_poi_id);
  if (reader.Has(kNetworkWalkScale)) {
    auto scale_in = section(kNetworkWalkScale, SectionEncoding::kRaw);
    if (!scale_in.ok()) return scale_in.status();
    std::vector<double> scale;
    if (SectionElementCount(reader, kNetworkWalkScale) != 1 ||
        !scale_in.value().ReadFixedColumn(1, &scale)) {
      return Malformed(kNetworkWalkScale);
    }
    if (!(scale[0] > 0.0) || !std::isfinite(scale[0])) {
      return Inconsistent(kNetworkWalkScale, "walk scale not positive");
    }
    restored.walk_scale = scale[0];
  }

  for (uint64_t i = 0; i < num_states; ++i) {
    serve::LabelKey key;
    auto state = std::make_shared<serve::ExactLabelState>();

    const std::string key_name = LabelSection(i, "key");
    auto key_in = reader.Section(key_name, SectionEncoding::kStruct);
    if (!key_in.ok()) return key_in.status();
    st = DecodeLabelKey(key_in.value(), key_name, &key);
    if (!st.ok()) return st;

    // A state's trips index the scenario's POIs of its category, and its
    // normalisers come from the city: an older file's `pois` and `norm`
    // sections repeat what the scenario already knows and are never read.
    size_t num_pois = 0;
    for (const synth::Poi& poi : restored.pois) {
      if (poi.category == key.category) ++num_pois;
    }
    const std::string todam_name = LabelSection(i, "todam");
    auto todam_in = reader.Section(todam_name, SectionEncoding::kDelta);
    if (!todam_in.ok()) return todam_in.status();
    st = DecodeTodam(todam_in.value(), todam_name, num_zones, num_pois,
                     &state->todam);
    if (!st.ok()) return st;

    // A state from before trip columns were persisted cannot be patched
    // trip by trip. It is dropped: the restored store rebuilds it on
    // demand, which history-independence makes equal to the state.
    const std::string costs_name = LabelSection(i, "trip_costs");
    if (!reader.Has(costs_name)) continue;
    auto costs_in = reader.Section(costs_name, SectionEncoding::kStruct);
    if (!costs_in.ok()) return costs_in.status();
    st = DecodeTripCosts(costs_in.value(), costs_name, state.get());
    if (!st.ok()) return st;
    // Labels are not stored (a version-1 file's `labels` section is never
    // read): each is the aggregation of its zone's trip columns.
    state->labels.resize(num_zones);
    state->AggregateZones(serve::AllZones(num_zones));

    restored.label_states.emplace_back(key, std::move(state));
  }
  return restored;
}

util::Status SaveSnapshotImpl(const serve::Scenario& scenario,
                              uint32_t next_poi_id, const std::string& path,
                              uint64_t base_sequence) {
  // Sort the materialised states by canonical key so the same serving
  // state always writes byte-identical snapshots (the memo map iterates in
  // hash order).
  auto states = scenario.MaterializedStates();
  std::sort(states.begin(), states.end(),
            [](const auto& a, const auto& b) {
              return a.first.Canonical() < b.first.Canonical();
            });
  const synth::City& city = scenario.base_city();
  const serve::OfflineState& offline = scenario.offline();

  Writer writer;
  util::Status st = writer.Open(path);
  if (!st.ok()) return st;
  auto add = [&st, &writer](const std::string& name, SectionEncoding enc,
                            std::vector<uint8_t> payload, uint64_t count) {
    if (st.ok()) st = writer.AddSection(name, enc, std::move(payload), count);
  };

  add(kMeta, SectionEncoding::kStruct,
      EncodeMeta(scenario, base_sequence, next_poi_id, states.size()), 1);
  add(kCitySpec, SectionEncoding::kStruct, EncodeSpec(city), 1);
  add(kCityZones, SectionEncoding::kStruct, EncodeZones(city.zones),
      city.zones.size());
  add(kCityRoad, SectionEncoding::kStruct, EncodeRoad(city),
      city.road.num_nodes());
  add(kCityPois, SectionEncoding::kStruct, [&city] {
        std::vector<uint8_t> b;
        PutPois(&b, city.pois);
        return b;
      }(),
      city.pois.size());
  add(kFeedStops, SectionEncoding::kStruct, EncodeStops(city.feed),
      city.feed.num_stops());
  add(kFeedRoutes, SectionEncoding::kStruct, EncodeRoutes(city.feed),
      city.feed.num_routes());
  add(kFeedTrips, SectionEncoding::kStruct, EncodeTrips(city.feed),
      city.feed.num_trips());
  add(kFeedStopTimes, SectionEncoding::kDelta, EncodeStopTimes(city.feed),
      city.feed.num_stop_times());
  add(kOfflineInterval, SectionEncoding::kStruct, EncodeInterval(offline), 1);
  add(kOfflineIso, SectionEncoding::kStruct,
      EncodeIsochrones(*offline.isochrones), offline.isochrones->size());
  add(kOfflineHop, SectionEncoding::kDelta, EncodeHops(*offline.hop_trees),
      offline.hop_trees->num_zones());
  add(kScenarioPois, SectionEncoding::kStruct, [&scenario] {
        std::vector<uint8_t> b;
        PutPois(&b, scenario.pois());
        return b;
      }(),
      scenario.pois().size());
  add(kNetworkWalkScale, SectionEncoding::kRaw,
      EncodeRawDoubles({scenario.walk_scale()}), 1);

  for (size_t i = 0; i < states.size(); ++i) {
    const serve::LabelKey& key = states[i].first;
    const serve::ExactLabelState& state = *states[i].second;
    add(LabelSection(i, "key"), SectionEncoding::kStruct,
        EncodeLabelKey(key), 1);
    add(LabelSection(i, "todam"), SectionEncoding::kDelta,
        EncodeTodam(state.todam), state.todam.num_trips());
    add(LabelSection(i, "trip_costs"), SectionEncoding::kStruct,
        EncodeTripCosts(state), state.trip_costs.size());
  }
  if (!st.ok()) return st;
  return writer.Finish();
}

}  // namespace

util::Status SaveSnapshot(const serve::Scenario& scenario,
                          uint32_t next_poi_id, const std::string& path,
                          uint64_t base_sequence) {
  try {
    return SaveSnapshotImpl(scenario, next_poi_id, path, base_sequence);
  } catch (const std::exception& e) {
    // Injected faults (failpoints) and allocation failures surface as a
    // clean status; the Writer removes its temporary file, so `path` keeps
    // what it held before.
    return util::Status::IoError(std::string("snapshot save failed: ") +
                                 e.what());
  }
}

util::Result<serve::RestoredScenario> LoadSnapshot(const std::string& path) {
  try {
    return LoadSnapshotImpl(path);
  } catch (const std::exception& e) {
    return util::Status::IoError(std::string("snapshot load failed: ") +
                                 e.what());
  }
}

util::Result<SnapshotInfo> InspectSnapshot(const std::string& path) {
  Reader reader;
  util::Status st = reader.Open(path);
  if (!st.ok()) return st;

  auto meta = reader.Section(kMeta, SectionEncoding::kStruct);
  if (!meta.ok()) return meta.status();
  ByteReader in = meta.value();
  SnapshotInfo info;
  uint64_t next_poi_id = 0;
  bool ok = in.ReadVarint64(&info.source_epoch) &&
            in.ReadVarint64(&next_poi_id) &&
            in.ReadVarint64(&info.num_label_states) &&
            in.ReadLengthPrefixed(&info.city_name) &&
            in.ReadLengthPrefixed(&info.interval_label) &&
            in.ReadVarint64(&info.num_zones) &&
            in.ReadVarint64(&info.num_pois) &&
            in.ReadVarint64(&info.num_stops) &&
            in.ReadVarint64(&info.num_trips) &&
            in.ReadVarint64(&info.num_stop_times);
  if (!ok) return Malformed(kMeta);
  info.next_poi_id = static_cast<uint32_t>(next_poi_id);
  info.format_version = reader.format_version();
  info.file_size = reader.file_size();
  info.sections = reader.sections();
  return info;
}

util::Status VerifySnapshot(const std::string& path) {
  Reader reader;
  util::Status st = reader.Open(path);
  if (!st.ok()) return st;
  return reader.VerifyAllBlocks();
}

}  // namespace staq::store
