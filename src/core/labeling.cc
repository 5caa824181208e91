#include "core/labeling.h"

#include <algorithm>

#include "core/columnar.h"

namespace staq::core {

const char* CostKindName(CostKind kind) {
  switch (kind) {
    case CostKind::kJourneyTime:
      return "JT";
    case CostKind::kGeneralizedCost:
      return "GAC";
  }
  return "unknown";
}

size_t TripCostColumns::AppendZone(size_t trips) {
  size_t base = flags.size();
  zone_offsets.push_back(base + trips);
  flags.resize(base + trips, 0);
  jt.resize(base + trips, 0.0);
  gac_parts.resize((base + trips) * kNumGacParts, 0.0);
  fare.resize(base + trips, 0.0);
  return base;
}

void TripCostColumns::StoreZone(size_t base, const TripCostColumns& zone) {
  std::copy(zone.flags.begin(), zone.flags.end(), flags.begin() + base);
  std::copy(zone.jt.begin(), zone.jt.end(), jt.begin() + base);
  std::copy(zone.gac_parts.begin(), zone.gac_parts.end(),
            gac_parts.begin() + base * kNumGacParts);
  std::copy(zone.fare.begin(), zone.fare.end(), fare.begin() + base);
}

void TripCostColumns::Record(size_t index, const router::Journey& journey) {
  if (!journey.feasible) return;  // slot stays zeroed, flags stay 0
  uint8_t f = 1;
  if (journey.IsWalkOnly()) f |= 2;
  flags[index] = f;
  jt[index] = journey.JourneyTimeSeconds();
  double* parts = gac_parts.data() + index * kNumGacParts;
  // Component order matches Eq. 1's left-associated sum: TAN (access +
  // transfer walk), WT, IVT, ET, transfers.
  parts[0] = journey.access_walk_s + journey.transfer_walk_s;
  parts[1] = journey.wait_s;
  parts[2] = journey.in_vehicle_s;
  parts[3] = journey.egress_walk_s;
  parts[4] = journey.num_boardings > 1 ? journey.num_boardings - 1 : 0;
  fare[index] = journey.total_fare;
}

void TripCostColumns::Clear() {
  zone_offsets.assign(1, 0);
  flags.clear();
  jt.clear();
  gac_parts.clear();
  fare.clear();
}

LabelingEngine::LabelingEngine(const synth::City* city,
                               router::Router* router,
                               router::GacWeights gac_weights)
    : city_(city), router_(router), gac_weights_(gac_weights) {}

const std::vector<router::WalkHop>& LabelingEngine::CachedAccessStops(
    uint32_t zone) {
  if (zone_access_valid_.size() <= zone) {
    zone_access_valid_.resize(city_->zones.size(), 0);
    zone_access_.resize(city_->zones.size());
  }
  if (!zone_access_valid_[zone]) {
    router_->walk_table().AccessStops(city_->zones[zone].centroid,
                                      &zone_access_[zone], &neighbor_scratch_);
    zone_access_valid_[zone] = 1;
  }
  return zone_access_[zone];
}

void LabelingEngine::LabelBlock(const Todam& todam, const uint32_t* zones,
                                size_t num_zones,
                                const std::vector<synth::Poi>& pois,
                                CostKind kind, gtfs::Day day, ZoneLabel* out,
                                TripCostColumns* capture) {
  // Flat trip numbering and, per zone, its trip indices sorted by
  // departure: the window scan's lanes are each zone's departure groups in
  // this order.
  zone_trip_off_.assign(1, 0);
  order_.clear();
  for (size_t b = 0; b < num_zones; ++b) {
    const std::vector<TripEntry>& trips = todam.TripsFor(zones[b]);
    const uint32_t base = static_cast<uint32_t>(zone_trip_off_.back());
    for (uint32_t i = 0; i < trips.size(); ++i) order_.push_back(base + i);
    std::sort(order_.begin() + base, order_.end(),
              [&](uint32_t x, uint32_t y) {
                return trips[x - base].depart < trips[y - base].depart;
              });
    zone_trip_off_.push_back(order_.size());
  }
  const size_t num_trips = order_.size();
  spq_count_ += num_trips;
  if (poi_stamp_.size() < pois.size()) {
    poi_stamp_.resize(pois.size(), 0);
    poi_slot_.resize(pois.size(), 0);
  }
  // Every trip's cost basis lands in the block's columns, one trip range
  // per zone; each label is derived from them, and a capture receives
  // them as they are.
  block_columns_.Clear();
  for (size_t b = 0; b < num_zones; ++b) {
    block_columns_.AppendZone(zone_trip_off_[b + 1] - zone_trip_off_[b]);
  }
  if (num_trips > 0) RouteBlockWindow(todam, zones, num_zones, pois, day);
  MemberCostColumn(block_columns_, CostMember{kind, gac_weights_},
                   &block_costs_);
  const std::vector<ZoneLabel> labels =
      AggregateZoneLabels(block_columns_, block_costs_);
  std::copy(labels.begin(), labels.end(), out);
  if (capture != nullptr) {
    size_t base = 0;
    for (size_t b = 0; b < num_zones; ++b) {
      const size_t zone_base = capture->AppendZone(
          zone_trip_off_[b + 1] - zone_trip_off_[b]);
      if (b == 0) base = zone_base;
    }
    capture->StoreZone(base, block_columns_);
  }
}

ZoneLabel LabelingEngine::LabelZone(const Todam& todam, uint32_t zone,
                                    const std::vector<synth::Poi>& pois,
                                    CostKind kind, gtfs::Day day) {
  ZoneLabel label;
  LabelBlock(todam, &zone, 1, pois, kind, day, &label);
  return label;
}

void LabelingEngine::RouteBlockWindow(const Todam& todam,
                                      const uint32_t* zones, size_t num_zones,
                                      const std::vector<synth::Poi>& pois,
                                      gtfs::Day day) {
  if (poi_block_stamp_.size() < pois.size()) {
    poi_block_stamp_.resize(pois.size(), 0);
    poi_block_slot_.resize(pois.size(), 0);
  }
  // Access lists first: the cache may grow on a zone's first lookup, so
  // the origin table takes its pointers once every lookup is done.
  for (size_t b = 0; b < num_zones; ++b) CachedAccessStops(zones[b]);
  origins_.clear();
  for (size_t b = 0; b < num_zones; ++b) {
    origins_.push_back(router::WindowOrigin{city_->zones[zones[b]].centroid,
                                            &zone_access_[zones[b]]});
  }

  // Every departure group of every zone becomes one lane of a single
  // window scan, with its zone as origin. The block's POIs are
  // deduplicated twice: once block-wide (the unique-target table every
  // lane indexes into) and once per group (a lane must list each of its
  // targets exactly once). Lane member/journey lists are flat slices of
  // two shared arrays; group_slots_ records each trip's flat journey
  // position, in order_'s order.
  ++block_stamp_;
  unique_points_.clear();
  profile_members_.clear();
  lane_offsets_.clear();
  lanes_.clear();
  group_slots_.clear();
  for (size_t b = 0; b < num_zones; ++b) {
    const std::vector<TripEntry>& trips = todam.TripsFor(zones[b]);
    const size_t base = zone_trip_off_[b];
    size_t g = base;
    while (g < zone_trip_off_[b + 1]) {
      const gtfs::TimeOfDay depart = trips[order_[g] - base].depart;
      lane_offsets_.push_back(profile_members_.size());
      router::WindowLane lane;
      lane.depart = depart;
      lane.origin = static_cast<uint32_t>(b);
      lanes_.push_back(lane);
      ++group_stamp_;
      while (g < zone_trip_off_[b + 1] &&
             trips[order_[g] - base].depart == depart) {
        const uint32_t poi = trips[order_[g] - base].poi;
        if (poi_block_stamp_[poi] != block_stamp_) {
          poi_block_stamp_[poi] = block_stamp_;
          poi_block_slot_[poi] = static_cast<uint32_t>(unique_points_.size());
          unique_points_.push_back(pois[poi].position);
        }
        if (poi_stamp_[poi] != group_stamp_) {
          poi_stamp_[poi] = group_stamp_;
          poi_slot_[poi] = static_cast<uint32_t>(profile_members_.size());
          profile_members_.push_back(poi_block_slot_[poi]);
        }
        group_slots_.push_back(poi_slot_[poi]);
        ++g;
      }
    }
  }
  lane_offsets_.push_back(profile_members_.size());

  profile_journeys_.resize(profile_members_.size());
  for (size_t l = 0; l < lanes_.size(); ++l) {
    lanes_[l].targets = profile_members_.data() + lane_offsets_[l];
    lanes_[l].num_targets = lane_offsets_[l + 1] - lane_offsets_[l];
    lanes_[l].out = profile_journeys_.data() + lane_offsets_[l];
  }
  router_->csa()->RouteWindow(origins_.data(), origins_.size(),
                              unique_points_.data(), unique_points_.size(),
                              lanes_.data(), lanes_.size(), day);
  ++expansion_count_;

  for (size_t k = 0; k < order_.size(); ++k) {
    block_columns_.Record(order_[k], profile_journeys_[group_slots_[k]]);
  }
}

ZoneLabel LabelingEngine::CaptureZoneCosts(const Todam& todam, uint32_t zone,
                                           const std::vector<synth::Poi>& pois,
                                           gtfs::Day day,
                                           TripCostColumns* columns) {
  ZoneLabel label;
  LabelBlock(todam, &zone, 1, pois, CostKind::kJourneyTime, day, &label,
             columns);
  return label;
}

std::vector<ZoneLabel> LabelingEngine::LabelZones(
    const Todam& todam, const std::vector<uint32_t>& zones,
    const std::vector<synth::Poi>& pois, CostKind kind, gtfs::Day day) {
  std::vector<ZoneLabel> out(zones.size());
  for (size_t b = 0; b < zones.size(); b += kZoneBlock) {
    LabelBlock(todam, zones.data() + b, std::min(kZoneBlock, zones.size() - b),
               pois, kind, day, out.data() + b);
  }
  return out;
}

}  // namespace staq::core
