#include "core/labeling.h"

#include <algorithm>
#include <cmath>

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

LabelingEngine::LabelingEngine(const synth::City* city,
                               router::Router* router,
                               router::GacWeights gac_weights)
    : city_(city), router_(router), gac_weights_(gac_weights) {}

void LabelingEngine::SetRouter(router::Router* router) {
  router_ = router;
  InvalidateAccessStopCache();
}

void LabelingEngine::InvalidateAccessStopCache() {
  std::fill(zone_access_valid_.begin(), zone_access_valid_.end(), 0);
}

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

ZoneLabel LabelingEngine::LabelZone(const Todam& todam, uint32_t zone,
                                    const std::vector<synth::Poi>& pois,
                                    CostKind kind, gtfs::Day day) {
  ZoneLabel label;
  const std::vector<TripEntry>& trips = todam.TripsFor(zone);
  label.num_trips = static_cast<uint32_t>(trips.size());
  spq_count_ += trips.size();
  if (trips.empty()) return label;

  // Trip indices sorted by departure: both strategies walk the zone's
  // departure groups in this order.
  order_.resize(trips.size());
  for (uint32_t i = 0; i < trips.size(); ++i) order_[i] = i;
  std::sort(order_.begin(), order_.end(), [&](uint32_t a, uint32_t b) {
    return trips[a].depart < trips[b].depart;
  });
  if (poi_stamp_.size() < pois.size()) {
    poi_stamp_.resize(pois.size(), 0);
    poi_slot_.resize(pois.size(), 0);
  }
  trip_cost_.resize(trips.size());
  trip_flags_.resize(trips.size());

  if (router_->csa() != nullptr) {
    RouteZoneWindow(trips, zone, pois, kind, day);
  } else {
    RouteZoneGroups(trips, zone, pois, kind, day);
  }
  AggregateInTripOrder(&label);
  return label;
}

void LabelingEngine::RecordTrip(uint32_t idx, const router::Journey& journey,
                                CostKind kind) {
  if (capture_ != nullptr) capture_->Record(capture_base_ + idx, journey);
  uint8_t flags = 0;
  double cost = 0.0;
  if (journey.feasible) {
    flags |= 1;
    if (journey.IsWalkOnly()) flags |= 2;
    cost = kind == CostKind::kJourneyTime
               ? journey.JourneyTimeSeconds()
               : router::GeneralizedAccessCost(journey, gac_weights_);
  }
  trip_cost_[idx] = cost;
  trip_flags_[idx] = flags;
}

void LabelingEngine::AggregateInTripOrder(ZoneLabel* label) const {
  // ORIGINAL trip order, so the floating-point sums equal one Route per
  // trip accumulated as the TODAM lists them, bit for bit.
  double sum = 0.0, sum_sq = 0.0;
  uint32_t feasible = 0;
  for (size_t i = 0; i < label->num_trips; ++i) {
    if (!(trip_flags_[i] & 1)) {
      ++label->num_infeasible;
      continue;
    }
    if (trip_flags_[i] & 2) ++label->num_walk_only;
    double cost = trip_cost_[i];
    sum += cost;
    sum_sq += cost * cost;
    ++feasible;
  }
  if (feasible > 0) {
    double n = static_cast<double>(feasible);
    label->mac = sum / n;
    double var = sum_sq / n - label->mac * label->mac;
    label->acsd = var > 0 ? std::sqrt(var) : 0.0;
  }
}

void LabelingEngine::RouteZoneGroups(const std::vector<TripEntry>& trips,
                                     uint32_t zone,
                                     const std::vector<synth::Poi>& pois,
                                     CostKind kind, gtfs::Day day) {
  const geo::Point& origin = city_->zones[zone].centroid;
  const std::vector<router::WalkHop>& origin_access = CachedAccessStops(zone);

  // One RouteMany per departure group, with repeated POIs inside a group
  // collapsed to a single target.
  size_t g = 0;
  while (g < order_.size()) {
    gtfs::TimeOfDay depart = trips[order_[g]].depart;
    size_t g_end = g;
    ++group_stamp_;
    group_points_.clear();
    group_slots_.clear();
    while (g_end < order_.size() && trips[order_[g_end]].depart == depart) {
      uint32_t poi = trips[order_[g_end]].poi;
      if (poi_stamp_[poi] != group_stamp_) {
        poi_stamp_[poi] = group_stamp_;
        poi_slot_[poi] = static_cast<uint32_t>(group_points_.size());
        group_points_.push_back(pois[poi].position);
      }
      group_slots_.push_back(poi_slot_[poi]);
      ++g_end;
    }

    group_journeys_.resize(group_points_.size());
    router_->RouteMany(origin, group_points_.data(), group_points_.size(),
                       day, depart, group_journeys_.data(), &origin_access);
    ++expansion_count_;

    for (size_t k = g; k < g_end; ++k) {
      RecordTrip(order_[k], group_journeys_[group_slots_[k - g]], kind);
    }
    g = g_end;
  }
}

void LabelingEngine::RouteZoneWindow(const std::vector<TripEntry>& trips,
                                     uint32_t zone,
                                     const std::vector<synth::Poi>& pois,
                                     CostKind kind, gtfs::Day day) {
  const geo::Point& origin = city_->zones[zone].centroid;
  const std::vector<router::WalkHop>& origin_access = CachedAccessStops(zone);
  if (poi_zone_stamp_.size() < pois.size()) {
    poi_zone_stamp_.resize(pois.size(), 0);
    poi_zone_slot_.resize(pois.size(), 0);
  }

  // Every departure group becomes one lane of a single window scan. The
  // zone's POIs are deduplicated twice: once zone-wide (the unique-target
  // table every lane indexes into) and once per group (a lane must list
  // each of its targets exactly once). Lane member/journey lists are flat
  // slices of two shared arrays; group_slots_ records each trip's flat
  // journey position.
  ++zone_stamp_;
  unique_points_.clear();
  profile_members_.clear();
  lane_offsets_.clear();
  lanes_.clear();
  group_slots_.clear();
  size_t g = 0;
  while (g < order_.size()) {
    gtfs::TimeOfDay depart = trips[order_[g]].depart;
    lane_offsets_.push_back(profile_members_.size());
    router::WindowLane lane;
    lane.depart = depart;
    lanes_.push_back(lane);
    ++group_stamp_;
    while (g < order_.size() && trips[order_[g]].depart == depart) {
      uint32_t poi = trips[order_[g]].poi;
      if (poi_zone_stamp_[poi] != zone_stamp_) {
        poi_zone_stamp_[poi] = zone_stamp_;
        poi_zone_slot_[poi] =
            static_cast<uint32_t>(unique_points_.size());
        unique_points_.push_back(pois[poi].position);
      }
      if (poi_stamp_[poi] != group_stamp_) {
        poi_stamp_[poi] = group_stamp_;
        poi_slot_[poi] = static_cast<uint32_t>(profile_members_.size());
        profile_members_.push_back(poi_zone_slot_[poi]);
      }
      group_slots_.push_back(poi_slot_[poi]);
      ++g;
    }
  }
  lane_offsets_.push_back(profile_members_.size());

  profile_journeys_.resize(profile_members_.size());
  for (size_t l = 0; l < lanes_.size(); ++l) {
    lanes_[l].targets = profile_members_.data() + lane_offsets_[l];
    lanes_[l].num_targets = lane_offsets_[l + 1] - lane_offsets_[l];
    lanes_[l].out = profile_journeys_.data() + lane_offsets_[l];
  }
  router_->csa()->RouteWindow(origin, unique_points_.data(),
                              unique_points_.size(), lanes_.data(),
                              lanes_.size(), day, &origin_access);
  ++expansion_count_;

  for (size_t k = 0; k < order_.size(); ++k) {
    RecordTrip(order_[k], profile_journeys_[group_slots_[k]], kind);
  }
}

ZoneLabel LabelingEngine::CaptureZoneCosts(const Todam& todam, uint32_t zone,
                                           const std::vector<synth::Poi>& pois,
                                           gtfs::Day day,
                                           TripCostColumns* columns) {
  capture_ = columns;
  capture_base_ = columns->AppendZone(todam.TripsFor(zone).size());
  ZoneLabel label = LabelZone(todam, zone, pois, CostKind::kJourneyTime, day);
  capture_ = nullptr;
  return label;
}

std::vector<ZoneLabel> LabelingEngine::LabelZones(
    const Todam& todam, const std::vector<uint32_t>& zones,
    const std::vector<synth::Poi>& pois, CostKind kind, gtfs::Day day) {
  std::vector<ZoneLabel> out;
  out.reserve(zones.size());
  for (uint32_t z : zones) {
    out.push_back(LabelZone(todam, z, pois, kind, day));
  }
  return out;
}

}  // namespace staq::core
