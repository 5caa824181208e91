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
  trip_cost_.resize(num_trips);
  trip_flags_.resize(num_trips);

  // Every zone opens its own trip range; consecutive ranges make the
  // block's flat numbering the capture index.
  capture_ = capture;
  for (size_t b = 0; capture != nullptr && b < num_zones; ++b) {
    const size_t base = capture->AppendZone(zone_trip_off_[b + 1] -
                                            zone_trip_off_[b]);
    if (b == 0) capture_base_ = base;
  }
  if (num_trips > 0) RouteBlockWindow(todam, zones, num_zones, pois, kind, day);
  capture_ = nullptr;
  for (size_t b = 0; b < num_zones; ++b) {
    out[b] = ZoneLabel{};
    out[b].num_trips =
        static_cast<uint32_t>(zone_trip_off_[b + 1] - zone_trip_off_[b]);
    AggregateInTripOrder(zone_trip_off_[b], &out[b]);
  }
}

ZoneLabel LabelingEngine::LabelZone(const Todam& todam, uint32_t zone,
                                    const std::vector<synth::Poi>& pois,
                                    CostKind kind, gtfs::Day day) {
  ZoneLabel label;
  LabelBlock(todam, &zone, 1, pois, kind, day, &label);
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

void LabelingEngine::AggregateInTripOrder(size_t begin,
                                          ZoneLabel* label) const {
  // ORIGINAL trip order, so the floating-point sums equal one Route per
  // trip accumulated as the TODAM lists them, bit for bit.
  double sum = 0.0, sum_sq = 0.0;
  uint32_t feasible = 0;
  for (size_t i = begin; i < begin + label->num_trips; ++i) {
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

void LabelingEngine::RouteBlockWindow(const Todam& todam,
                                      const uint32_t* zones, size_t num_zones,
                                      const std::vector<synth::Poi>& pois,
                                      CostKind kind, gtfs::Day day) {
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
    RecordTrip(order_[k], profile_journeys_[group_slots_[k]], kind);
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
