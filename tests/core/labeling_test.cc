#include "core/labeling.h"

#include <cmath>

#include <gtest/gtest.h>

#include "testing/per_trip_labeling.h"
#include "testing/test_city.h"

namespace staq::core {
namespace {

class LabelingTest : public ::testing::Test {
 protected:
  LabelingTest()
      : city_(testing::TinyCity()),
        router_(&city_.feed, router::RouterOptions{}) {
    pois_ = city_.PoisOf(synth::PoiCategory::kSchool);
    GravityConfig gravity;
    gravity.sample_rate_per_hour = 4;
    gravity.keep_scale = 2.0;
    TodamBuilder builder(city_.zones, pois_, gtfs::WeekdayAmPeak(), gravity);
    todam_ = builder.BuildGravity(1);
  }

  synth::City city_;
  router::Router router_;
  std::vector<synth::Poi> pois_;
  Todam todam_;
};

TEST_F(LabelingTest, CostKindNames) {
  EXPECT_STREQ(CostKindName(CostKind::kJourneyTime), "JT");
  EXPECT_STREQ(CostKindName(CostKind::kGeneralizedCost), "GAC");
}

TEST_F(LabelingTest, LabelsAreConsistentAggregates) {
  LabelingEngine engine(&city_, &router_);
  ZoneLabel label = engine.LabelZone(todam_, 0, pois_,
                                     CostKind::kJourneyTime,
                                     gtfs::Day::kTuesday);
  EXPECT_EQ(label.num_trips, todam_.TripsFor(0).size());
  EXPECT_GE(label.mac, 0.0);
  EXPECT_GE(label.acsd, 0.0);
  EXPECT_LE(label.num_infeasible + label.num_walk_only, label.num_trips);
}

TEST_F(LabelingTest, MacMatchesManualRouting) {
  LabelingEngine engine(&city_, &router_);
  uint32_t zone = 3;
  ZoneLabel label = engine.LabelZone(todam_, zone, pois_,
                                     CostKind::kJourneyTime,
                                     gtfs::Day::kTuesday);
  // Re-run the SPQs manually with a fresh router.
  router::Router fresh(&city_.feed, router::RouterOptions{});
  double sum = 0, sum_sq = 0;
  int feasible = 0;
  for (const TripEntry& trip : todam_.TripsFor(zone)) {
    auto journey = fresh.Route(city_.zones[zone].centroid,
                               pois_[trip.poi].position,
                               gtfs::Day::kTuesday, trip.depart);
    if (!journey.feasible) continue;
    double jt = journey.JourneyTimeSeconds();
    sum += jt;
    sum_sq += jt * jt;
    ++feasible;
  }
  ASSERT_GT(feasible, 0);
  double mac = sum / feasible;
  double var = sum_sq / feasible - mac * mac;
  EXPECT_NEAR(label.mac, mac, 1e-9);
  EXPECT_NEAR(label.acsd, std::sqrt(std::max(0.0, var)), 1e-6);
}

TEST_F(LabelingTest, GacLabelsExceedJtForSameZone) {
  // GAC weights walking/waiting >= 1x and adds fares, so for the same
  // trips the mean generalized cost exceeds the mean journey time.
  LabelingEngine engine(&city_, &router_);
  ZoneLabel jt = engine.LabelZone(todam_, 5, pois_, CostKind::kJourneyTime,
                                  gtfs::Day::kTuesday);
  ZoneLabel gac = engine.LabelZone(todam_, 5, pois_,
                                   CostKind::kGeneralizedCost,
                                   gtfs::Day::kTuesday);
  ASSERT_GT(jt.num_trips, 0u);
  EXPECT_GT(gac.mac, jt.mac);
}

TEST_F(LabelingTest, SpqCountAccumulates) {
  LabelingEngine engine(&city_, &router_);
  EXPECT_EQ(engine.spq_count(), 0u);
  engine.LabelZone(todam_, 0, pois_, CostKind::kJourneyTime,
                   gtfs::Day::kTuesday);
  uint64_t after_one = engine.spq_count();
  EXPECT_EQ(after_one, todam_.TripsFor(0).size());
  engine.LabelZone(todam_, 1, pois_, CostKind::kJourneyTime,
                   gtfs::Day::kTuesday);
  EXPECT_EQ(engine.spq_count(), after_one + todam_.TripsFor(1).size());
}

TEST_F(LabelingTest, LabelZonesBatchesInOrder) {
  LabelingEngine engine(&city_, &router_);
  std::vector<uint32_t> zones{2, 8, 15};
  auto labels = engine.LabelZones(todam_, zones, pois_,
                                  CostKind::kJourneyTime,
                                  gtfs::Day::kTuesday);
  ASSERT_EQ(labels.size(), 3u);
  for (size_t i = 0; i < zones.size(); ++i) {
    EXPECT_EQ(labels[i].num_trips, todam_.TripsFor(zones[i]).size());
  }
}

TEST_F(LabelingTest, ZoneWithNoTripsGetsZeroLabel) {
  // Build a TODAM over a single distant POI with negligible keep scale so
  // some zones draw no trips at all.
  GravityConfig tiny;
  tiny.sample_rate_per_hour = 1;
  tiny.keep_scale = 1e-9;
  TodamBuilder builder(city_.zones, pois_, gtfs::WeekdayAmPeak(), tiny);
  Todam sparse = builder.BuildGravity(1);

  LabelingEngine engine(&city_, &router_);
  bool found_empty = false;
  for (uint32_t z = 0; z < sparse.num_zones() && !found_empty; ++z) {
    if (!sparse.TripsFor(z).empty()) continue;
    found_empty = true;
    ZoneLabel label = engine.LabelZone(sparse, z, pois_,
                                       CostKind::kJourneyTime,
                                       gtfs::Day::kTuesday);
    EXPECT_EQ(label.num_trips, 0u);
    EXPECT_EQ(label.mac, 0.0);
    EXPECT_EQ(label.acsd, 0.0);
  }
  EXPECT_TRUE(found_empty);
}

TEST_F(LabelingTest, BatchedModeBitIdenticalToPerTrip) {
  // The tentpole invariant: the one-to-many batched scheduler must
  // reproduce one Route per trip EXACTLY — same floating-point aggregates,
  // not merely close ones.
  router::Router oracle_router(&city_.feed, router::RouterOptions{});
  for (CostKind kind : {CostKind::kJourneyTime, CostKind::kGeneralizedCost}) {
    LabelingEngine batched(&city_, &router_);
    for (uint32_t zone = 0; zone < todam_.num_zones(); ++zone) {
      ZoneLabel a = batched.LabelZone(todam_, zone, pois_, kind,
                                      gtfs::Day::kTuesday);
      ZoneLabel b = testing::PerTripLabel(&oracle_router, city_, todam_, zone,
                                          pois_, kind, gtfs::Day::kTuesday);
      EXPECT_EQ(a.mac, b.mac) << "zone " << zone;
      EXPECT_EQ(a.acsd, b.acsd) << "zone " << zone;
      EXPECT_EQ(a.num_trips, b.num_trips) << "zone " << zone;
      EXPECT_EQ(a.num_infeasible, b.num_infeasible) << "zone " << zone;
      EXPECT_EQ(a.num_walk_only, b.num_walk_only) << "zone " << zone;
    }
    EXPECT_EQ(batched.spq_count(), todam_.num_trips());
  }
}

TEST_F(LabelingTest, BatchedModeDispatchesFewerExpansions) {
  LabelingEngine batched(&city_, &router_);
  uint64_t trips = 0;
  for (uint32_t zone = 0; zone < todam_.num_zones(); ++zone) {
    batched.LabelZone(todam_, zone, pois_, CostKind::kJourneyTime,
                      gtfs::Day::kTuesday);
    trips += todam_.TripsFor(zone).size();
  }
  EXPECT_EQ(batched.spq_count(), trips);
  // Every departure group costs one expansion, so the dispatch count can
  // never exceed the trip count (and shrinks whenever departures collide).
  EXPECT_LE(batched.expansion_count(), batched.spq_count());
  EXPECT_GT(batched.expansion_count(), 0u);
}

TEST_F(LabelingTest, DeterministicAcrossEngines) {
  LabelingEngine a(&city_, &router_);
  ZoneLabel la = a.LabelZone(todam_, 4, pois_, CostKind::kGeneralizedCost,
                             gtfs::Day::kTuesday);
  router::Router router2(&city_.feed, router::RouterOptions{});
  LabelingEngine b(&city_, &router2);
  ZoneLabel lb = b.LabelZone(todam_, 4, pois_, CostKind::kGeneralizedCost,
                             gtfs::Day::kTuesday);
  EXPECT_DOUBLE_EQ(la.mac, lb.mac);
  EXPECT_DOUBLE_EQ(la.acsd, lb.acsd);
}

}  // namespace
}  // namespace staq::core
