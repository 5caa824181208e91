#include "router/router.h"

#include <cmath>

#include <gtest/gtest.h>

#include "testing/label_correcting_router.h"
#include "testing/test_city.h"
#include "util/rng.h"

namespace staq::router {
namespace {

constexpr double kWalkSecondsPerMeter = 1.3 / 1.25;

// Every case runs twice with the same assertions: on the library Router
// (the connection scan) as RouterTest.<name>, and on the label-correcting
// oracle as LabelCorrectingRouterTest.<name>.
#define ROUTER_TEST(name)                       \
  template <class RouterT>                      \
  void name##On();                              \
  TEST(RouterTest, name) { name##On<Router>(); } \
  TEST(LabelCorrectingRouterTest, name) {       \
    name##On<testing::LabelCorrectingRouter>(); \
  }                                             \
  template <class RouterT>                      \
  void name##On()

ROUTER_TEST(SingleRideJourney) {
  gtfs::Feed feed = testing::LineFeed(600);
  RouterT router(&feed, RouterOptions{});
  // Origin 100 m from stop 0, destination 100 m from stop 2.
  Journey j = router.Route({0, 100}, {4000, 100}, gtfs::Day::kTuesday,
                           gtfs::MakeTime(7, 0));
  ASSERT_TRUE(j.feasible);
  EXPECT_EQ(j.num_boardings, 1);
  EXPECT_DOUBLE_EQ(j.total_fare, 2.0);

  int access = static_cast<int>(std::lround(100 * kWalkSecondsPerMeter));
  // Walk 104 s to stop 0 (07:01:44), board the 07:10, arrive stop 2 at
  // 07:20, walk 104 s.
  EXPECT_EQ(j.arrive, gtfs::MakeTime(7, 20) + access);
  EXPECT_NEAR(j.access_walk_s, 104, 1.0);
  EXPECT_NEAR(j.wait_s, 600 - access, 1.0);
  EXPECT_NEAR(j.in_vehicle_s, 600, 1e-9);
  EXPECT_NEAR(j.egress_walk_s, 104, 1.0);
  // Component sum equals total journey time.
  EXPECT_NEAR(j.access_walk_s + j.wait_s + j.in_vehicle_s + j.egress_walk_s,
              j.JourneyTimeSeconds(), 1.5);
}

ROUTER_TEST(CatchesExactDeparture) {
  gtfs::Feed feed = testing::LineFeed(600);
  RouterT router(&feed, RouterOptions{});
  // Standing at stop 0 exactly at 07:10 catches the 07:10 trip.
  Journey j = router.Route({0, 0}, {4000, 0}, gtfs::Day::kTuesday,
                           gtfs::MakeTime(7, 10));
  ASSERT_TRUE(j.feasible);
  EXPECT_EQ(j.arrive, gtfs::MakeTime(7, 20));
  EXPECT_EQ(j.wait_s, 0.0);
}

ROUTER_TEST(WalkOnlyWinsShortTrips) {
  gtfs::Feed feed = testing::LineFeed(600);
  RouterT router(&feed, RouterOptions{});
  Journey j = router.Route({0, 0}, {300, 0}, gtfs::Day::kTuesday,
                           gtfs::MakeTime(7, 0));
  ASSERT_TRUE(j.feasible);
  EXPECT_TRUE(j.IsWalkOnly());
  EXPECT_EQ(j.num_boardings, 0);
  EXPECT_NEAR(j.JourneyTimeSeconds(), 300 * kWalkSecondsPerMeter, 1.0);
  ASSERT_EQ(j.legs.size(), 1u);
  EXPECT_EQ(j.legs[0].type, JourneyLeg::Type::kWalk);
}

ROUTER_TEST(TransferJourney) {
  gtfs::Feed feed = testing::TransferFeed();
  RouterT router(&feed, RouterOptions{});
  Journey j = router.Route({0, 50}, {6000, 100}, gtfs::Day::kMonday,
                           gtfs::MakeTime(7, 0));
  ASSERT_TRUE(j.feasible);
  EXPECT_EQ(j.num_boardings, 2);
  EXPECT_DOUBLE_EQ(j.total_fare, 4.5);
  EXPECT_GT(j.transfer_walk_s, 0.0);
  // Ride A 07:10->07:15, walk 150 m, board B 07:22, arrive 07:27, walk 50m.
  EXPECT_EQ(j.arrive,
            gtfs::MakeTime(7, 27) +
                static_cast<int>(std::lround(50 * kWalkSecondsPerMeter)));
}

ROUTER_TEST(DayFilterMakesServiceInvisible) {
  gtfs::Feed feed = testing::LineFeed(600);  // weekdays only
  RouterT router(&feed, RouterOptions{});
  Journey sunday = router.Route({0, 100}, {4000, 100}, gtfs::Day::kSunday,
                                gtfs::MakeTime(7, 0));
  // No transit on Sunday: only the (long) walk remains.
  ASSERT_TRUE(sunday.feasible);
  EXPECT_TRUE(sunday.IsWalkOnly());
}

ROUTER_TEST(InfeasibleBeyondHorizon) {
  gtfs::Feed feed = testing::LineFeed(600);
  RouterOptions options;
  options.horizon_s = 600;  // 10 minutes
  RouterT router(&feed, options);
  // 40 km walk with no useful transit: infeasible within 10 min.
  Journey j = router.Route({0, 20000}, {40000, 20000}, gtfs::Day::kTuesday,
                           gtfs::MakeTime(7, 0));
  EXPECT_FALSE(j.feasible);
}

ROUTER_TEST(ZeroDistanceTrip) {
  gtfs::Feed feed = testing::LineFeed(600);
  RouterT router(&feed, RouterOptions{});
  Journey j = router.Route({500, 500}, {500, 500}, gtfs::Day::kTuesday,
                           gtfs::MakeTime(8, 0));
  ASSERT_TRUE(j.feasible);
  EXPECT_EQ(j.JourneyTimeSeconds(), 0.0);
}

ROUTER_TEST(AfterLastServiceFallsBackToWalk) {
  gtfs::Feed feed = testing::LineFeed(600);
  RouterT router(&feed, RouterOptions{});
  Journey j = router.Route({0, 100}, {4000, 100}, gtfs::Day::kTuesday,
                           gtfs::MakeTime(10, 0));
  ASSERT_TRUE(j.feasible);
  EXPECT_TRUE(j.IsWalkOnly());
}

ROUTER_TEST(BoardingWaitCapSkipsSparseService) {
  gtfs::Feed feed = testing::LineFeed(600);
  RouterOptions options;
  options.max_boarding_wait_s = 120;  // nobody waits 2+ minutes
  RouterT router(&feed, options);
  // Departing at 07:12: next bus is 07:20, an 8-minute wait — beyond the
  // cap, so the router walks instead.
  Journey j = router.Route({0, 0}, {4000, 0}, gtfs::Day::kTuesday,
                           gtfs::MakeTime(7, 12));
  ASSERT_TRUE(j.feasible);
  EXPECT_TRUE(j.IsWalkOnly());
  // Departing at 07:19 the wait is 1 minute: boarding happens.
  Journey quick = router.Route({0, 0}, {4000, 0}, gtfs::Day::kTuesday,
                               gtfs::MakeTime(7, 19));
  ASSERT_TRUE(quick.feasible);
  EXPECT_EQ(quick.num_boardings, 1);
}

ROUTER_TEST(AccessBudgetLimitsReachableStops) {
  gtfs::Feed feed = testing::LineFeed(600);
  RouterOptions options;
  options.walk.max_access_walk_s = 60;  // ~58 m of straight line
  RouterT router(&feed, options);
  // 100 m from the stop: outside the tightened access budget -> walk only.
  Journey j = router.Route({0, 100}, {4000, 100}, gtfs::Day::kTuesday,
                           gtfs::MakeTime(7, 0));
  ASSERT_TRUE(j.feasible);
  EXPECT_TRUE(j.IsWalkOnly());
}

ROUTER_TEST(LaterDepartureNeverArrivesEarlier) {
  gtfs::Feed feed = testing::TransferFeed();
  RouterT router(&feed, RouterOptions{});
  gtfs::TimeOfDay prev_arrival = 0;
  for (int m = 0; m <= 60; m += 7) {
    Journey j = router.Route({0, 50}, {6000, 100}, gtfs::Day::kMonday,
                             gtfs::MakeTime(7, m));
    ASSERT_TRUE(j.feasible);
    EXPECT_GE(j.arrive, prev_arrival);
    prev_arrival = j.arrive;
  }
}

ROUTER_TEST(ScratchReuseAcrossQueriesIsClean) {
  gtfs::Feed feed = testing::LineFeed(600);
  RouterT router(&feed, RouterOptions{});
  Journey first = router.Route({0, 100}, {4000, 100}, gtfs::Day::kTuesday,
                               gtfs::MakeTime(7, 0));
  // Run 50 other queries, then repeat the first: identical answer.
  util::Rng rng(3);
  for (int i = 0; i < 50; ++i) {
    router.Route({rng.Uniform(0, 4000), rng.Uniform(0, 500)},
                 {rng.Uniform(0, 4000), rng.Uniform(0, 500)},
                 gtfs::Day::kTuesday,
                 gtfs::MakeTime(7, static_cast<int>(rng.UniformU64(60))));
  }
  Journey again = router.Route({0, 100}, {4000, 100}, gtfs::Day::kTuesday,
                               gtfs::MakeTime(7, 0));
  EXPECT_EQ(first.arrive, again.arrive);
  EXPECT_EQ(first.num_boardings, again.num_boardings);
  EXPECT_DOUBLE_EQ(first.wait_s, again.wait_s);
}

ROUTER_TEST(ComponentsSumToJourneyTime) {
  // Property over a synthetic city: journey component decomposition is
  // internally consistent for every feasible trip.
  synth::City city = testing::TinyCity();
  RouterT router(&city.feed, RouterOptions{});
  util::Rng rng(77);
  int checked = 0;
  for (int i = 0; i < 200; ++i) {
    geo::Point o{rng.Uniform(city.extent.min_x, city.extent.max_x),
                 rng.Uniform(city.extent.min_y, city.extent.max_y)};
    geo::Point d{rng.Uniform(city.extent.min_x, city.extent.max_x),
                 rng.Uniform(city.extent.min_y, city.extent.max_y)};
    Journey j = router.Route(o, d, gtfs::Day::kTuesday,
                             gtfs::MakeTime(7, static_cast<int>(rng.UniformU64(120))));
    if (!j.feasible) continue;
    ++checked;
    double components = j.access_walk_s + j.transfer_walk_s + j.wait_s +
                        j.in_vehicle_s + j.egress_walk_s;
    // Rounding of each walk leg to whole seconds bounds the gap.
    EXPECT_NEAR(components, j.JourneyTimeSeconds(), 3.0);
    EXPECT_GE(j.JourneyTimeSeconds(), 0.0);
    // Legs are contiguous in time.
    for (size_t l = 1; l < j.legs.size(); ++l) {
      EXPECT_GE(j.legs[l].start, j.legs[l - 1].end - 1);
    }
  }
  EXPECT_GT(checked, 100);
}

ROUTER_TEST(TransitNeverWorseThanNotUsingIt) {
  // The router's answer is never slower than the pure walk baseline.
  synth::City city = testing::TinyCity();
  RouterT router(&city.feed, RouterOptions{});
  WalkParams walk;
  util::Rng rng(78);
  for (int i = 0; i < 100; ++i) {
    geo::Point o{rng.Uniform(city.extent.min_x, city.extent.max_x),
                 rng.Uniform(city.extent.min_y, city.extent.max_y)};
    geo::Point d{rng.Uniform(city.extent.min_x, city.extent.max_x),
                 rng.Uniform(city.extent.min_y, city.extent.max_y)};
    Journey j = router.Route(o, d, gtfs::Day::kTuesday, gtfs::MakeTime(8, 0));
    if (!j.feasible) continue;
    double walk_s = walk.WalkSeconds(geo::Distance(o, d));
    EXPECT_LE(j.JourneyTimeSeconds(), walk_s + 1.0);
  }
}

}  // namespace
}  // namespace staq::router
