// Golden equivalence for the batched SPQ path: RouteMany must reproduce the
// per-query router bit for bit — the batched labeling pipeline depends on
// this being exact, not approximate — and the router's answers must match
// the digests recorded across commits.
#include <cmath>
#include <vector>

#include <gtest/gtest.h>

#include "router/cost.h"
#include "router/csa.h"
#include "router/router.h"
#include "testing/digest.h"
#include "testing/label_correcting_router.h"
#include "testing/test_city.h"
#include "util/rng.h"

namespace staq::router {
namespace {

void ExpectSameJourney(const Journey& a, const Journey& b) {
  EXPECT_EQ(a.feasible, b.feasible);
  EXPECT_EQ(a.depart, b.depart);
  EXPECT_EQ(a.arrive, b.arrive);
  EXPECT_EQ(a.access_walk_s, b.access_walk_s);
  EXPECT_EQ(a.transfer_walk_s, b.transfer_walk_s);
  EXPECT_EQ(a.wait_s, b.wait_s);
  EXPECT_EQ(a.in_vehicle_s, b.in_vehicle_s);
  EXPECT_EQ(a.egress_walk_s, b.egress_walk_s);
  EXPECT_EQ(a.num_boardings, b.num_boardings);
  EXPECT_EQ(a.total_fare, b.total_fare);
  EXPECT_EQ(a.IsWalkOnly(), b.IsWalkOnly());
  EXPECT_EQ(a.JourneyTimeSeconds(), b.JourneyTimeSeconds());
  GacWeights w;
  EXPECT_EQ(GeneralizedAccessCost(a, w), GeneralizedAccessCost(b, w));
  ASSERT_EQ(a.legs.size(), b.legs.size());
  for (size_t i = 0; i < a.legs.size(); ++i) {
    EXPECT_EQ(a.legs[i].type, b.legs[i].type);
    EXPECT_EQ(a.legs[i].start, b.legs[i].start);
    EXPECT_EQ(a.legs[i].end, b.legs[i].end);
    EXPECT_EQ(a.legs[i].route, b.legs[i].route);
    EXPECT_EQ(a.legs[i].from_stop, b.legs[i].from_stop);
    EXPECT_EQ(a.legs[i].to_stop, b.legs[i].to_stop);
  }
}

// Sample origins/targets spread across the synthetic city, including points
// far outside the network (infeasible) and pairs closer than a walk.
struct QuerySet {
  std::vector<geo::Point> origins;
  std::vector<geo::Point> targets;
};

QuerySet SampleQueries(const synth::City& city, uint64_t seed) {
  QuerySet q;
  util::Rng rng(seed);
  const int64_t max_zone = static_cast<int64_t>(city.zones.size()) - 1;
  for (int i = 0; i < 6; ++i) {
    const auto& z =
        city.zones[static_cast<size_t>(rng.UniformInt(0, max_zone))];
    q.origins.push_back(z.centroid);
  }
  for (int i = 0; i < 10; ++i) {
    const auto& z =
        city.zones[static_cast<size_t>(rng.UniformInt(0, max_zone))];
    q.targets.push_back(
        geo::Point{z.centroid.x + rng.UniformDouble() * 200.0,
                   z.centroid.y - rng.UniformDouble() * 200.0});
  }
  // Unreachable target well outside any stop's walking reach.
  q.targets.push_back(geo::Point{1e7, 1e7});
  return q;
}

TEST(RouteManyTest, MatchesPerTargetRouteOnSyntheticCity) {
  synth::City city = testing::TinyCity();
  Router batched(&city.feed, RouterOptions{});
  Router single(&city.feed, RouterOptions{});
  QuerySet q = SampleQueries(city, /*seed=*/11);

  for (const geo::Point& origin : q.origins) {
    for (gtfs::TimeOfDay depart :
         {gtfs::MakeTime(7, 0), gtfs::MakeTime(8, 17) + 23,
          gtfs::MakeTime(12, 30)}) {
      std::vector<Journey> many =
          batched.RouteMany(origin, q.targets, gtfs::Day::kTuesday, depart);
      ASSERT_EQ(many.size(), q.targets.size());
      for (size_t t = 0; t < q.targets.size(); ++t) {
        Journey one = single.Route(origin, q.targets[t], gtfs::Day::kTuesday,
                                   depart);
        ExpectSameJourney(many[t], one);
      }
    }
  }
}

// Every field of a journey, legs included, as exact doubles for a digest.
void AppendJourney(const Journey& j, std::vector<double>* out) {
  out->insert(out->end(),
              {static_cast<double>(j.feasible), static_cast<double>(j.depart),
               static_cast<double>(j.arrive), j.access_walk_s,
               j.transfer_walk_s, j.wait_s, j.in_vehicle_s, j.egress_walk_s,
               static_cast<double>(j.num_boardings), j.total_fare,
               static_cast<double>(j.legs.size())});
  for (const JourneyLeg& leg : j.legs) {
    out->insert(out->end(), {static_cast<double>(leg.type),
                             static_cast<double>(leg.start),
                             static_cast<double>(leg.end),
                             static_cast<double>(leg.route),
                             static_cast<double>(leg.from_stop),
                             static_cast<double>(leg.to_stop)});
  }
}

// Cross-commit golden for the label-correcting oracle's answers: the
// sampled synthetic-city queries and the hand-built feeds, each journey
// reduced to its exact bits. The search's pruning (bounded relaxation,
// per-line boarding break) and its bucket queue must not change a leg,
// arrival, walk, boarding or fare; the digests were recorded when those
// were still checked against the unpruned binary-heap search, and hold
// unchanged since the search moved from the library to tests/testing.
TEST(RouteManyTest, JourneysMatchRecordedDigest) {
  synth::City city = testing::TinyCity();
  testing::LabelCorrectingRouter router(&city.feed, RouterOptions{});
  struct Case {
    uint64_t seed;
    gtfs::Day day;
    gtfs::TimeOfDay departs[2];
    uint64_t digest;
  };
  const Case cases[] = {
      {17, gtfs::Day::kWednesday,
       {gtfs::MakeTime(7, 45), gtfs::MakeTime(9, 3) + 41},
       0xb97643dd7669ddaeull},
      {19, gtfs::Day::kFriday,
       {gtfs::MakeTime(8, 12) + 7, gtfs::MakeTime(17, 30)},
       0x1d1d56835f9e1cdbull},
      {31, gtfs::Day::kTuesday,
       {gtfs::MakeTime(7, 58), gtfs::MakeTime(12, 4) + 13},
       0x53ac042b926194d5ull},
  };
  for (const Case& c : cases) {
    QuerySet q = SampleQueries(city, c.seed);
    std::vector<double> bits;
    for (const geo::Point& origin : q.origins) {
      for (const geo::Point& target : q.targets) {
        for (gtfs::TimeOfDay depart : c.departs) {
          AppendJourney(router.Route(origin, target, c.day, depart), &bits);
        }
      }
    }
    const uint64_t digest = testing::HexFloatDigest(bits);
    EXPECT_EQ(digest, c.digest)
        << "seed " << c.seed << " digest 0x" << std::hex << digest;
  }

  gtfs::Feed line = testing::LineFeed(600);
  gtfs::Feed transfer = testing::TransferFeed();
  const uint64_t feed_digests[] = {0x1eb8802c3b125daaull,
                                   0xb984683096d58c2cull};
  const gtfs::Feed* feeds[] = {&line, &transfer};
  for (size_t f = 0; f < 2; ++f) {
    testing::LabelCorrectingRouter feed_router(feeds[f], RouterOptions{});
    std::vector<double> bits;
    for (const geo::Point& target : std::vector<geo::Point>{
             {4000, 100}, {300, 0}, {6000, 100}, {0, 0}, {1e7, 1e7}}) {
      for (gtfs::TimeOfDay depart :
           {gtfs::MakeTime(7, 0), gtfs::MakeTime(7, 4) + 30}) {
        AppendJourney(
            feed_router.Route({0, 50}, target, gtfs::Day::kMonday, depart),
            &bits);
      }
    }
    const uint64_t digest = testing::HexFloatDigest(bits);
    EXPECT_EQ(digest, feed_digests[f])
        << "feed " << f << " digest 0x" << std::hex << digest;
  }
}

// Cross-commit golden for the Connection Scan engine's answers over the
// fixtures of JourneysMatchRecordedDigest: every leg, arrival, walk,
// boarding and fare of each RouteMany batch, and of one window scan per
// case whose lanes are every (origin, departure) pair (a lane equals its
// own RouteMany, so both share one digest). The connection scan breaks
// arrival ties in its own write order, so it is pinned by digests of its
// own, recorded before the label-correcting search left the library.
TEST(CsaJourneyDigestTest, RouteManyAndRouteWindowMatchRecordedDigest) {
  synth::City city = testing::TinyCity();
  Router router(&city.feed, RouterOptions{});
  struct Case {
    uint64_t seed;
    gtfs::Day day;
    gtfs::TimeOfDay departs[2];
    uint64_t digest;  // of the RouteMany batches and of the window scan
  };
  const Case cases[] = {
      {17, gtfs::Day::kWednesday,
       {gtfs::MakeTime(7, 45), gtfs::MakeTime(9, 3) + 41},
       0xd8703901da41a607ull},
      {19, gtfs::Day::kFriday,
       {gtfs::MakeTime(8, 12) + 7, gtfs::MakeTime(17, 30)},
       0x9e481ed60b15c67eull},
      {31, gtfs::Day::kTuesday,
       {gtfs::MakeTime(7, 58), gtfs::MakeTime(12, 4) + 13},
       0xfb0e6492be4591b5ull},
  };
  for (const Case& c : cases) {
    QuerySet q = SampleQueries(city, c.seed);
    std::vector<double> many_bits;
    for (const geo::Point& origin : q.origins) {
      for (gtfs::TimeOfDay depart : c.departs) {
        for (const Journey& j :
             router.RouteMany(origin, q.targets, c.day, depart)) {
          AppendJourney(j, &many_bits);
        }
      }
    }
    const uint64_t many = testing::HexFloatDigest(many_bits);
    EXPECT_EQ(many, c.digest)
        << "seed " << c.seed << " RouteMany digest 0x" << std::hex << many;

    std::vector<WindowOrigin> origins;
    for (const geo::Point& origin : q.origins) origins.push_back({origin});
    std::vector<uint32_t> all(q.targets.size());
    for (uint32_t t = 0; t < all.size(); ++t) all[t] = t;
    std::vector<WindowLane> lanes;
    std::vector<std::vector<Journey>> out(origins.size() * 2);
    for (uint32_t o = 0; o < origins.size(); ++o) {
      for (size_t d = 0; d < 2; ++d) {
        std::vector<Journey>& lane_out = out[o * 2 + d];
        lane_out.resize(all.size());
        lanes.push_back(WindowLane{c.departs[d], o, all.data(), all.size(),
                                   lane_out.data()});
      }
    }
    router.csa()->RouteWindow(origins.data(), origins.size(),
                              q.targets.data(), q.targets.size(),
                              lanes.data(), lanes.size(), c.day);
    std::vector<double> window_bits;
    for (const std::vector<Journey>& lane_out : out) {
      for (const Journey& j : lane_out) AppendJourney(j, &window_bits);
    }
    const uint64_t window = testing::HexFloatDigest(window_bits);
    EXPECT_EQ(window, c.digest)
        << "seed " << c.seed << " RouteWindow digest 0x" << std::hex
        << window;
  }

  gtfs::Feed line = testing::LineFeed(600);
  gtfs::Feed transfer = testing::TransferFeed();
  const uint64_t feed_digests[] = {0x062f56f891c5913cull,
                                   0x0183c3d3e56c04b0ull};
  const gtfs::Feed* feeds[] = {&line, &transfer};
  for (size_t f = 0; f < 2; ++f) {
    Router feed_router(feeds[f], RouterOptions{});
    const std::vector<geo::Point> targets = {
        {4000, 100}, {300, 0}, {6000, 100}, {0, 0}, {1e7, 1e7}};
    std::vector<double> bits;
    for (gtfs::TimeOfDay depart :
         {gtfs::MakeTime(7, 0), gtfs::MakeTime(7, 4) + 30}) {
      for (const Journey& j :
           feed_router.RouteMany({0, 50}, targets, gtfs::Day::kMonday,
                                 depart)) {
        AppendJourney(j, &bits);
      }
    }
    const uint64_t digest = testing::HexFloatDigest(bits);
    EXPECT_EQ(digest, feed_digests[f])
        << "feed " << f << " digest 0x" << std::hex << digest;
  }
}

TEST(RouteManyTest, MatchesRouteOnHandBuiltFeeds) {
  gtfs::Feed line = testing::LineFeed(600);
  gtfs::Feed transfer = testing::TransferFeed();
  for (gtfs::Feed* feed : {&line, &transfer}) {
    Router batched(feed, RouterOptions{});
    Router single(feed, RouterOptions{});
    std::vector<geo::Point> targets = {
        {4000, 100}, {300, 0}, {6000, 100}, {0, 0}, {1e7, 1e7}};
    std::vector<Journey> many = batched.RouteMany(
        {0, 50}, targets, gtfs::Day::kMonday, gtfs::MakeTime(7, 0));
    for (size_t t = 0; t < targets.size(); ++t) {
      Journey one = single.Route({0, 50}, targets[t], gtfs::Day::kMonday,
                                 gtfs::MakeTime(7, 0));
      ExpectSameJourney(many[t], one);
    }
  }
}

TEST(RouteManyTest, DuplicateTargetsGetIdenticalJourneys) {
  gtfs::Feed feed = testing::LineFeed(600);
  Router router(&feed, RouterOptions{});
  std::vector<geo::Point> targets = {{4000, 100}, {4000, 100}, {4000, 100}};
  std::vector<Journey> many = router.RouteMany(
      {0, 100}, targets, gtfs::Day::kTuesday, gtfs::MakeTime(7, 0));
  ASSERT_EQ(many.size(), 3u);
  ExpectSameJourney(many[0], many[1]);
  ExpectSameJourney(many[0], many[2]);
  EXPECT_TRUE(many[0].feasible);
}

TEST(RouteManyTest, OriginEqualsTarget) {
  gtfs::Feed feed = testing::LineFeed(600);
  Router router(&feed, RouterOptions{});
  std::vector<geo::Point> targets = {{0, 100}};
  std::vector<Journey> many = router.RouteMany(
      {0, 100}, targets, gtfs::Day::kTuesday, gtfs::MakeTime(7, 0));
  ASSERT_EQ(many.size(), 1u);
  ASSERT_TRUE(many[0].feasible);
  EXPECT_TRUE(many[0].IsWalkOnly());
  EXPECT_EQ(many[0].JourneyTimeSeconds(), 0.0);
}

TEST(RouteManyTest, EmptyTargetListIsANoOp) {
  gtfs::Feed feed = testing::LineFeed(600);
  Router router(&feed, RouterOptions{});
  std::vector<Journey> many = router.RouteMany(
      {0, 100}, {}, gtfs::Day::kTuesday, gtfs::MakeTime(7, 0));
  EXPECT_TRUE(many.empty());
}

TEST(RouteManyTest, ScratchReuseAcrossCallsStaysExact) {
  // Interleave batches and singles on ONE router so stale epoch state from
  // a previous call would be caught.
  synth::City city = testing::TinyCity();
  Router reused(&city.feed, RouterOptions{});
  Router fresh_feed(&city.feed, RouterOptions{});
  QuerySet q = SampleQueries(city, /*seed=*/23);

  for (int round = 0; round < 3; ++round) {
    for (const geo::Point& origin : q.origins) {
      gtfs::TimeOfDay depart = gtfs::MakeTime(7, 0) + round * 1117;
      std::vector<Journey> many =
          reused.RouteMany(origin, q.targets, gtfs::Day::kFriday, depart);
      for (size_t t = 0; t < q.targets.size(); ++t) {
        Router oneshot(&city.feed, RouterOptions{});
        Journey one = oneshot.Route(origin, q.targets[t], gtfs::Day::kFriday,
                                    depart);
        ExpectSameJourney(many[t], one);
      }
      // The same reused router answering a single query is also unaffected.
      Journey single = reused.Route(origin, q.targets[0], gtfs::Day::kFriday,
                                    depart);
      Journey expect = fresh_feed.Route(origin, q.targets[0],
                                        gtfs::Day::kFriday, depart);
      ExpectSameJourney(single, expect);
    }
  }
}

TEST(RouteManyTest, CachedOriginAccessMatchesInternalLookup) {
  synth::City city = testing::TinyCity();
  Router router(&city.feed, RouterOptions{});
  QuerySet q = SampleQueries(city, /*seed=*/29);
  const geo::Point origin = q.origins[0];
  std::vector<WalkHop> access = router.walk_table().AccessStops(origin);

  std::vector<Journey> with_cache(q.targets.size());
  router.RouteMany(origin, q.targets.data(), q.targets.size(),
                   gtfs::Day::kTuesday, gtfs::MakeTime(8, 0),
                   with_cache.data(), &access);
  std::vector<Journey> without =
      router.RouteMany(origin, q.targets, gtfs::Day::kTuesday,
                       gtfs::MakeTime(8, 0));
  for (size_t t = 0; t < q.targets.size(); ++t) {
    ExpectSameJourney(with_cache[t], without[t]);
  }
}

}  // namespace
}  // namespace staq::router
