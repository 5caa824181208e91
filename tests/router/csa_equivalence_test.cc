// Golden equivalence for the library Router's Connection Scan engine
// against the label-correcting oracle (tests/testing), and for the window
// (profile) scan against per-departure scans.
//
// The cross-engine contract (DESIGN.md §11): journey times, feasibility,
// and departure/arrival instants are bit-identical; equal-cost journeys may
// decompose into different legs (the engines settle equal-time ties in
// different orders). The within-engine contract is
// stronger: a window scan's lanes are bit-identical — legs and all — to
// running each departure's scan alone.
#include <cmath>
#include <numeric>
#include <vector>

#include <gtest/gtest.h>

#include "router/connections.h"
#include "router/cost.h"
#include "router/csa.h"
#include "router/router.h"
#include "synth/city_builder.h"
#include "synth/city_spec.h"
#include "testing/label_correcting_router.h"
#include "testing/scalar_oracle.h"
#include "testing/test_city.h"
#include "util/rng.h"

namespace staq::router {
namespace {

/// The exact cross-engine contract: everything journey-time-derived.
void ExpectEquivalentJourney(const Journey& oracle, const Journey& csa) {
  EXPECT_EQ(oracle.feasible, csa.feasible);
  EXPECT_EQ(oracle.depart, csa.depart);
  EXPECT_EQ(oracle.arrive, csa.arrive);
  EXPECT_EQ(oracle.JourneyTimeSeconds(), csa.JourneyTimeSeconds());
  EXPECT_EQ(oracle.IsWalkOnly(), csa.IsWalkOnly());
}

/// Full bit-identity, for within-engine comparisons.
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
  GacWeights w;
  EXPECT_EQ(testing::GeneralizedAccessCost(a, w),
            testing::GeneralizedAccessCost(b, w));
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

/// A feasible journey's legs must decompose its own span regardless of
/// which tie-break produced them.
void ExpectSelfConsistent(const Journey& j) {
  if (!j.feasible) return;
  double components = j.access_walk_s + j.transfer_walk_s + j.wait_s +
                      j.in_vehicle_s + j.egress_walk_s;
  EXPECT_NEAR(components, j.JourneyTimeSeconds(), 2.0 + j.legs.size());
  ASSERT_FALSE(j.legs.empty());
  for (size_t i = 0; i + 1 < j.legs.size(); ++i) {
    EXPECT_LE(j.legs[i].end, j.legs[i + 1].start);
  }
}

std::vector<geo::Point> SampleTargets(const synth::City& city, uint64_t seed,
                                      int count) {
  std::vector<geo::Point> targets;
  util::Rng rng(seed);
  const int64_t max_zone = static_cast<int64_t>(city.zones.size()) - 1;
  for (int i = 0; i < count; ++i) {
    const auto& z =
        city.zones[static_cast<size_t>(rng.UniformInt(0, max_zone))];
    targets.push_back(geo::Point{z.centroid.x + rng.UniformDouble() * 300.0,
                                 z.centroid.y - rng.UniformDouble() * 300.0});
  }
  targets.push_back(geo::Point{1e7, 1e7});  // unreachable
  return targets;
}

std::vector<geo::Point> SampleOrigins(const synth::City& city, uint64_t seed,
                                      int count) {
  std::vector<geo::Point> origins;
  util::Rng rng(seed);
  const int64_t max_zone = static_cast<int64_t>(city.zones.size()) - 1;
  for (int i = 0; i < count; ++i) {
    origins.push_back(
        city.zones[static_cast<size_t>(rng.UniformInt(0, max_zone))].centroid);
  }
  return origins;
}

// Both city families x 3 seeds x several departures: every target's journey
// time, feasibility, and instants match the label-correcting oracle.
TEST(CsaEquivalenceTest, MatchesOracleAcrossCityFamiliesAndSeeds) {
  for (uint64_t seed : {11ull, 29ull, 47ull}) {
    std::vector<synth::City> cities;
    cities.push_back(
        std::move(synth::BuildCity(synth::CitySpec::Brindale(0.05, seed)))
            .value());
    cities.push_back(
        std::move(synth::BuildCity(synth::CitySpec::Covely(0.06, seed)))
            .value());
    for (const synth::City& city : cities) {
      testing::LabelCorrectingRouter oracle(&city.feed, RouterOptions{});
      Router csa(&city.feed, RouterOptions{});
      ASSERT_NE(csa.csa(), nullptr);
      std::vector<geo::Point> origins = SampleOrigins(city, seed + 1, 4);
      std::vector<geo::Point> targets = SampleTargets(city, seed + 2, 8);

      for (const geo::Point& origin : origins) {
        for (gtfs::TimeOfDay depart :
             {gtfs::MakeTime(7, 0), gtfs::MakeTime(8, 17) + 23,
              gtfs::MakeTime(12, 30), gtfs::MakeTime(17, 45) + 7}) {
          std::vector<Journey> want =
              oracle.RouteMany(origin, targets, gtfs::Day::kTuesday, depart);
          std::vector<Journey> got =
              csa.RouteMany(origin, targets, gtfs::Day::kTuesday, depart);
          ASSERT_EQ(want.size(), got.size());
          for (size_t t = 0; t < targets.size(); ++t) {
            ExpectEquivalentJourney(want[t], got[t]);
            ExpectSelfConsistent(got[t]);
          }
        }
      }
    }
  }
}

TEST(CsaEquivalenceTest, MatchesOracleOnHandBuiltFeeds) {
  gtfs::Feed line = testing::LineFeed(600);
  gtfs::Feed transfer = testing::TransferFeed();
  for (gtfs::Feed* feed : {&line, &transfer}) {
    testing::LabelCorrectingRouter oracle(feed, RouterOptions{});
    Router csa(feed, RouterOptions{});
    std::vector<geo::Point> targets = {
        {4000, 100}, {300, 0}, {6000, 100}, {0, 0}, {1e7, 1e7}};
    for (gtfs::TimeOfDay depart :
         {gtfs::MakeTime(6, 55), gtfs::MakeTime(7, 0), gtfs::MakeTime(7, 3),
          gtfs::MakeTime(8, 59), gtfs::MakeTime(10, 0)}) {
      std::vector<Journey> want =
          oracle.RouteMany({0, 50}, targets, gtfs::Day::kMonday, depart);
      std::vector<Journey> got =
          csa.RouteMany({0, 50}, targets, gtfs::Day::kMonday, depart);
      for (size_t t = 0; t < targets.size(); ++t) {
        ExpectEquivalentJourney(want[t], got[t]);
        ExpectSelfConsistent(got[t]);
      }
    }
  }
}

TEST(CsaEquivalenceTest, WalkOnlyAndInfeasibleEdgeCases) {
  gtfs::Feed feed = testing::LineFeed(600);
  Router csa(&feed, RouterOptions{});
  testing::LabelCorrectingRouter oracle(&feed, RouterOptions{});

  // Origin == target: zero-duration walk-only journey.
  std::vector<geo::Point> same = {{0, 100}};
  std::vector<Journey> got =
      csa.RouteMany({0, 100}, same, gtfs::Day::kTuesday, gtfs::MakeTime(7, 0));
  ASSERT_TRUE(got[0].feasible);
  EXPECT_TRUE(got[0].IsWalkOnly());
  EXPECT_EQ(got[0].JourneyTimeSeconds(), 0.0);

  // Unreachable target.
  std::vector<geo::Point> far = {{1e7, 1e7}};
  got = csa.RouteMany({0, 100}, far, gtfs::Day::kTuesday, gtfs::MakeTime(7, 0));
  EXPECT_FALSE(got[0].feasible);

  // Departure after the last trip of the day: walk or nothing, same as the
  // oracle.
  std::vector<geo::Point> targets = {{4000, 100}, {300, 0}};
  std::vector<Journey> want = oracle.RouteMany(
      {0, 50}, targets, gtfs::Day::kMonday, gtfs::MakeTime(23, 0));
  got = csa.RouteMany({0, 50}, targets, gtfs::Day::kMonday,
                      gtfs::MakeTime(23, 0));
  for (size_t t = 0; t < targets.size(); ++t) {
    ExpectEquivalentJourney(want[t], got[t]);
  }

  // Day with no service (weekday-only feed queried on Sunday).
  want = oracle.RouteMany({0, 50}, targets, gtfs::Day::kSunday,
                          gtfs::MakeTime(7, 0));
  got = csa.RouteMany({0, 50}, targets, gtfs::Day::kSunday,
                      gtfs::MakeTime(7, 0));
  for (size_t t = 0; t < targets.size(); ++t) {
    ExpectEquivalentJourney(want[t], got[t]);
  }
}

TEST(CsaEquivalenceTest, ScratchReuseAcrossCallsStaysExact) {
  synth::City city = testing::TinyCity();
  Router reused(&city.feed, RouterOptions{});
  testing::LabelCorrectingRouter oracle(&city.feed, RouterOptions{});
  std::vector<geo::Point> origins = SampleOrigins(city, 23, 4);
  std::vector<geo::Point> targets = SampleTargets(city, 24, 6);
  for (int round = 0; round < 3; ++round) {
    for (const geo::Point& origin : origins) {
      gtfs::TimeOfDay depart = gtfs::MakeTime(7, 0) + round * 1117;
      std::vector<Journey> got =
          reused.RouteMany(origin, targets, gtfs::Day::kFriday, depart);
      std::vector<Journey> want =
          oracle.RouteMany(origin, targets, gtfs::Day::kFriday, depart);
      for (size_t t = 0; t < targets.size(); ++t) {
        ExpectEquivalentJourney(want[t], got[t]);
      }
      // Fresh engine answering the same query: scratch reuse is invisible.
      Router fresh(&city.feed, RouterOptions{});
      std::vector<Journey> again =
          fresh.RouteMany(origin, targets, gtfs::Day::kFriday, depart);
      for (size_t t = 0; t < targets.size(); ++t) {
        ExpectSameJourney(got[t], again[t]);
      }
    }
  }
}

// The profile contract: one window sweep answers every lane bit-identically
// to running that departure's scan alone — legs included.
TEST(CsaProfileTest, WindowScanEqualsPerDepartureScans) {
  synth::City city = testing::TinyCity();
  Router router(&city.feed, RouterOptions{});
  CsaEngine* csa = router.csa();
  ASSERT_NE(csa, nullptr);

  std::vector<geo::Point> origins = SampleOrigins(city, 31, 3);
  std::vector<geo::Point> unique = SampleTargets(city, 32, 9);

  // Lanes over a rate window with overlapping target subsets, including two
  // lanes sharing a departure and a lane owning every target.
  util::Rng rng(33);
  std::vector<std::vector<uint32_t>> subsets;
  std::vector<gtfs::TimeOfDay> departs;
  for (int lane = 0; lane < 14; ++lane) {
    departs.push_back(gtfs::MakeTime(7, 0) + lane * 523);
    std::vector<uint32_t> subset;
    for (uint32_t u = 0; u < unique.size(); ++u) {
      if (rng.UniformInt(0, 2) != 0) subset.push_back(u);
    }
    if (subset.empty()) subset.push_back(0);
    subsets.push_back(std::move(subset));
  }
  departs[5] = departs[4];  // duplicate departure, different subset
  std::vector<uint32_t> all(unique.size());
  std::iota(all.begin(), all.end(), 0u);
  subsets[7] = all;

  for (const geo::Point& origin : origins) {
    std::vector<WindowLane> lanes(departs.size());
    std::vector<std::vector<Journey>> out(departs.size());
    for (size_t l = 0; l < departs.size(); ++l) {
      out[l].resize(subsets[l].size());
      lanes[l].depart = departs[l];
      lanes[l].targets = subsets[l].data();
      lanes[l].num_targets = subsets[l].size();
      lanes[l].out = out[l].data();
    }
    const WindowOrigin from{origin};
    csa->RouteWindow(&from, 1, unique.data(), unique.size(), lanes.data(),
                     lanes.size(), gtfs::Day::kTuesday);

    for (size_t l = 0; l < departs.size(); ++l) {
      std::vector<geo::Point> lane_targets;
      for (uint32_t u : subsets[l]) lane_targets.push_back(unique[u]);
      std::vector<Journey> solo(lane_targets.size());
      csa->RouteMany(origin, lane_targets.data(), lane_targets.size(),
                     gtfs::Day::kTuesday, departs[l], solo.data());
      for (size_t k = 0; k < solo.size(); ++k) {
        ExpectSameJourney(solo[k], out[l][k]);
      }
    }
  }
}

TEST(CsaProfileTest, WindowScanMatchesOracleAcrossRateWindows) {
  // Rate-window shapes the labeling hot path produces: dense departures
  // over AM-peak-like spans, all targets shared.
  synth::City city = testing::TinyCity();
  Router router(&city.feed, RouterOptions{});
  testing::LabelCorrectingRouter oracle(&city.feed, RouterOptions{});
  CsaEngine* csa = router.csa();

  std::vector<geo::Point> unique = SampleTargets(city, 41, 7);
  std::vector<uint32_t> all(unique.size());
  std::iota(all.begin(), all.end(), 0u);
  const geo::Point origin = SampleOrigins(city, 42, 1)[0];

  struct Window {
    gtfs::TimeOfDay start;
    gtfs::TimeOfDay step;
    int count;
  };
  for (const Window& w : {Window{gtfs::MakeTime(7, 0), 300, 24},
                          Window{gtfs::MakeTime(16, 30), 601, 12},
                          Window{gtfs::MakeTime(22, 40), 900, 8}}) {
    std::vector<WindowLane> lanes(static_cast<size_t>(w.count));
    std::vector<std::vector<Journey>> out(lanes.size());
    for (size_t l = 0; l < lanes.size(); ++l) {
      out[l].resize(unique.size());
      lanes[l].depart = w.start + static_cast<gtfs::TimeOfDay>(l) * w.step;
      lanes[l].targets = all.data();
      lanes[l].num_targets = all.size();
      lanes[l].out = out[l].data();
    }
    const WindowOrigin from{origin};
    csa->RouteWindow(&from, 1, unique.data(), unique.size(), lanes.data(),
                     lanes.size(), gtfs::Day::kTuesday);
    for (size_t l = 0; l < lanes.size(); ++l) {
      std::vector<Journey> want = oracle.RouteMany(
          origin, unique, gtfs::Day::kTuesday, lanes[l].depart);
      for (size_t k = 0; k < unique.size(); ++k) {
        ExpectEquivalentJourney(want[k], out[l][k]);
      }
    }
  }
}

/// One lane of a multi-origin window test: its origin (index into the
/// test's origin table), departure and unique-target subset.
struct LaneSpec {
  uint32_t origin = 0;
  gtfs::TimeOfDay depart = 0;
  std::vector<uint32_t> targets;
};

std::vector<std::vector<Journey>> RunWindow(
    CsaEngine* csa, const std::vector<WindowOrigin>& origins,
    const std::vector<geo::Point>& unique, const std::vector<LaneSpec>& specs,
    gtfs::Day day) {
  std::vector<WindowLane> lanes(specs.size());
  std::vector<std::vector<Journey>> out(specs.size());
  for (size_t l = 0; l < specs.size(); ++l) {
    out[l].resize(specs[l].targets.size());
    lanes[l].depart = specs[l].depart;
    lanes[l].origin = specs[l].origin;
    lanes[l].targets = specs[l].targets.data();
    lanes[l].num_targets = specs[l].targets.size();
    lanes[l].out = out[l].data();
  }
  csa->RouteWindow(origins.data(), origins.size(), unique.data(),
                   unique.size(), lanes.data(), lanes.size(), day);
  return out;
}

/// The block contract: one window over every origin's lanes answers each
/// lane exactly like one window per origin — legs included.
void ExpectBlockEqualsPerOrigin(CsaEngine* block, CsaEngine* solo,
                                const std::vector<WindowOrigin>& origins,
                                const std::vector<geo::Point>& unique,
                                const std::vector<LaneSpec>& specs,
                                gtfs::Day day) {
  const std::vector<std::vector<Journey>> got =
      RunWindow(block, origins, unique, specs, day);
  for (uint32_t o = 0; o < origins.size(); ++o) {
    std::vector<LaneSpec> own;
    std::vector<size_t> at;
    for (size_t l = 0; l < specs.size(); ++l) {
      if (specs[l].origin != o) continue;
      own.push_back(specs[l]);
      own.back().origin = 0;
      at.push_back(l);
    }
    const std::vector<std::vector<Journey>> want =
        RunWindow(solo, {origins[o]}, unique, own, day);
    for (size_t i = 0; i < own.size(); ++i) {
      for (size_t k = 0; k < want[i].size(); ++k) {
        SCOPED_TRACE(::testing::Message()
                     << "origin " << o << " lane " << at[i] << " target " << k);
        ExpectSameJourney(want[i][k], got[at[i]][k]);
      }
    }
  }
}

// Multi-origin windows on the equivalence fixtures, on a served and an
// unserved-or-thin day. The origin table mixes ordinary origins (two with
// identical departure lists), an origin with no access stops, and an
// origin whose lanes only ask for the unreachable target, so every lane
// dies at birth.
TEST(CsaProfileTest, MultiOriginWindowEqualsOneWindowPerOrigin) {
  for (uint64_t seed : {11ull, 29ull}) {
    std::vector<synth::City> cities;
    cities.push_back(
        std::move(synth::BuildCity(synth::CitySpec::Brindale(0.05, seed)))
            .value());
    cities.push_back(
        std::move(synth::BuildCity(synth::CitySpec::Covely(0.06, seed)))
            .value());
    for (const synth::City& city : cities) {
      Router block(&city.feed, RouterOptions{});
      Router solo(&city.feed, RouterOptions{});
      std::vector<geo::Point> unique = SampleTargets(city, seed + 3, 10);
      const uint32_t unreachable = static_cast<uint32_t>(unique.size() - 1);

      std::vector<WindowOrigin> origins;
      for (const geo::Point& p : SampleOrigins(city, seed + 4, 4)) {
        origins.push_back(WindowOrigin{p});
      }
      const uint32_t no_access = static_cast<uint32_t>(origins.size());
      origins.push_back(WindowOrigin{geo::Point{-1e7, -1e7}});
      ASSERT_TRUE(block.walk_table().AccessStops(origins.back().point).empty());
      const uint32_t dead = static_cast<uint32_t>(origins.size());
      origins.push_back(WindowOrigin{SampleOrigins(city, seed + 5, 1)[0]});

      util::Rng rng(seed + 6);
      std::vector<LaneSpec> specs;
      for (uint32_t o = 0; o < no_access; ++o) {
        for (int j = 0; j < 12; ++j) {
          LaneSpec lane;
          lane.origin = o;
          // Origins 0 and 1 share every departure.
          lane.depart = gtfs::MakeTime(7, 0) +
                        (o == 1 ? 0 : static_cast<gtfs::TimeOfDay>(o) * 97) +
                        j * 433;
          for (uint32_t u = 0; u < unique.size(); ++u) {
            if (rng.UniformInt(0, 2) != 0) lane.targets.push_back(u);
          }
          if (lane.targets.empty()) lane.targets.push_back(0);
          specs.push_back(std::move(lane));
        }
      }
      std::vector<uint32_t> all(unique.size());
      std::iota(all.begin(), all.end(), 0u);
      for (int j = 0; j < 3; ++j) {
        specs.push_back(LaneSpec{no_access, gtfs::MakeTime(7, 30) + j * 600,
                                 all});
        specs.push_back(LaneSpec{dead, gtfs::MakeTime(7, 0) + j * 433,
                                 {unreachable}});
      }
      for (gtfs::Day day : {gtfs::Day::kTuesday, gtfs::Day::kSunday}) {
        ExpectBlockEqualsPerOrigin(block.csa(), solo.csa(), origins, unique,
                                   specs, day);
      }
    }
  }
}

// A block whose live lanes outnumber the engine's columns grows the stride
// mid-scan, and lanes that retire hand their columns to later ones: the
// stride ends above what the engine had but below the block's lane count.
TEST(CsaProfileTest, BlockBeyondThePreviousStrideRecyclesColumns) {
  synth::City city =
      std::move(synth::BuildCity(synth::CitySpec::Brindale(0.05, 13)))
          .value();
  Router block(&city.feed, RouterOptions{});
  Router solo(&city.feed, RouterOptions{});
  std::vector<geo::Point> unique = SampleTargets(city, 51, 8);

  std::vector<WindowOrigin> origins;
  for (const geo::Point& p : SampleOrigins(city, 52, 6)) {
    origins.push_back(WindowOrigin{p});
  }
  // Departures spread over four hours: lanes overlap for about an hour, so
  // the live count peaks well below the lane count.
  std::vector<LaneSpec> specs;
  util::Rng rng(53);
  for (uint32_t o = 0; o < origins.size(); ++o) {
    for (int j = 0; j < 24; ++j) {
      LaneSpec lane;
      lane.origin = o;
      lane.depart = gtfs::MakeTime(6, 30) + j * 600 +
                    static_cast<gtfs::TimeOfDay>(rng.UniformInt(0, 59));
      for (uint32_t u = 0; u < unique.size(); ++u) {
        if (rng.UniformInt(0, 1) != 0) lane.targets.push_back(u);
      }
      if (lane.targets.empty()) lane.targets.push_back(0);
      specs.push_back(std::move(lane));
    }
  }

  block.RouteMany(origins[0].point, unique, gtfs::Day::kTuesday,
                  gtfs::MakeTime(7, 0));
  const size_t stride_before = block.csa()->lane_stride();
  ExpectBlockEqualsPerOrigin(block.csa(), solo.csa(), origins, unique, specs,
                             gtfs::Day::kTuesday);
  EXPECT_GT(block.csa()->lane_stride(), stride_before);
  EXPECT_LT(block.csa()->lane_stride(), specs.size());
}

// The lower-bound closure behind pruning is built once per connection
// array and walk-parameter set: routers sharing an array prune with the
// same table, and a router over a private array answers identically.
TEST(CsaBoundsTest, RoutersOnOneArrayShareOneLowerBoundTable) {
  synth::City city = testing::TinyCity();
  RouterOptions shared;
  shared.connections = ConnectionArray::EnsureFor(nullptr, &city.feed);
  Router a(&city.feed, shared);
  Router b(&city.feed, shared);
  Router own(&city.feed, RouterOptions{});

  std::vector<geo::Point> unique = SampleTargets(city, 61, 6);
  std::vector<uint32_t> all(unique.size());
  std::iota(all.begin(), all.end(), 0u);
  std::vector<WindowOrigin> origins = {
      WindowOrigin{SampleOrigins(city, 62, 1)[0]}};
  std::vector<LaneSpec> specs;
  for (int j = 0; j < 8; ++j) {
    specs.push_back(LaneSpec{0, gtfs::MakeTime(7, 0) + j * 450, all});
  }
  EXPECT_EQ(a.csa()->lower_bounds(), nullptr);  // fetched on first window
  auto got_a = RunWindow(a.csa(), origins, unique, specs, gtfs::Day::kTuesday);
  auto got_b = RunWindow(b.csa(), origins, unique, specs, gtfs::Day::kTuesday);
  auto got_own =
      RunWindow(own.csa(), origins, unique, specs, gtfs::Day::kTuesday);
  ASSERT_NE(a.csa()->lower_bounds(), nullptr);
  EXPECT_EQ(a.csa()->lower_bounds(), b.csa()->lower_bounds());
  ASSERT_NE(own.csa()->lower_bounds(), nullptr);
  EXPECT_NE(own.csa()->lower_bounds(), a.csa()->lower_bounds());
  EXPECT_EQ(*own.csa()->lower_bounds(), *a.csa()->lower_bounds());
  for (size_t l = 0; l < specs.size(); ++l) {
    for (size_t k = 0; k < all.size(); ++k) {
      ExpectSameJourney(got_a[l][k], got_b[l][k]);
      ExpectSameJourney(got_a[l][k], got_own[l][k]);
    }
  }
}

}  // namespace
}  // namespace staq::router
