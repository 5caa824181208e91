#include "core/todam.h"

#include <gtest/gtest.h>

#include "testing/test_city.h"

namespace staq::core {
namespace {

class TodamTest : public ::testing::Test {
 protected:
  TodamTest() : city_(testing::TinyCity()) {
    pois_ = city_.PoisOf(synth::PoiCategory::kSchool);
    config_.sample_rate_per_hour = 6;
    config_.decay_scale_m = 3000;
    config_.keep_scale = 2.0;
  }

  synth::City city_;
  std::vector<synth::Poi> pois_;
  gtfs::TimeInterval interval_ = gtfs::WeekdayAmPeak();
  GravityConfig config_;
};

TEST_F(TodamTest, SamplesPerPairFollowsRateAndDuration) {
  TodamBuilder builder(city_.zones, pois_, interval_, config_);
  EXPECT_EQ(builder.SamplesPerPair(), 12u);  // 6/hr x 2h
}

TEST_F(TodamTest, FullCountIsProduct) {
  TodamBuilder builder(city_.zones, pois_, interval_, config_);
  EXPECT_EQ(builder.FullTripCount(),
            city_.zones.size() * pois_.size() * 12);
}

TEST_F(TodamTest, FullBuildMaterializesEveryTrip) {
  TodamBuilder builder(city_.zones, pois_, interval_, config_);
  Todam full = builder.BuildFull(1);
  EXPECT_EQ(full.num_trips(), builder.FullTripCount());
  for (uint32_t z = 0; z < city_.zones.size(); ++z) {
    EXPECT_EQ(full.TripsFor(z).size(), pois_.size() * 12);
  }
}

TEST_F(TodamTest, TripTimesInsideInterval) {
  TodamBuilder builder(city_.zones, pois_, interval_, config_);
  Todam gravity = builder.BuildGravity(1);
  for (uint32_t z = 0; z < gravity.num_zones(); ++z) {
    for (const TripEntry& trip : gravity.TripsFor(z)) {
      EXPECT_GE(trip.depart, interval_.start);
      EXPECT_LT(trip.depart, interval_.end);
      EXPECT_LT(trip.poi, pois_.size());
    }
  }
}

TEST_F(TodamTest, GravitySmallerThanFull) {
  TodamBuilder builder(city_.zones, pois_, interval_, config_);
  Todam gravity = builder.BuildGravity(1);
  EXPECT_LT(gravity.num_trips(), builder.FullTripCount());
  EXPECT_GT(gravity.num_trips(), 0u);
}

TEST_F(TodamTest, CountMatchesMaterializedBuild) {
  TodamBuilder builder(city_.zones, pois_, interval_, config_);
  for (uint64_t seed : {1ull, 2ull, 42ull}) {
    Todam gravity = builder.BuildGravity(seed);
    EXPECT_EQ(builder.GravityTripCount(seed), gravity.num_trips())
        << "seed " << seed;
  }
}

TEST_F(TodamTest, DeterministicForSeed) {
  TodamBuilder builder(city_.zones, pois_, interval_, config_);
  Todam a = builder.BuildGravity(7);
  Todam b = builder.BuildGravity(7);
  ASSERT_EQ(a.num_trips(), b.num_trips());
  for (uint32_t z = 0; z < a.num_zones(); ++z) {
    const auto& ta = a.TripsFor(z);
    const auto& tb = b.TripsFor(z);
    ASSERT_EQ(ta.size(), tb.size());
    for (size_t i = 0; i < ta.size(); ++i) {
      EXPECT_EQ(ta[i].poi, tb[i].poi);
      EXPECT_EQ(ta[i].depart, tb[i].depart);
    }
  }
}

TEST_F(TodamTest, SeedsChangeSampling) {
  TodamBuilder builder(city_.zones, pois_, interval_, config_);
  Todam a = builder.BuildGravity(1);
  Todam b = builder.BuildGravity(2);
  // Trip counts are random; at minimum the sampled start times must differ.
  bool any_diff = a.num_trips() != b.num_trips();
  for (uint32_t z = 0; z < a.num_zones() && !any_diff; ++z) {
    const auto& ta = a.TripsFor(z);
    const auto& tb = b.TripsFor(z);
    if (ta.size() != tb.size()) {
      any_diff = true;
      break;
    }
    for (size_t i = 0; i < ta.size(); ++i) {
      if (ta[i].depart != tb[i].depart) {
        any_diff = true;
        break;
      }
    }
  }
  EXPECT_TRUE(any_diff);
}

TEST_F(TodamTest, HigherKeepScaleKeepsMoreTrips) {
  GravityConfig low = config_;
  low.keep_scale = 0.5;
  GravityConfig high = config_;
  high.keep_scale = 8.0;
  TodamBuilder lb(city_.zones, pois_, interval_, low);
  TodamBuilder hb(city_.zones, pois_, interval_, high);
  EXPECT_LT(lb.BuildGravity(1).num_trips(), hb.BuildGravity(1).num_trips());
}

TEST_F(TodamTest, SaturatedKeepEqualsFull) {
  GravityConfig saturated = config_;
  saturated.keep_scale = 1e9;  // keep probability clamps to 1 everywhere
  TodamBuilder builder(city_.zones, pois_, interval_, saturated);
  EXPECT_EQ(builder.BuildGravity(1).num_trips(), builder.FullTripCount());
  EXPECT_EQ(builder.GravityTripCount(1), builder.FullTripCount());
}

TEST_F(TodamTest, ExpectedKeepFractionRoughlyHolds) {
  // With α normalised and keep = min(1, k α), the expected keep fraction
  // per zone is sum_j min(1, k α_j) / |P|; verify the realised count is
  // within a loose band of the expectation.
  TodamBuilder builder(city_.zones, pois_, interval_, config_);
  auto alpha = AttractivenessMatrix(city_.zones, pois_, config_.decay_scale_m);
  double expected = 0;
  for (const auto& row : alpha) {
    for (double a : row) {
      expected += std::min(1.0, config_.keep_scale * a) * 12;
    }
  }
  Todam gravity = builder.BuildGravity(3);
  double realised = static_cast<double>(gravity.num_trips());
  EXPECT_NEAR(realised / expected, 1.0, 0.05);
}

TEST_F(TodamTest, WalkOnlyFractionBounds) {
  TodamBuilder builder(city_.zones, pois_, interval_, config_);
  Todam gravity = builder.BuildGravity(1);
  double frac = gravity.WalkOnlyFraction(city_.zones, pois_, 600);
  EXPECT_GE(frac, 0.0);
  EXPECT_LE(frac, 1.0);
  // Everything is walkable with an enormous reach, nothing with zero.
  EXPECT_DOUBLE_EQ(gravity.WalkOnlyFraction(city_.zones, pois_, 1e9), 1.0);
  EXPECT_DOUBLE_EQ(gravity.WalkOnlyFraction(city_.zones, pois_, 0.0), 0.0);
}

TEST_F(TodamTest, AlphaExposedForAggregation) {
  TodamBuilder builder(city_.zones, pois_, interval_, config_);
  Todam gravity = builder.BuildGravity(1);
  ASSERT_EQ(gravity.alpha().size(), city_.zones.size());
  ASSERT_EQ(gravity.alpha()[0].size(), pois_.size());
}

TEST_F(TodamTest, StableAlphaIgnoresSeedKeepScaleAndRate) {
  // The serve feature memo keys the zone feature matrix on the decay scale
  // alone: the stable α rows must not depend on the seed, the keep scale or
  // the sample rate.
  const std::vector<double> norms =
      StableGravityNorms(city_.zones, pois_, config_.decay_scale_m);
  const auto alpha = TodamBuilder(city_.zones, pois_, interval_, config_)
                         .BuildGravityStable(1, norms)
                         .alpha();
  ASSERT_EQ(alpha.size(), city_.zones.size());
  for (double keep_scale : {0.5, 2.0, 25.0}) {
    for (int rate : {2, 30}) {
      GravityConfig config = config_;
      config.keep_scale = keep_scale;
      config.sample_rate_per_hour = rate;
      TodamBuilder builder(city_.zones, pois_, interval_, config);
      for (uint64_t seed : {1, 7, 7919}) {
        EXPECT_EQ(builder.BuildGravityStable(seed, norms).alpha(), alpha)
            << "keep " << keep_scale << " rate " << rate << " seed " << seed;
      }
    }
  }
}

}  // namespace
}  // namespace staq::core
