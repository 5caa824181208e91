// Cross-module property tests: invariants that must hold on ANY generated
// city, swept across seeds with parameterised gtest.
#include <gtest/gtest.h>

#include "core/pipeline.h"
#include "router/router.h"
#include "synth/city_builder.h"
#include "testing/ssr_harness.h"
#include "util/rng.h"

namespace staq {
namespace {

class CityPropertyTest : public ::testing::TestWithParam<int> {
 protected:
  synth::City BuildSeededCity() {
    // Alternate between city families across the sweep.
    synth::CitySpec spec =
        (GetParam() % 2 == 0)
            ? synth::CitySpec::Covely(0.06, 100 + GetParam())
            : synth::CitySpec::Brindale(0.03, 100 + GetParam());
    auto built = synth::BuildCity(spec);
    EXPECT_TRUE(built.ok());
    return std::move(built).value();
  }
};

TEST_P(CityPropertyTest, GeneratedCityIsStructurallySound) {
  synth::City city = BuildSeededCity();
  EXPECT_TRUE(city.feed.Validate().ok());
  EXPECT_GT(city.feed.num_trips(), 0u);

  std::vector<uint32_t> labels;
  EXPECT_EQ(city.road.ConnectedComponents(&labels), 1u);

  for (const synth::Zone& z : city.zones) {
    EXPECT_TRUE(city.extent.Contains(z.centroid));
    EXPECT_GT(z.population, 0.0);
  }
  // Stops lie within (a margin of) the city extent.
  double margin = 2 * city.spec.zone_spacing_m;
  for (const gtfs::Stop& s : city.feed.stops()) {
    EXPECT_GT(s.position.x, city.extent.min_x - margin);
    EXPECT_LT(s.position.x, city.extent.max_x + margin);
  }
}

TEST_P(CityPropertyTest, LargerHorizonNeverHurtsArrival) {
  synth::City city = BuildSeededCity();
  router::RouterOptions tight;
  tight.horizon_s = 1800;
  router::RouterOptions loose;
  loose.horizon_s = 4 * 3600;
  router::Router tight_router(&city.feed, tight);
  router::Router loose_router(&city.feed, loose);

  util::Rng rng(GetParam());
  for (int i = 0; i < 30; ++i) {
    geo::Point o{rng.Uniform(city.extent.min_x, city.extent.max_x),
                 rng.Uniform(city.extent.min_y, city.extent.max_y)};
    geo::Point d{rng.Uniform(city.extent.min_x, city.extent.max_x),
                 rng.Uniform(city.extent.min_y, city.extent.max_y)};
    gtfs::TimeOfDay t = gtfs::MakeTime(8, 0);
    auto a = tight_router.Route(o, d, gtfs::Day::kTuesday, t);
    auto b = loose_router.Route(o, d, gtfs::Day::kTuesday, t);
    if (a.feasible) {
      ASSERT_TRUE(b.feasible);
      // A larger horizon explores a superset of labels: never worse.
      EXPECT_LE(b.arrive, a.arrive);
      // And when the tight answer fits strictly within the tight horizon,
      // the search there was not truncated, so the answers coincide.
      // (Journeys whose transit portion brushes the horizon may be found
      // suboptimally — the horizon prunes stop labels, not egress walks.)
      if (a.JourneyTimeSeconds() <= tight.horizon_s) {
        EXPECT_EQ(b.arrive, a.arrive);
      }
    }
  }
}

TEST_P(CityPropertyTest, HopTreeLeavesRespectRideCapAndZoneRange) {
  synth::City city = BuildSeededCity();
  core::IsochroneSet isochrones(city, core::IsochroneConfig{});
  core::HopTreeOptions options;
  options.max_ride_s = 1200;
  core::HopTreeSet trees(city, isochrones, gtfs::WeekdayAmPeak(), options);
  for (uint32_t z = 0; z < city.zones.size(); ++z) {
    for (const core::HopLeaf& leaf : trees.Outbound(z).leaves()) {
      EXPECT_LT(leaf.zone, city.zones.size());
      EXPECT_NE(leaf.zone, z);
      EXPECT_LE(leaf.mean_journey_s, options.max_ride_s);
    }
    for (const core::HopLeaf& leaf : trees.Inbound(z).leaves()) {
      EXPECT_LE(leaf.mean_journey_s, options.max_ride_s);
    }
  }
}

TEST_P(CityPropertyTest, GravityCountLockstepHoldsOnAnyCity) {
  synth::City city = BuildSeededCity();
  auto pois = city.PoisOf(synth::PoiCategory::kSchool);
  core::GravityConfig gravity = core::CalibratedGravityConfig(city.spec);
  gravity.sample_rate_per_hour = 3;
  core::TodamBuilder builder(city.zones, pois, gtfs::WeekdayAmPeak(),
                             gravity);
  uint64_t seed = 900 + GetParam();
  EXPECT_EQ(builder.GravityTripCount(seed),
            builder.BuildGravity(seed).num_trips());
}

TEST_P(CityPropertyTest, PipelinePredictionsAreFiniteAndNonNegative) {
  testing::SsrHarness harness(BuildSeededCity());
  const synth::PoiCategory category = synth::PoiCategory::kVaxCenter;
  auto pois = harness.city().PoisOf(category);
  core::GravityConfig gravity;
  gravity.sample_rate_per_hour = 3;
  gravity.keep_scale = 2.0;
  core::Todam todam = harness.GravityTodam(pois, gravity, GetParam());

  core::PipelineConfig config;
  config.beta = 0.25;
  config.model = ml::ModelKind::kOls;
  config.seed = GetParam();
  auto run = harness.Run(category, todam, config);
  ASSERT_TRUE(run.ok());
  for (size_t z = 0; z < run.value().mac.size(); ++z) {
    EXPECT_TRUE(std::isfinite(run.value().mac[z]));
    EXPECT_GE(run.value().mac[z], 0.0);
    EXPECT_GE(run.value().acsd[z], 0.0);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, CityPropertyTest, ::testing::Range(0, 8));

}  // namespace
}  // namespace staq
