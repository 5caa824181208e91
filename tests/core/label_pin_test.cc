// Pins LabelingEngine's zone labels to the paper's labeling step written
// out with nothing shared: one router::Router::Route per TODAM trip, and
// the scalar aggregation tail (testing/scalar_oracle.h) over the journeys
// in original trip order. Covers both city families, two POI categories,
// two TODAM seeds, and JT, GAC at the DfT defaults and GAC at a
// non-default weight set — every label must match bit for bit, whatever
// column or kernel the library derives it through.
#include <numeric>

#include <gtest/gtest.h>

#include "core/labeling.h"
#include "core/todam.h"
#include "synth/city_spec.h"
#include "testing/scalar_oracle.h"

namespace staq::core {
namespace {

struct PinnedCost {
  const char* name;
  CostKind kind;
  router::GacWeights gac;
};

std::vector<PinnedCost> PinnedCosts() {
  router::GacWeights custom;
  custom.lambda_tan = 1.25;
  custom.lambda_wt = 3.5;
  custom.lambda_et = 1.5;
  custom.transfer_penalty_s = 300;
  custom.value_of_time = 12.0 / 3600.0;
  return {{"jt", CostKind::kJourneyTime, {}},
          {"gac_dft", CostKind::kGeneralizedCost, {}},
          {"gac_custom", CostKind::kGeneralizedCost, custom}};
}

void ExpectSameLabel(const ZoneLabel& got, const ZoneLabel& want) {
  EXPECT_EQ(got.mac, want.mac);
  EXPECT_EQ(got.acsd, want.acsd);
  EXPECT_EQ(got.num_trips, want.num_trips);
  EXPECT_EQ(got.num_infeasible, want.num_infeasible);
  EXPECT_EQ(got.num_walk_only, want.num_walk_only);
}

TEST(LabelPinTest, LabelZonesEqualOneRoutePerTripAndTheScalarTail) {
  const gtfs::TimeInterval interval = gtfs::WeekdayAmPeak();
  // The corpus must hold walk-only trips and trips with an interchange
  // (a transfer term in Eq. 1); infeasible trips are covered by
  // columnar_test's synthetic journeys.
  uint64_t walk_only = 0, transfers = 0;
  for (bool brindale : {true, false}) {
    SCOPED_TRACE(brindale ? "brindale" : "covely");
    synth::CitySpec spec = brindale ? synth::CitySpec::Brindale(0.04, 31)
                                    : synth::CitySpec::Covely(0.05, 32);
    auto built = synth::BuildCity(spec);
    ASSERT_TRUE(built.ok());
    const synth::City& city = built.value();
    std::vector<uint32_t> all(city.zones.size());
    std::iota(all.begin(), all.end(), 0u);
    router::Router reference(&city.feed, router::RouterOptions{});
    router::Router labeling(&city.feed, router::RouterOptions{});

    for (synth::PoiCategory category :
         {synth::PoiCategory::kSchool, synth::PoiCategory::kHospital}) {
      SCOPED_TRACE(synth::PoiCategoryName(category));
      const std::vector<synth::Poi> pois = city.PoisOf(category);
      ASSERT_FALSE(pois.empty());
      for (uint64_t seed : {1u, 17u}) {
        SCOPED_TRACE("seed " + std::to_string(seed));
        GravityConfig gravity;
        gravity.sample_rate_per_hour = 4;
        gravity.keep_scale = 2.0;
        TodamBuilder builder(city.zones, pois, interval, gravity);
        const Todam todam = builder.BuildGravity(seed);
        ASSERT_GT(todam.num_trips(), 0u);

        // Journeys do not depend on the cost, so each trip routes once.
        std::vector<std::vector<router::Journey>> journeys(all.size());
        for (uint32_t z : all) {
          for (const TripEntry& trip : todam.TripsFor(z)) {
            journeys[z].push_back(reference.Route(city.zones[z].centroid,
                                                  pois[trip.poi].position,
                                                  interval.day, trip.depart));
            const router::Journey& j = journeys[z].back();
            walk_only += j.IsWalkOnly();
            transfers += j.num_boardings > 1;
          }
        }
        for (const PinnedCost& cost : PinnedCosts()) {
          SCOPED_TRACE(cost.name);
          LabelingEngine engine(&city, &labeling, cost.gac);
          const std::vector<ZoneLabel> labels =
              engine.LabelZones(todam, all, pois, cost.kind, interval.day);
          ASSERT_EQ(labels.size(), all.size());
          for (uint32_t z : all) {
            SCOPED_TRACE("zone " + std::to_string(z));
            ExpectSameLabel(labels[z], testing::TripOrderLabel(
                                           journeys[z], cost.kind, cost.gac));
          }
        }
      }
    }
  }
  EXPECT_GT(walk_only, 0u);
  EXPECT_GT(transfers, 0u);
}

}  // namespace
}  // namespace staq::core
