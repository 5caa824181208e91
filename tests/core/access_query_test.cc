// The dynamic access query end to end through the library's front door,
// serve::AqServer: SSR and exact answers, a POI edit and its removal, an
// interval switch, and admission's refusals.
#include "core/access_query.h"

#include <gtest/gtest.h>

#include "serve/server.h"
#include "testing/test_city.h"

namespace staq::core {
namespace {

serve::AqRequest FastRequest(synth::PoiCategory category, bool exact = false) {
  serve::AqRequest request;
  request.category = category;
  request.options.exact = exact;
  request.options.beta = 0.2;
  request.options.model = ml::ModelKind::kOls;
  request.options.gravity.sample_rate_per_hour = 4;
  request.options.gravity.keep_scale = 2.0;
  request.options.seed = 2;
  return request;
}

class AccessQueryTest : public ::testing::Test {
 protected:
  AccessQueryTest() : server_(testing::SmallCity(), gtfs::WeekdayAmPeak()) {}

  serve::AqServer server_;
};

TEST_F(AccessQueryTest, SsrQueryAnswersWithFullCoverage) {
  auto result = server_.Query(FastRequest(synth::PoiCategory::kSchool));
  ASSERT_TRUE(result.ok()) << result.status();
  const auto& r = result.value();
  EXPECT_EQ(r.mac.size(), server_.base_city().zones.size());
  EXPECT_EQ(r.classes.size(), r.mac.size());
  EXPECT_GT(r.mean_mac, 0.0);
  EXPECT_GT(r.fairness, 0.0);
  EXPECT_LE(r.fairness, 1.0);
  EXPECT_GT(r.population_fairness, 0.0);
  EXPECT_GT(r.vulnerable_fairness, 0.0);
  EXPECT_GT(r.spqs, 0u);
  EXPECT_GT(r.gravity_trips, 0u);
  EXPECT_GT(r.elapsed_s, 0.0);
}

TEST_F(AccessQueryTest, ExactQueryUsesAllTrips) {
  auto ssr = server_.Query(FastRequest(synth::PoiCategory::kVaxCenter));
  auto exact = server_.Query(
      FastRequest(synth::PoiCategory::kVaxCenter, /*exact=*/true));
  ASSERT_TRUE(ssr.ok() && exact.ok());
  EXPECT_EQ(exact.value().spqs, exact.value().gravity_trips);
  EXPECT_LT(ssr.value().spqs, exact.value().spqs);
}

TEST_F(AccessQueryTest, SsrApproximatesExactMeans) {
  serve::AqRequest request = FastRequest(synth::PoiCategory::kSchool);
  // OLS is erratic at small budgets.
  request.options.model = ml::ModelKind::kMlp;
  request.options.beta = 0.3;
  auto ssr = server_.Query(request);
  auto exact = server_.Query(FastRequest(synth::PoiCategory::kSchool, true));
  ASSERT_TRUE(ssr.ok() && exact.ok());
  // Not exact, but within a generous band at beta = 30%.
  EXPECT_NEAR(ssr.value().mean_mac / exact.value().mean_mac, 1.0, 0.5);
  EXPECT_NEAR(ssr.value().fairness, exact.value().fairness, 0.3);
}

TEST_F(AccessQueryTest, UnknownCategoryEmptyCityFails) {
  synth::City city = testing::SmallCity();
  city.pois.clear();
  serve::AqServer empty(std::move(city), gtfs::WeekdayAmPeak());
  auto result = empty.Query(FastRequest(synth::PoiCategory::kSchool));
  EXPECT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), util::StatusCode::kNotFound);
}

TEST_F(AccessQueryTest, AddPoiImprovesItsNeighborhood) {
  serve::AqRequest request =
      FastRequest(synth::PoiCategory::kHospital, /*exact=*/true);
  auto before = server_.Query(request);
  ASSERT_TRUE(before.ok());

  // Drop a new hospital at the worst-served zone's centroid.
  size_t worst = 0;
  for (size_t z = 1; z < before.value().mac.size(); ++z) {
    if (before.value().mac[z] > before.value().mac[worst]) worst = z;
  }
  geo::Point site = server_.base_city().zones[worst].centroid;
  auto added = server_.AddPoi(synth::PoiCategory::kHospital, site);
  ASSERT_TRUE(added.ok()) << added.status();

  auto after = server_.Query(request);
  ASSERT_TRUE(after.ok());
  EXPECT_LT(after.value().mac[worst], before.value().mac[worst]);

  // Removing it restores the original answer.
  ASSERT_TRUE(server_.RemovePoi(added.value().poi_id).ok());
  auto restored = server_.Query(request);
  ASSERT_TRUE(restored.ok());
  EXPECT_EQ(restored.value().mac, before.value().mac);
}

TEST_F(AccessQueryTest, ExactGacQueryRefusesInvalidWeights) {
  // Admission validates the weights of a generalized-cost request; journey
  // time never reads them.
  serve::AqRequest request =
      FastRequest(synth::PoiCategory::kSchool, /*exact=*/true);
  request.options.gac.value_of_time = 0.0;
  request.options.cost = CostKind::kGeneralizedCost;
  auto gac = server_.Query(request);
  ASSERT_FALSE(gac.ok());
  EXPECT_EQ(gac.status().code(), util::StatusCode::kInvalidArgument);
  request.options.cost = CostKind::kJourneyTime;
  EXPECT_TRUE(server_.Query(request).ok());
}

TEST_F(AccessQueryTest, RemoveUnknownPoiFails) {
  EXPECT_EQ(server_.RemovePoi(999999).status().code(),
            util::StatusCode::kNotFound);
}

TEST_F(AccessQueryTest, SetIntervalRerunsOfflinePhase) {
  serve::AqRequest request =
      FastRequest(synth::PoiCategory::kSchool, /*exact=*/true);
  auto am = server_.Query(request);
  ASSERT_TRUE(am.ok());
  ASSERT_TRUE(server_.SetInterval(gtfs::SundayMorning()).ok());
  EXPECT_EQ(server_.Snapshot()->interval().day, gtfs::Day::kSunday);
  auto sunday = server_.Query(request);
  ASSERT_TRUE(sunday.ok());
  // Sparser Sunday service: mean access cost should not improve.
  EXPECT_GE(sunday.value().mean_mac, 0.9 * am.value().mean_mac);
}

TEST_F(AccessQueryTest, ClassesPartitionTheCity) {
  auto result =
      server_.Query(FastRequest(synth::PoiCategory::kSchool, /*exact=*/true));
  ASSERT_TRUE(result.ok());
  int histogram[4] = {0, 0, 0, 0};
  for (int c : result.value().classes) {
    ASSERT_GE(c, 0);
    ASSERT_LT(c, 4);
    ++histogram[c];
  }
  // The classification rules guarantee at least "best" and one bad class
  // are non-empty for any non-constant distribution.
  EXPECT_GT(histogram[static_cast<int>(AccessClass::kBest)], 0);
}

}  // namespace
}  // namespace staq::core
