#include "synth/city_io.h"

#include <filesystem>
#include <fstream>

#include <gtest/gtest.h>

#include "core/pipeline.h"
#include "graph/dijkstra.h"
#include "gtfs/gtfs_csv.h"
#include "router/router.h"
#include "testing/ssr_harness.h"
#include "testing/test_city.h"
#include "util/rng.h"

namespace staq::synth {
namespace {

namespace fs = std::filesystem;

std::string FreshDir(const char* name) {
  std::string dir = ::testing::TempDir() + "/staq_city_" + name;
  fs::remove_all(dir);
  return dir;
}

/// Save + reload a city, carrying the feed through a copy.
City RoundTrip(const City& city, const std::string& dir) {
  EXPECT_TRUE(SaveCityCsv(city, dir).ok());
  // The feed is persisted separately (GTFS); here we route it through the
  // GTFS writer/reader as the CLI does.
  geo::LocalProjection projection(geo::LatLon{52.45, -1.7});
  EXPECT_TRUE(gtfs::WriteFeedCsv(city.feed, projection, dir).ok());
  auto feed = gtfs::ReadFeedCsv(dir, projection);
  EXPECT_TRUE(feed.ok());
  auto loaded = LoadCityCsv(dir, std::move(feed).value());
  EXPECT_TRUE(loaded.ok()) << loaded.status();
  return std::move(loaded).value();
}

TEST(CityIoTest, RoundTripPreservesZonesAndPois) {
  City original = testing::TinyCity();
  std::string dir = FreshDir("roundtrip");
  City loaded = RoundTrip(original, dir);

  ASSERT_EQ(loaded.zones.size(), original.zones.size());
  for (size_t z = 0; z < original.zones.size(); ++z) {
    EXPECT_NEAR(loaded.zones[z].centroid.x, original.zones[z].centroid.x, 0.01);
    EXPECT_NEAR(loaded.zones[z].centroid.y, original.zones[z].centroid.y, 0.01);
    EXPECT_NEAR(loaded.zones[z].population, original.zones[z].population, 0.01);
    EXPECT_NEAR(loaded.zones[z].vulnerability,
                original.zones[z].vulnerability, 1e-5);
  }
  ASSERT_EQ(loaded.pois.size(), original.pois.size());
  for (size_t p = 0; p < original.pois.size(); ++p) {
    EXPECT_EQ(loaded.pois[p].category, original.pois[p].category);
    EXPECT_NEAR(loaded.pois[p].position.x, original.pois[p].position.x, 0.01);
  }
  fs::remove_all(dir);
}

TEST(CityIoTest, RoundTripPreservesRoadGraph) {
  City original = testing::TinyCity();
  std::string dir = FreshDir("roads");
  City loaded = RoundTrip(original, dir);

  ASSERT_EQ(loaded.road.num_nodes(), original.road.num_nodes());
  ASSERT_EQ(loaded.road.num_arcs(), original.road.num_arcs());
  // Shortest paths must agree (edge set identical up to rounding).
  auto d_orig = graph::ShortestPaths(original.road, 0);
  auto d_load = graph::ShortestPaths(loaded.road, 0);
  for (size_t n = 0; n < d_orig.size(); ++n) {
    EXPECT_NEAR(d_orig[n], d_load[n], 1.0);
  }
  EXPECT_EQ(loaded.zone_node.size(), loaded.zones.size());
  fs::remove_all(dir);
}

TEST(CityIoTest, LoadedCityRunsTheFullPipeline) {
  City original = testing::SmallCity();
  std::string dir = FreshDir("pipeline");
  City loaded = RoundTrip(original, dir);

  const size_t zones = loaded.zones.size();
  testing::SsrHarness harness(std::move(loaded));
  auto pois = harness.city().PoisOf(PoiCategory::kVaxCenter);
  ASSERT_FALSE(pois.empty());
  core::GravityConfig gravity;
  gravity.sample_rate_per_hour = 4;
  core::Todam todam = harness.GravityTodam(pois, gravity, 1);
  core::PipelineConfig config;
  config.beta = 0.2;
  config.model = ml::ModelKind::kOls;
  auto run = harness.Run(PoiCategory::kVaxCenter, todam, config);
  ASSERT_TRUE(run.ok()) << run.status();
  EXPECT_EQ(run.value().mac.size(), zones);
  fs::remove_all(dir);
}

TEST(CityIoTest, MissingDirectoryFails) {
  gtfs::Feed feed = testing::LineFeed();
  auto loaded = LoadCityCsv("/nonexistent-city-dir", std::move(feed));
  EXPECT_FALSE(loaded.ok());
}

TEST(CityIoTest, NonDenseZoneIdsRejected) {
  std::string dir = FreshDir("badzones");
  fs::create_directories(dir);
  std::ofstream(dir + "/zones.csv")
      << "zone_id,x_m,y_m,population,vulnerability\n"
      << "0,0,0,100,0.5\n"
      << "2,100,0,100,0.5\n";  // gap: id 1 missing
  std::ofstream(dir + "/pois.csv") << "poi_id,category,x_m,y_m\n";
  std::ofstream(dir + "/roads.csv")
      << "kind,a,b,c\nN,0,0,0\nN,1,100,0\nE,0,1,100\n";
  auto loaded = LoadCityCsv(dir, testing::LineFeed());
  EXPECT_FALSE(loaded.ok());
  fs::remove_all(dir);
}

TEST(CityIoTest, BadNumberRejected) {
  std::string dir = FreshDir("badnum");
  fs::create_directories(dir);
  std::ofstream(dir + "/zones.csv")
      << "zone_id,x_m,y_m,population,vulnerability\n"
      << "0,zero,0,100,0.5\n";
  std::ofstream(dir + "/pois.csv") << "poi_id,category,x_m,y_m\n";
  std::ofstream(dir + "/roads.csv") << "kind,a,b,c\nN,0,0,0\n";
  auto loaded = LoadCityCsv(dir, testing::LineFeed());
  EXPECT_FALSE(loaded.ok());
  fs::remove_all(dir);
}

TEST(CityIoTest, UnknownPoiCategoryRejected) {
  std::string dir = FreshDir("badpoi");
  fs::create_directories(dir);
  std::ofstream(dir + "/zones.csv")
      << "zone_id,x_m,y_m,population,vulnerability\n0,0,0,100,0.5\n"
      << "1,100,0,100,0.5\n";
  std::ofstream(dir + "/pois.csv")
      << "poi_id,category,x_m,y_m\n0,nightclub,0,0\n";
  std::ofstream(dir + "/roads.csv") << "kind,a,b,c\nN,0,0,0\n";
  auto loaded = LoadCityCsv(dir, testing::LineFeed());
  EXPECT_FALSE(loaded.ok());
  EXPECT_NE(loaded.status().message().find("nightclub"), std::string::npos);
  fs::remove_all(dir);
}

}  // namespace
}  // namespace staq::synth
