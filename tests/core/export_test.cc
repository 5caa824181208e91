#include "core/export.h"

#include <cstdio>
#include <fstream>

#include <gtest/gtest.h>

#include "serve/server.h"
#include "testing/test_city.h"

namespace staq::core {
namespace {

class ExportTest : public ::testing::Test {
 protected:
  ExportTest() : server_(testing::SmallCity(), gtfs::WeekdayAmPeak()) {
    serve::AqRequest request;
    request.category = synth::PoiCategory::kVaxCenter;
    request.options.exact = true;
    request.options.gravity.sample_rate_per_hour = 4;
    request.options.gravity.keep_scale = 2.0;
    auto answer = server_.Query(request);
    EXPECT_TRUE(answer.ok());
    result_ = std::move(answer).value();
  }

  std::string ReadFile(const std::string& path) {
    std::ifstream in(path);
    return std::string((std::istreambuf_iterator<char>(in)),
                       std::istreambuf_iterator<char>());
  }

  const synth::City& city() const { return server_.base_city(); }

  serve::AqServer server_;
  AccessQueryResult result_;
};

TEST_F(ExportTest, GeoJsonContainsEveryZoneAndPoi) {
  std::string path = ::testing::TempDir() + "/staq_export.geojson";
  geo::LocalProjection projection(geo::LatLon{52.41, -1.51});
  auto pois = city().PoisOf(synth::PoiCategory::kVaxCenter);
  ASSERT_TRUE(ExportAccessGeoJson(city(), projection, result_, pois,
                                  path)
                  .ok());
  std::string content = ReadFile(path);
  EXPECT_NE(content.find("\"FeatureCollection\""), std::string::npos);

  size_t zone_features = 0, poi_features = 0, pos = 0;
  while ((pos = content.find("\"kind\":\"zone\"", pos)) != std::string::npos) {
    ++zone_features;
    ++pos;
  }
  pos = 0;
  while ((pos = content.find("\"kind\":\"poi\"", pos)) != std::string::npos) {
    ++poi_features;
    ++pos;
  }
  EXPECT_EQ(zone_features, city().zones.size());
  EXPECT_EQ(poi_features, pois.size());
  // Coordinates are WGS-84: longitudes near -1.5, latitudes near 52.4.
  EXPECT_NE(content.find("[-1."), std::string::npos);
  std::remove(path.c_str());
}

TEST_F(ExportTest, GeoJsonIsStructurallyBalanced) {
  std::string path = ::testing::TempDir() + "/staq_export2.geojson";
  geo::LocalProjection projection(geo::LatLon{52.41, -1.51});
  ASSERT_TRUE(ExportAccessGeoJson(city(), projection, result_, {},
                                  path)
                  .ok());
  std::string content = ReadFile(path);
  // Braces and brackets balance — a cheap well-formedness proxy that
  // catches missed separators without a JSON parser dependency.
  long braces = 0, brackets = 0;
  for (char c : content) {
    if (c == '{') ++braces;
    if (c == '}') --braces;
    if (c == '[') ++brackets;
    if (c == ']') --brackets;
    EXPECT_GE(braces, 0);
    EXPECT_GE(brackets, 0);
  }
  EXPECT_EQ(braces, 0);
  EXPECT_EQ(brackets, 0);
  std::remove(path.c_str());
}

TEST_F(ExportTest, GeoJsonRejectsMismatchedResult) {
  AccessQueryResult bad = result_;
  bad.mac.pop_back();
  geo::LocalProjection projection(geo::LatLon{52.41, -1.51});
  EXPECT_FALSE(ExportAccessGeoJson(city(), projection, bad, {},
                                   "/tmp/never.geojson")
                   .ok());
}

TEST_F(ExportTest, ReportContainsHeadlinesAndWorstZones) {
  std::string md =
      RenderAccessReport(city(), result_, "Access to vax centres");
  EXPECT_NE(md.find("# Access to vax centres"), std::string::npos);
  EXPECT_NE(md.find("mean access cost (MAC)"), std::string::npos);
  EXPECT_NE(md.find("Jain"), std::string::npos);
  EXPECT_NE(md.find("Worst-served zones"), std::string::npos);
  // The worst zone's id must appear in the table.
  uint32_t worst = 0;
  for (uint32_t z = 1; z < result_.mac.size(); ++z) {
    if (result_.mac[z] > result_.mac[worst]) worst = z;
  }
  EXPECT_NE(md.find("| " + std::to_string(worst) + " |"), std::string::npos);
  // All four classes enumerated.
  for (int c = 0; c < 4; ++c) {
    EXPECT_NE(md.find(AccessClassName(static_cast<AccessClass>(c))),
              std::string::npos);
  }
}

TEST_F(ExportTest, WriteReportRoundTrips) {
  std::string path = ::testing::TempDir() + "/staq_report.md";
  ASSERT_TRUE(WriteAccessReport(city(), result_, "T", path).ok());
  EXPECT_EQ(ReadFile(path), RenderAccessReport(city(), result_, "T"));
  std::remove(path.c_str());
}

TEST_F(ExportTest, WriteFailsOnBadPath) {
  EXPECT_FALSE(
      WriteAccessReport(city(), result_, "T", "/no-dir/x.md").ok());
  geo::LocalProjection projection(geo::LatLon{52.41, -1.51});
  EXPECT_FALSE(ExportAccessGeoJson(city(), projection, result_, {},
                                   "/no-dir/x.geojson")
                   .ok());
}

}  // namespace
}  // namespace staq::core
