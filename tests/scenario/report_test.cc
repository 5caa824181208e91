// Equity reports: CompareAccess folds two query answers into deltas,
// migration counts, and the worst zone; the JSON document round-trips
// bit-for-bit through ParseEquityReportJson; and the text rendering is
// deterministic.
#include "scenario/report.h"

#include <gtest/gtest.h>

namespace staq::scenario {
namespace {

core::AccessQueryResult MakeResult(std::vector<double> mac,
                                   std::vector<int> classes) {
  core::AccessQueryResult result;
  result.mac = std::move(mac);
  result.acsd.assign(result.mac.size(), 120.0);
  result.classes = std::move(classes);
  result.mean_mac = 0.0;
  for (double m : result.mac) result.mean_mac += m / result.mac.size();
  result.mean_acsd = 120.0;
  result.fairness = 0.875;
  result.population_fairness = 0.75;
  result.vulnerable_fairness = 0.5;
  return result;
}

TEST(CompareAccessTest, DeltasMigrationAndWorstZone) {
  std::vector<synth::Zone> zones(4);
  auto before = MakeResult({100, 200, 300, 400}, {0, 1, 2, 3});
  auto after = MakeResult({160, 200, 420.25, 400}, {1, 1, 3, 3});

  EquityReport report = CompareAccess("outage", "covely", zones, before, after);
  EXPECT_EQ(report.scenario, "outage");
  EXPECT_EQ(report.city, "covely");
  EXPECT_EQ(report.zones, 4u);

  ASSERT_EQ(report.mac_delta_s.size(), 4u);
  EXPECT_EQ(report.mac_delta_s[0], 60.0);
  EXPECT_EQ(report.mac_delta_s[1], 0.0);
  EXPECT_EQ(report.mac_delta_s[2], 120.25);
  EXPECT_EQ(report.mac_delta_s[3], 0.0);

  // Worst = largest MAC increase (access loss).
  EXPECT_EQ(report.worst.zone, 2u);
  EXPECT_EQ(report.worst.mac_delta_s, 120.25);

  EXPECT_EQ(report.migration[0][1], 1u);
  EXPECT_EQ(report.migration[1][1], 1u);
  EXPECT_EQ(report.migration[2][3], 1u);
  EXPECT_EQ(report.migration[3][3], 1u);
  EXPECT_EQ(report.migration[0][0], 0u);

  EXPECT_EQ(report.before.class_counts[0], 1u);
  EXPECT_EQ(report.after.class_counts[3], 2u);
  EXPECT_EQ(report.before.mean_mac, before.mean_mac);
  EXPECT_EQ(report.after.fairness, 0.875);
}

TEST(CompareAccessTest, WorstZoneTiesKeepTheLowestId) {
  std::vector<synth::Zone> zones(3);
  auto before = MakeResult({100, 100, 100}, {0, 0, 0});
  auto after = MakeResult({150, 150, 100}, {0, 0, 0});
  EquityReport report = CompareAccess("tie", "c", zones, before, after);
  EXPECT_EQ(report.worst.zone, 0u);
}

EquityReport SampleReport() {
  std::vector<synth::Zone> zones(4);
  auto before = MakeResult({100, 200, 300, 400}, {0, 1, 2, 3});
  auto after = MakeResult({160, 200, 420.25, 400}, {1, 1, 3, 3});
  EquityReport report =
      CompareAccess("snow \"day\"", "covely-0.06", zones, before, after);
  report.disruptions = {"scale_walk:0.5 => all routes",
                        "suspend_route:busiest => route 3"};
  report.mutation_seconds = 0.125;
  report.mutation_spqs = 4242;
  return report;
}

TEST(EquityReportJsonTest, RoundTripsEveryField) {
  EquityReport report = SampleReport();
  auto parsed = ParseEquityReportJson(EquityReportJson(report));
  ASSERT_TRUE(parsed.ok()) << parsed.status();
  const EquityReport& r = parsed.value();

  EXPECT_EQ(r.scenario, report.scenario);  // quote survives escaping
  EXPECT_EQ(r.city, report.city);
  EXPECT_EQ(r.zones, report.zones);
  EXPECT_EQ(r.disruptions, report.disruptions);
  EXPECT_EQ(r.before.mean_mac, report.before.mean_mac);
  EXPECT_EQ(r.before.class_counts, report.before.class_counts);
  EXPECT_EQ(r.after.fairness, report.after.fairness);
  EXPECT_EQ(r.after.vulnerable_fairness, report.after.vulnerable_fairness);
  EXPECT_EQ(r.migration, report.migration);
  EXPECT_EQ(r.mac_delta_s, report.mac_delta_s);
  EXPECT_EQ(r.worst.zone, report.worst.zone);
  EXPECT_EQ(r.worst.mac_delta_s, report.worst.mac_delta_s);
  EXPECT_EQ(r.mutation_seconds, report.mutation_seconds);
  EXPECT_EQ(r.mutation_spqs, report.mutation_spqs);

  // Determinism: rendering the parsed report reproduces the document.
  EXPECT_EQ(EquityReportJson(r), EquityReportJson(report));
}

TEST(EquityReportJsonTest, RejectsIncompleteDocuments) {
  EXPECT_FALSE(ParseEquityReportJson("not json").ok());
  EXPECT_FALSE(ParseEquityReportJson("{}").ok());
  // A truncated but valid JSON document (missing the migration matrix).
  EXPECT_FALSE(ParseEquityReportJson(
                   "{\"scenario\": \"s\", \"city\": \"c\", \"zones\": 0, "
                   "\"before\": {}, \"after\": {}}")
                   .ok());
}

TEST(EquityReportJsonTest, RejectsAZoneCountTheDocumentDoesNotHold) {
  // The delta column grows entry by entry, so a corrupt count fails at the
  // first missing entry instead of sizing a 32 GB column.
  const EquityReport report = SampleReport();
  std::string json = EquityReportJson(report);
  const std::string zones = "\"zones\": " + std::to_string(report.zones);
  const size_t at = json.find(zones);
  ASSERT_NE(at, std::string::npos);
  json.replace(at, zones.size(), "\"zones\": 4000000000");
  auto parsed = ParseEquityReportJson(json);
  ASSERT_FALSE(parsed.ok());
  EXPECT_NE(parsed.status().message().find("mac_delta_s["), std::string::npos)
      << parsed.status();
}

/// `json` with `value`, where it first follows `needle`, replaced by
/// `replacement`; empty when `json` has no `needle` + `value`.
std::string ReplaceValue(std::string json, const std::string& needle,
                         const std::string& value,
                         const std::string& replacement) {
  const size_t at = json.find(needle + value);
  if (at == std::string::npos) return "";
  json.replace(at + needle.size(), value.size(), replacement);
  return json;
}

TEST(EquityReportJsonTest, RejectsCountsThatAreNotWholeNumbersInRange) {
  // Every integer field is read as a count: a negative, fractional or
  // out-of-range number is refused with kInvalidArgument naming the field,
  // never converted (an out-of-range conversion is undefined behaviour).
  EquityReport report = SampleReport();
  report.before.class_counts[2] = 9137;
  report.migration[3][1] = 9173;
  report.worst.zone = 3;
  const std::string json = EquityReportJson(report);
  struct Field {
    std::string needle;  // text right before the value
    std::string value;   // the value as rendered
    std::string path;    // the field's path in the error
  };
  const Field fields[] = {
      {"\"zones\": ", std::to_string(report.zones), "zones"},
      {", ", "9137", "before.class_counts[2]"},
      {", ", "9173", "migration[3][1]"},
      {"\"worst_zone\": ", "3", "worst_zone"},
  };
  for (const Field& field : fields) {
    for (const char* bad : {"-1", "2.5", "4294967296", "1e300"}) {
      SCOPED_TRACE(field.path + " = " + bad);
      const std::string corrupt =
          ReplaceValue(json, field.needle, field.value, bad);
      ASSERT_FALSE(corrupt.empty());
      auto parsed = ParseEquityReportJson(corrupt);
      ASSERT_FALSE(parsed.ok());
      EXPECT_EQ(parsed.status().code(), util::StatusCode::kInvalidArgument);
      EXPECT_NE(parsed.status().message().find("'" + field.path + "'"),
                std::string::npos)
          << parsed.status();
    }
  }
  // `mutation_spqs` is 64-bit: 2^32 is a count, 2^64 is not.
  const std::string spqs = std::to_string(report.mutation_spqs);
  for (const char* bad : {"-1", "2.5", "18446744073709551616", "1e300"}) {
    SCOPED_TRACE(std::string("mutation_spqs = ") + bad);
    auto parsed = ParseEquityReportJson(
        ReplaceValue(json, "\"mutation_spqs\": ", spqs, bad));
    ASSERT_FALSE(parsed.ok());
    EXPECT_EQ(parsed.status().code(), util::StatusCode::kInvalidArgument);
    EXPECT_NE(parsed.status().message().find("'mutation_spqs'"),
              std::string::npos)
        << parsed.status();
  }
  auto wide = ParseEquityReportJson(
      ReplaceValue(json, "\"mutation_spqs\": ", spqs, "4294967296"));
  ASSERT_TRUE(wide.ok()) << wide.status();
  EXPECT_EQ(wide.value().mutation_spqs, uint64_t{1} << 32);
}

TEST(FormatEquityReportTest, RendersDeterministically) {
  EquityReport report = SampleReport();
  std::string text = FormatEquityReport(report);
  EXPECT_EQ(text, FormatEquityReport(report));
  // The resolved disruptions and the worst zone appear verbatim.
  EXPECT_NE(text.find("suspend_route:busiest => route 3"), std::string::npos);
  EXPECT_NE(text.find("worst zone: 2"), std::string::npos);
  EXPECT_NE(text.find("4242 patch SPQs"), std::string::npos);
}

}  // namespace
}  // namespace staq::scenario
