// `staq_cli query` answers what the server answers.
//
// The cli_query_* ctest fixtures run the CLI's query verb — exact and SSR,
// single with --zones-out and --batch, on a small Brindale and a small
// Covely city — and capture each run's stdout in STAQ_CLI_QUERY_DIR. Each
// test here rebuilds the same city, asks an AqServer the same request, and
// renders the text the CLI prints for it: every summary line, the SPQ and
// gravity-trip counts, every batch row and every per-zone CSV row must
// match (only the wall-clock "answered in" value is not compared). Single
// answers come from QueryUncached, batch rows from QueryBatch. Run this
// binary through ctest, which runs the fixtures first.
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "serve/server.h"
#include "synth/city_builder.h"
#include "synth/city_spec.h"
#include "util/csv.h"
#include "util/strings.h"

namespace staq::serve {
namespace {

constexpr char kTimingPrefix[] = "answered in       : ";

std::string FixturePath(const std::string& file) {
  return std::string(STAQ_CLI_QUERY_DIR) + "/" + file;
}

std::vector<std::string> Lines(std::istream& in) {
  std::vector<std::string> lines;
  for (std::string line; std::getline(in, line);) lines.push_back(line);
  return lines;
}

std::vector<std::string> ReadLines(const std::string& path) {
  std::ifstream in(path);
  return Lines(in);
}

/// The fixtures' cities: --synth brindale --scale 0.05 --seed 42 and
/// --synth covely --scale 0.05 --seed 3.
synth::City FixtureCity(bool brindale) {
  auto city = synth::BuildCity(brindale ? synth::CitySpec::Brindale(0.05, 42)
                                        : synth::CitySpec::Covely(0.05, 3));
  EXPECT_TRUE(city.ok()) << city.status();
  return std::move(city).value();
}

AqRequest Request(synth::PoiCategory category, bool exact, uint64_t seed) {
  AqRequest request;
  request.category = category;
  request.options.exact = exact;
  request.options.seed = seed;
  return request;
}

/// Compares printed lines with expected ones; an expected kTimingPrefix
/// line only checks the printed line's prefix.
void ExpectLines(const std::vector<std::string>& printed,
                 const std::vector<std::string>& expected) {
  ASSERT_EQ(printed.size(), expected.size());
  for (size_t i = 0; i < expected.size(); ++i) {
    SCOPED_TRACE("line " + std::to_string(i + 1));
    if (expected[i] == kTimingPrefix) {
      EXPECT_EQ(printed[i].rfind(kTimingPrefix, 0), 0u) << printed[i];
    } else {
      EXPECT_EQ(printed[i], expected[i]);
    }
  }
}

/// Checks the fixture `name` (stdout in <name>.txt, per-zone CSV in
/// <name>.csv) against the server's uncached answer to `request` in
/// `interval`. `cost` is the --cost flag's value.
void ExpectSingleAnswer(const std::string& name, bool brindale,
                        const gtfs::TimeInterval& interval,
                        const AqRequest& request, const std::string& cost) {
  const std::string stdout_path = FixturePath(name + ".txt");
  const std::string csv_path = FixturePath(name + ".csv");
  ASSERT_TRUE(std::filesystem::exists(stdout_path))
      << stdout_path << " is written by the cli_query_" << name
      << " ctest fixture";
  AqServer server(FixtureCity(brindale), interval);
  auto answer = server.QueryUncached(request);
  ASSERT_TRUE(answer.ok()) << answer.status();
  const core::AccessQueryResult& r = answer.value();
  const core::AccessQueryOptions& o = request.options;

  std::vector<std::string> expected;
  expected.push_back(util::Format(
      "poi=%s interval=%s cost=%s %s",
      synth::PoiCategoryName(request.category), interval.label.c_str(),
      cost.c_str(),
      o.exact ? "(exact)"
              : util::Format("(SSR beta=%.0f%% model=%s)", o.beta * 100,
                             ml::ModelKindName(o.model))
                    .c_str()));
  expected.push_back(util::Format("mean MAC          : %.1f min",
                                  r.mean_mac / 60));
  expected.push_back(util::Format("mean ACSD         : %.1f min",
                                  r.mean_acsd / 60));
  expected.push_back(util::Format("fairness (Jain)   : %.3f", r.fairness));
  expected.push_back(
      util::Format("pop fairness      : %.3f", r.population_fairness));
  expected.push_back(
      util::Format("vulnerable        : %.3f", r.vulnerable_fairness));
  expected.push_back(util::Format(
      "SPQs / M_g trips  : %llu / %llu",
      static_cast<unsigned long long>(r.spqs),
      static_cast<unsigned long long>(r.gravity_trips)));
  expected.push_back(kTimingPrefix);
  expected.push_back("per-zone CSV      : " + csv_path);
  ExpectLines(ReadLines(stdout_path), expected);

  util::CsvTable table({"zone", "mac_s", "acsd_s", "class"});
  for (size_t z = 0; z < r.mac.size(); ++z) {
    ASSERT_TRUE(
        table
            .AddRow({util::CsvTable::Num(static_cast<int64_t>(z)),
                     util::CsvTable::Num(r.mac[z], 1),
                     util::CsvTable::Num(r.acsd[z], 1),
                     core::AccessClassName(
                         static_cast<core::AccessClass>(r.classes[z]))})
            .ok());
  }
  std::istringstream rows(table.ToCsv());
  SCOPED_TRACE(csv_path);
  ExpectLines(ReadLines(csv_path), Lines(rows));
}

/// Checks the --batch fixture `name` against the server's QueryBatch over
/// the CLI's sweep: the template's seed and the next `seeds` - 1, each
/// under journey time and the default GAC weights.
void ExpectBatchAnswer(const std::string& name, bool brindale,
                       const gtfs::TimeInterval& interval,
                       const AqRequest& request, int seeds) {
  const std::string stdout_path = FixturePath(name + ".txt");
  ASSERT_TRUE(std::filesystem::exists(stdout_path))
      << stdout_path << " is written by the cli_query_" << name
      << " ctest fixture";
  AqBatchRequest batch;
  batch.request = request;
  for (int i = 0; i < seeds; ++i) {
    batch.seeds.push_back(request.options.seed + static_cast<uint64_t>(i));
  }
  batch.cost_members = {{core::CostKind::kJourneyTime, {}},
                        {core::CostKind::kGeneralizedCost, {}}};
  AqServer server(FixtureCity(brindale), interval);
  auto answers = server.QueryBatch(batch);
  ASSERT_EQ(answers.size(), batch.seeds.size() * batch.cost_members.size());

  std::vector<std::string> expected;
  expected.push_back(util::Format(
      "poi=%s interval=%s (exact batch: %d seed%s x jt,gac)",
      synth::PoiCategoryName(request.category), interval.label.c_str(), seeds,
      seeds == 1 ? "" : "s"));
  expected.push_back(util::Format("%-6s %-5s %10s %10s %8s %10s", "seed",
                                  "cost", "MAC(min)", "ACSD(min)", "Jain",
                                  "SPQs"));
  size_t i = 0;
  for (uint64_t seed : batch.seeds) {
    for (const char* cost : {"jt", "gac"}) {
      ASSERT_TRUE(answers[i].ok()) << answers[i].status();
      const core::AccessQueryResult& row = answers[i++].value();
      expected.push_back(util::Format(
          "%-6llu %-5s %10.1f %10.1f %8.3f %10llu",
          static_cast<unsigned long long>(seed), cost, row.mean_mac / 60,
          row.mean_acsd / 60, row.fairness,
          static_cast<unsigned long long>(row.spqs)));
    }
  }
  ExpectLines(ReadLines(stdout_path), expected);
}

// query --synth brindale --scale 0.05 --seed 42 --poi school --exact
//   --zones-out brindale_exact.csv
TEST(CliQueryTest, BrindaleExact) {
  ExpectSingleAnswer("brindale_exact", /*brindale=*/true,
                     gtfs::WeekdayAmPeak(),
                     Request(synth::PoiCategory::kSchool, true, 1), "jt");
}

// query --synth brindale --scale 0.05 --seed 42 --poi school --beta 0.2
//   --model OLS --label-seed 3 --zones-out brindale_ssr.csv
TEST(CliQueryTest, BrindaleSsr) {
  AqRequest request = Request(synth::PoiCategory::kSchool, false, 3);
  request.options.beta = 0.2;
  request.options.model = ml::ModelKind::kOls;
  ExpectSingleAnswer("brindale_ssr", /*brindale=*/true, gtfs::WeekdayAmPeak(),
                     request, "jt");
}

// query --synth brindale --scale 0.05 --seed 42 --poi school --exact
//   --batch --batch-seeds 2 --label-seed 4
TEST(CliQueryTest, BrindaleBatch) {
  ExpectBatchAnswer("brindale_batch", /*brindale=*/true,
                    gtfs::WeekdayAmPeak(),
                    Request(synth::PoiCategory::kSchool, true, 4), 2);
}

// query --synth covely --scale 0.05 --seed 3 --poi hospital
//   --interval offpeak --exact --cost gac --label-seed 5
//   --zones-out covely_exact.csv
TEST(CliQueryTest, CovelyExact) {
  AqRequest request = Request(synth::PoiCategory::kHospital, true, 5);
  request.options.cost = core::CostKind::kGeneralizedCost;
  ExpectSingleAnswer("covely_exact", /*brindale=*/false,
                     gtfs::WeekdayOffPeak(), request, "gac");
}

// query --synth covely --scale 0.05 --seed 3 --poi hospital --beta 0.3
//   --model MLP --cost gac --zones-out covely_ssr.csv
TEST(CliQueryTest, CovelySsr) {
  AqRequest request = Request(synth::PoiCategory::kHospital, false, 1);
  request.options.beta = 0.3;
  request.options.model = ml::ModelKind::kMlp;
  request.options.cost = core::CostKind::kGeneralizedCost;
  ExpectSingleAnswer("covely_ssr", /*brindale=*/false, gtfs::WeekdayAmPeak(),
                     request, "gac");
}

// query --synth covely --scale 0.05 --seed 3 --poi school
//   --interval offpeak --exact --batch --batch-seeds 3
TEST(CliQueryTest, CovelyBatch) {
  ExpectBatchAnswer("covely_batch", /*brindale=*/false,
                    gtfs::WeekdayOffPeak(),
                    Request(synth::PoiCategory::kSchool, true, 1), 3);
}

}  // namespace
}  // namespace staq::serve
