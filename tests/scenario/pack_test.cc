// Scenario pack files: the block grammar parses into ordered disruption
// lists, and every malformation — duplicate names, foreign keys, bad
// specs, empty packs — fails load with the scenario name attached.
#include "scenario/pack.h"

#include <gtest/gtest.h>

namespace staq::scenario {
namespace {

TEST(ScenarioPackTest, ParsesScenariosWithOrderedDisruptions) {
  auto pack = ScenarioPack::Parse(
      "# comments and blank lines are fine\n"
      "scenario trunk_outage {\n"
      "  disrupt = suspend_route:busiest\n"
      "}\n"
      "\n"
      "scenario snow_day {\n"
      "  disrupt = scale_walk:0.5, scale_headway:all:2, set_fare:all:4.0\n"
      "}\n");
  ASSERT_TRUE(pack.ok()) << pack.status();
  ASSERT_EQ(pack.value().scenarios.size(), 2u);

  const PackScenario& outage = pack.value().scenarios[0];
  EXPECT_EQ(outage.name, "trunk_outage");
  ASSERT_EQ(outage.disruptions.size(), 1u);
  EXPECT_EQ(outage.disruptions[0].kind, wal::MutationType::kSuspendRoute);
  EXPECT_EQ(outage.disruptions[0].selector, TargetSelector::kBusiest);

  // `disrupt` is an ordered application list — declaration order, never a
  // matrix expansion.
  const PackScenario& snow = pack.value().scenarios[1];
  ASSERT_EQ(snow.disruptions.size(), 3u);
  EXPECT_EQ(snow.disruptions[0].kind, wal::MutationType::kScaleWalkSpeed);
  EXPECT_EQ(snow.disruptions[1].kind, wal::MutationType::kScaleHeadway);
  EXPECT_EQ(snow.disruptions[2].kind, wal::MutationType::kSetFare);

  EXPECT_EQ(pack.value().Find("snow_day"), &snow);
  EXPECT_EQ(pack.value().Find("absent"), nullptr);
}

TEST(ScenarioPackTest, RejectsDuplicateScenarioNames) {
  auto pack = ScenarioPack::Parse(
      "scenario twice { disrupt = scale_walk:0.5 }\n"
      "scenario twice { disrupt = scale_walk:0.9 }\n");
  ASSERT_FALSE(pack.ok());
  EXPECT_NE(pack.status().message().find("twice"), std::string::npos);
}

TEST(ScenarioPackTest, RejectsForeignKeys) {
  auto pack = ScenarioPack::Parse(
      "scenario s { disrupt = scale_walk:0.5\n  city = covely }\n");
  ASSERT_FALSE(pack.ok());
  EXPECT_NE(pack.status().message().find("city"), std::string::npos);
}

TEST(ScenarioPackTest, RejectsBadSpecsWithTheScenarioNamed) {
  auto pack = ScenarioPack::Parse(
      "scenario broken { disrupt = suspend_route:all }\n");
  ASSERT_FALSE(pack.ok());
  EXPECT_EQ(pack.status().code(), util::StatusCode::kInvalidArgument);
  EXPECT_NE(pack.status().message().find("broken"), std::string::npos);
  EXPECT_NE(pack.status().message().find("suspend_route:all"),
            std::string::npos);
}

TEST(ScenarioPackTest, RejectsAScenarioWithoutDisruptions) {
  auto pack = ScenarioPack::Parse("scenario idle {\n}\n");
  ASSERT_FALSE(pack.ok());
  EXPECT_NE(pack.status().message().find(
                "pack parse error at line 2, column 2: scenario 'idle' has "
                "no 'disrupt' key"),
            std::string::npos)
      << pack.status();
}

TEST(ScenarioPackTest, RejectsEmptyPacks) {
  EXPECT_FALSE(ScenarioPack::Parse("").ok());
  EXPECT_FALSE(ScenarioPack::Parse("# only a comment\n").ok());
}

TEST(ScenarioPackTest, LoadFailsCleanlyOnAMissingFile) {
  auto pack = ScenarioPack::Load("/nonexistent/pack/file.pack");
  ASSERT_FALSE(pack.ok());
  EXPECT_EQ(pack.status().code(), util::StatusCode::kIoError);
}

TEST(ScenarioPackTest, LoadReportsADirectoryAsAnIoError) {
  auto pack = ScenarioPack::Load(::testing::TempDir());
  ASSERT_FALSE(pack.ok());
  EXPECT_EQ(pack.status().code(), util::StatusCode::kIoError) << pack.status();
}

TEST(ScenarioPackTest, CheckedInStandardPackParses) {
#ifdef STAQ_SOURCE_DIR
  auto pack = ScenarioPack::Load(std::string(STAQ_SOURCE_DIR) +
                                 "/scenarios/standard.pack");
  ASSERT_TRUE(pack.ok()) << pack.status();
  EXPECT_GE(pack.value().scenarios.size(), 5u);
  // Portability: the checked-in pack must never hard-code numeric ids, so
  // it runs against any city family or loaded GTFS feed.
  for (const PackScenario& scenario : pack.value().scenarios) {
    for (const Disruption& d : scenario.disruptions) {
      EXPECT_NE(d.selector, TargetSelector::kId)
          << scenario.name << ": " << d.spec;
    }
  }
#else
  GTEST_SKIP() << "source dir not wired";
#endif
}

}  // namespace
}  // namespace staq::scenario
