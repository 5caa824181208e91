#include "router/cost.h"

#include <cmath>
#include <limits>

#include <gtest/gtest.h>

#include "testing/scalar_oracle.h"

namespace staq::router {
namespace {

Journey SampleJourney() {
  Journey j;
  j.feasible = true;
  j.depart = gtfs::MakeTime(7, 0);
  j.arrive = gtfs::MakeTime(7, 30);
  j.access_walk_s = 120;
  j.transfer_walk_s = 60;
  j.wait_s = 300;
  j.in_vehicle_s = 1200;
  j.egress_walk_s = 120;
  j.num_boardings = 2;
  j.total_fare = 4.0;
  return j;
}

TEST(JourneyTest, JourneyTimeSeconds) {
  Journey j = SampleJourney();
  EXPECT_DOUBLE_EQ(j.JourneyTimeSeconds(), 1800.0);
}

TEST(JourneyTest, WalkOnlyDetection) {
  Journey j = SampleJourney();
  EXPECT_FALSE(j.IsWalkOnly());
  j.num_boardings = 0;
  EXPECT_TRUE(j.IsWalkOnly());
  j.feasible = false;
  EXPECT_FALSE(j.IsWalkOnly());
}

TEST(GacTest, MatchesHandComputedEq1) {
  Journey j = SampleJourney();
  GacWeights w;  // defaults: λ_tan 2.0, λ_wt 2.5, λ_ivt 1.0, λ_et 2.0,
                 // TP 600 s, VOT 9/3600.
  double expected = 2.0 * (120 + 60) +   // TAN (access + transfer walk)
                    2.5 * 300 +          // WT
                    1.0 * 1200 +         // IVT
                    2.0 * 120 +          // ET
                    600.0 * 1 +          // TP: (2 boardings - 1) transfer
                    4.0 / (9.0 / 3600);  // FARE/VOT
  EXPECT_DOUBLE_EQ(testing::GeneralizedAccessCost(j, w), expected);
}

TEST(GacTest, NoTransferPenaltyForSingleBoarding) {
  Journey j = SampleJourney();
  j.num_boardings = 1;
  GacWeights w;
  w.lambda_tan = w.lambda_wt = w.lambda_et = 0;
  w.lambda_ivt = 0;
  Journey j2 = j;
  j2.total_fare = 0;
  // With all λ zero and no fare, a single boarding costs nothing.
  EXPECT_DOUBLE_EQ(testing::GeneralizedAccessCost(j2, w), 0.0);
}

TEST(GacTest, WalkOnlyJourneyWeightsWalk) {
  Journey j;
  j.feasible = true;
  j.depart = 0;
  j.arrive = 1000;
  j.access_walk_s = 1000;
  GacWeights w;
  EXPECT_DOUBLE_EQ(testing::GeneralizedAccessCost(j, w), 2.0 * 1000);
}

TEST(GacTest, InfeasibleIsInfinite) {
  Journey j;
  EXPECT_TRUE(std::isinf(testing::GeneralizedAccessCost(j, GacWeights{})));
}

TEST(GacTest, HigherVotLowersFareComponent) {
  Journey j = SampleJourney();
  GacWeights cheap_time;
  GacWeights dear_time;
  dear_time.value_of_time = cheap_time.value_of_time * 2;
  EXPECT_GT(testing::GeneralizedAccessCost(j, cheap_time),
            testing::GeneralizedAccessCost(j, dear_time));
}

TEST(GacWeightsTest, Validity) {
  GacWeights w;
  EXPECT_TRUE(w.Valid());
  w.value_of_time = 0;
  EXPECT_FALSE(w.Valid());
  w = GacWeights{};
  w.lambda_wt = -1;
  EXPECT_FALSE(w.Valid());
  w = GacWeights{};
  w.lambda_ivt = std::numeric_limits<double>::infinity();
  EXPECT_FALSE(w.Valid());
  w = GacWeights{};
  w.transfer_penalty_s = std::numeric_limits<double>::quiet_NaN();
  EXPECT_FALSE(w.Valid());
}

TEST(DescribeJourneyTest, MentionsLegsAndTimes) {
  Journey j = SampleJourney();
  JourneyLeg walk;
  walk.type = JourneyLeg::Type::kWalk;
  walk.start = j.depart;
  walk.end = j.depart + 120;
  JourneyLeg ride;
  ride.type = JourneyLeg::Type::kRide;
  ride.route = 3;
  ride.start = walk.end;
  ride.end = j.arrive;
  j.legs = {walk, ride};
  std::string text = DescribeJourney(j);
  EXPECT_NE(text.find("walk 120s"), std::string::npos);
  EXPECT_NE(text.find("route 3"), std::string::npos);
  EXPECT_NE(text.find("07:00:00"), std::string::npos);
}

TEST(DescribeJourneyTest, Infeasible) {
  EXPECT_EQ(DescribeJourney(Journey{}), "infeasible");
}

}  // namespace
}  // namespace staq::router
