#include "core/temporal.h"

#include <gtest/gtest.h>

#include "serve/server.h"
#include "testing/test_city.h"

namespace staq::core {
namespace {

serve::AqRequest ExactRequest(synth::PoiCategory category) {
  serve::AqRequest request;
  request.category = category;
  request.options.exact = true;
  request.options.gravity.sample_rate_per_hour = 4;
  request.options.gravity.keep_scale = 2.0;
  return request;
}

class TemporalTest : public ::testing::Test {
 protected:
  TemporalTest() : server_(testing::SmallCity(), gtfs::WeekdayAmPeak()) {}

  /// The temporal comparison: one server switched to each interval in
  /// turn (SetInterval re-runs the offline phase), the same query each
  /// time. Empty on any failure.
  std::vector<IntervalResult> QueryIntervals(
      synth::PoiCategory category,
      const std::vector<gtfs::TimeInterval>& intervals) {
    std::vector<IntervalResult> out;
    for (const gtfs::TimeInterval& interval : intervals) {
      auto switched = server_.SetInterval(interval);
      auto result = server_.Query(ExactRequest(category));
      if (!switched.ok() || !result.ok()) {
        ADD_FAILURE() << (switched.ok() ? result.status() : switched.status());
        return {};
      }
      out.push_back(IntervalResult{interval, std::move(result).value()});
    }
    return out;
  }

  serve::AqServer server_;
};

TEST_F(TemporalTest, SundayAccessNoBetterThanWeekday) {
  auto results = QueryIntervals(synth::PoiCategory::kSchool,
                                {gtfs::WeekdayAmPeak(), gtfs::SundayMorning()});
  ASSERT_EQ(results.size(), 2u);
  // Weekend headways are doubled in the generator, so mean access cannot
  // meaningfully improve.
  EXPECT_GE(results[1].result.mean_mac,
            0.95 * results[0].result.mean_mac);
}

TEST_F(TemporalTest, TemporalSpreadNonNegativeAndZeroForSingleInterval) {
  auto one = QueryIntervals(synth::PoiCategory::kSchool,
                            {gtfs::WeekdayAmPeak()});
  ASSERT_EQ(one.size(), 1u);
  for (double s : TemporalSpread(one)) {
    EXPECT_DOUBLE_EQ(s, 0.0);
  }

  auto two = QueryIntervals(synth::PoiCategory::kSchool,
                            {gtfs::WeekdayAmPeak(), gtfs::SundayMorning()});
  ASSERT_EQ(two.size(), 2u);
  auto spread = TemporalSpread(two);
  ASSERT_EQ(spread.size(), server_.base_city().zones.size());
  double total = 0;
  for (double s : spread) {
    EXPECT_GE(s, 0.0);
    total += s;
  }
  EXPECT_GT(total, 0.0);  // schedules differ, so something must move
}

TEST_F(TemporalTest, SpreadMatchesManualComputation) {
  auto results =
      QueryIntervals(synth::PoiCategory::kVaxCenter,
                     {gtfs::WeekdayAmPeak(), gtfs::WeekdayOffPeak()});
  ASSERT_EQ(results.size(), 2u);
  auto spread = TemporalSpread(results);
  for (size_t z = 0; z < spread.size(); ++z) {
    double a = results[0].result.mac[z];
    double b = results[1].result.mac[z];
    EXPECT_NEAR(spread[z], std::abs(a - b), 1e-9);
  }
}

TEST_F(TemporalTest, AccessDesertsDetectedAtHugeFactorOnlyWhenReal) {
  auto results = QueryIntervals(synth::PoiCategory::kSchool,
                                {gtfs::WeekdayAmPeak(), gtfs::SundayMorning()});
  ASSERT_EQ(results.size(), 2u);
  // factor 1.0: any zone that worsens at all is flagged.
  auto any_worse = TemporalAccessDeserts(results, 1.0);
  // factor 100: nothing degrades by 100x in this city.
  auto extreme = TemporalAccessDeserts(results, 100.0);
  EXPECT_GE(any_worse.size(), extreme.size());
  EXPECT_TRUE(extreme.empty());
  for (uint32_t z : any_worse) {
    EXPECT_LT(z, server_.base_city().zones.size());
  }
}

}  // namespace
}  // namespace staq::core
