// Regression tests for the LabelingEngine access-stop cache (the serve hot
// path relabels the same zones repeatedly, so the per-zone AccessStops
// lookup is cached across calls). The hazard: a cached hop list computed
// under one walk table silently surviving a router swap and producing
// labels for the wrong walk budget. SetRouter must invalidate.
#include <gtest/gtest.h>

#include "core/labeling.h"
#include "core/todam.h"
#include "router/router.h"
#include "testing/test_city.h"

namespace staq::core {
namespace {

class LabelingInvalidationTest : public ::testing::Test {
 protected:
  LabelingInvalidationTest() : city_(testing::TinyCity()) {
    GravityConfig gravity;
    gravity.sample_rate_per_hour = 4;
    gravity.keep_scale = 2.0;
    TodamBuilder builder(city_.zones, city_.pois, gtfs::WeekdayAmPeak(),
                         gravity);
    todam_ = builder.BuildGravity(/*seed=*/3);
    for (uint32_t z = 0; z < city_.zones.size(); ++z) zones_.push_back(z);
  }

  synth::City city_;
  Todam todam_;
  std::vector<uint32_t> zones_;
};

/// A walk table with a drastically tighter access budget: journeys that
/// relied on longer access walks become infeasible or slower, so labels
/// computed against it must differ from the default table's.
router::RouterOptions TightWalkOptions() {
  router::RouterOptions options;
  options.walk.max_access_walk_s = 120;
  return options;
}

TEST_F(LabelingInvalidationTest, SetRouterDropsStaleAccessStops) {
  router::Router wide(&city_.feed, {});
  router::Router tight(&city_.feed, TightWalkOptions());

  // Warm the per-zone access-stop cache against the wide walk table.
  LabelingEngine engine(&city_, &wide);
  auto wide_labels =
      engine.LabelZones(todam_, zones_, city_.pois,
                        CostKind::kJourneyTime, gtfs::Day::kTuesday);

  // Rebind to the tight table and relabel the same zones: the engine must
  // recompute its access stops, or every journey would still board from
  // stops only reachable under the wide budget.
  engine.SetRouter(&tight);
  auto rebound_labels =
      engine.LabelZones(todam_, zones_, city_.pois,
                        CostKind::kJourneyTime, gtfs::Day::kTuesday);

  // Golden: a fresh engine that never saw the wide table.
  LabelingEngine fresh(&city_, &tight);
  auto fresh_labels =
      fresh.LabelZones(todam_, zones_, city_.pois,
                       CostKind::kJourneyTime, gtfs::Day::kTuesday);

  ASSERT_EQ(rebound_labels.size(), fresh_labels.size());
  bool any_difference_from_wide = false;
  for (size_t z = 0; z < fresh_labels.size(); ++z) {
    EXPECT_EQ(rebound_labels[z].mac, fresh_labels[z].mac) << "zone " << z;
    EXPECT_EQ(rebound_labels[z].acsd, fresh_labels[z].acsd) << "zone " << z;
    EXPECT_EQ(rebound_labels[z].num_infeasible,
              fresh_labels[z].num_infeasible);
    if (rebound_labels[z].mac != wide_labels[z].mac ||
        rebound_labels[z].num_infeasible != wide_labels[z].num_infeasible) {
      any_difference_from_wide = true;
    }
  }
  // Sanity: the two walk budgets genuinely disagree somewhere, otherwise
  // this regression test would pass vacuously even with a stale cache.
  EXPECT_TRUE(any_difference_from_wide);
}

TEST_F(LabelingInvalidationTest, ExplicitInvalidationKeepsLabelsIdentical) {
  router::Router router(&city_.feed, {});
  LabelingEngine engine(&city_, &router);
  auto before =
      engine.LabelZones(todam_, zones_, city_.pois,
                        CostKind::kJourneyTime, gtfs::Day::kTuesday);
  // Invalidation against an unchanged router is a pure recompute: results
  // must be bit-identical (the cache is a cache, not a semantic input).
  engine.InvalidateAccessStopCache();
  auto after =
      engine.LabelZones(todam_, zones_, city_.pois,
                        CostKind::kJourneyTime, gtfs::Day::kTuesday);
  ASSERT_EQ(before.size(), after.size());
  for (size_t z = 0; z < before.size(); ++z) {
    EXPECT_EQ(before[z].mac, after[z].mac);
    EXPECT_EQ(before[z].acsd, after[z].acsd);
  }
}

TEST_F(LabelingInvalidationTest, RepeatedRelabelingReusesCachedStops) {
  router::Router router(&city_.feed, {});
  LabelingEngine engine(&city_, &router);
  auto first = engine.LabelZones(todam_, zones_, city_.pois,
                                 CostKind::kJourneyTime, gtfs::Day::kTuesday);
  // Second pass over the same zones hits the warm cache; labels must not
  // drift.
  auto labels = engine.LabelZones(todam_, zones_, city_.pois,
                                  CostKind::kJourneyTime, gtfs::Day::kTuesday);
  ASSERT_EQ(labels.size(), first.size());
  for (size_t z = 0; z < labels.size(); ++z) {
    EXPECT_EQ(labels[z].mac, first[z].mac);
    EXPECT_EQ(labels[z].acsd, first[z].acsd);
  }
}

}  // namespace
}  // namespace staq::core
