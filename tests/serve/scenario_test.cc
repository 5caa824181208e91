#include "serve/scenario.h"

#include <gtest/gtest.h>

#include "router/walk_table.h"
#include "scenario/impact.h"
#include "scenario/transform.h"
#include "serve/request.h"
#include "testing/label_state.h"
#include "testing/test_city.h"
#include "testing/zone_loop.h"

namespace staq::serve {
namespace {

/// Small sampling parameters so label-state builds stay in milliseconds.
LabelKey FastKey(synth::PoiCategory category = synth::PoiCategory::kSchool) {
  LabelKey key;
  key.category = category;
  key.gravity.sample_rate_per_hour = 4;
  key.gravity.keep_scale = 2.0;
  key.seed = 3;
  return key;
}

class ScenarioStoreTest : public ::testing::Test {
 protected:
  ScenarioStoreTest()
      : store_(testing::TinyCity(), gtfs::WeekdayAmPeak(), loop_) {}

  /// The current epoch's `key` state, built from scratch through a
  /// SerialZoneLoop over an engine of the epoch's own network.
  std::shared_ptr<const ExactLabelState> FreshState(const LabelKey& key) {
    auto scenario = store_.Acquire();
    router::Router router(&scenario->base_city().feed,
                          scenario->router_options());
    core::LabelingEngine engine(&scenario->base_city(), &router);
    SerialZoneLoop serial(engine);
    return scenario->BuildLabelState(key, serial);
  }

  testing::CountingZoneLoop loop_;
  ScenarioStore store_;
};

TEST_F(ScenarioStoreTest, InitialEpochServesTheCityPois) {
  auto scenario = store_.Acquire();
  EXPECT_EQ(scenario->epoch(), 0u);
  EXPECT_EQ(scenario->pois().size(), store_.base_city().pois.size());
  EXPECT_EQ(scenario->interval().label, gtfs::WeekdayAmPeak().label);
}

TEST_F(ScenarioStoreTest, MutationsInstallNewEpochsWithoutTouchingOldOnes) {
  auto before = store_.Acquire();
  size_t pois_before = before->pois().size();

  auto report = store_.AddPoi(synth::PoiCategory::kSchool,
                              store_.base_city().Centre());
  EXPECT_EQ(report.epoch, 1u);
  auto after = store_.Acquire();
  EXPECT_EQ(after->epoch(), 1u);
  EXPECT_EQ(after->pois().size(), pois_before + 1);

  // RCU: the pre-mutation snapshot is untouched and still fully usable.
  EXPECT_EQ(before->epoch(), 0u);
  EXPECT_EQ(before->pois().size(), pois_before);
  auto state = before->GetOrBuildLabelState(FastKey(), loop_);
  EXPECT_EQ(state->labels.size(), store_.base_city().zones.size());
}

TEST_F(ScenarioStoreTest, PoiEditsShareTheOfflineState) {
  auto before = store_.Acquire();
  store_.AddPoi(synth::PoiCategory::kHospital, store_.base_city().Centre());
  auto after = store_.Acquire();
  // POI edits must not re-run the offline phase.
  EXPECT_EQ(&before->offline(), &after->offline());
}

TEST_F(ScenarioStoreTest, SetIntervalRebuildsOfflineState) {
  auto before = store_.Acquire();
  auto report = store_.SetInterval(gtfs::WeekdayOffPeak());
  EXPECT_EQ(report.epoch, 1u);
  auto after = store_.Acquire();
  EXPECT_NE(&before->offline(), &after->offline());
  EXPECT_EQ(after->interval().label, gtfs::WeekdayOffPeak().label);
  EXPECT_EQ(after->pois().size(), before->pois().size());
}

TEST_F(ScenarioStoreTest, SetIntervalToTheServedIntervalKeepsEverything) {
  auto before = store_.Acquire();
  auto state = before->GetOrBuildLabelState(FastKey(), loop_);
  auto report = store_.SetInterval(gtfs::WeekdayAmPeak());
  // Still an epoch of its own, so WAL sequences count the switch...
  EXPECT_EQ(report.epoch, 1u);
  EXPECT_EQ(report.states_shared, 1u);
  EXPECT_EQ(report.states_patched, 0u);
  EXPECT_EQ(report.spqs, 0u);
  // ...that shares the offline state and carries the label state as is.
  auto after = store_.Acquire();
  EXPECT_EQ(after->epoch(), 1u);
  EXPECT_EQ(&before->offline(), &after->offline());
  bool built = false;
  auto carried = after->GetOrBuildLabelState(FastKey(), loop_, &built);
  EXPECT_FALSE(built);
  EXPECT_EQ(carried.get(), state.get());
}

TEST_F(ScenarioStoreTest, RemovePoiReportsNotFoundForUnknownId) {
  auto result = store_.RemovePoi(9999999u);
  EXPECT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), util::StatusCode::kNotFound);
  EXPECT_EQ(store_.epoch(), 0u);  // failed mutation installs nothing
}

TEST_F(ScenarioStoreTest, AddedPoiGetsAFreshStableId) {
  auto report = store_.AddPoi(synth::PoiCategory::kVaxCenter,
                              store_.base_city().Centre());
  auto scenario = store_.Acquire();
  EXPECT_EQ(scenario->pois().back().id, report.poi_id);
  auto removed = store_.RemovePoi(report.poi_id);
  ASSERT_TRUE(removed.ok());
  // Ids are never reused: the next add continues past the removed id.
  auto report2 = store_.AddPoi(synth::PoiCategory::kVaxCenter,
                               store_.base_city().Centre());
  EXPECT_GT(report2.poi_id, report.poi_id);
}

TEST_F(ScenarioStoreTest, PatchesRunThroughTheStoresLoop) {
  const LabelKey key = FastKey();
  (void)store_.Acquire()->GetOrBuildLabelState(key, loop_);

  {
    SCOPED_TRACE("add_poi");
    const size_t before = loop_.items();
    auto report =
        store_.AddPoi(synth::PoiCategory::kSchool, store_.base_city().Centre());
    const size_t items = loop_.items() - before;
    bool built = true;
    auto patched = store_.Acquire()->GetOrBuildLabelState(key, loop_, &built);
    EXPECT_FALSE(built);
    // The zones with a trip to the new POI (the state's last one) are the
    // ones the patch routed.
    const auto added = static_cast<uint32_t>(
        store_.Acquire()->PoisOf(key.category).size() - 1);
    size_t affected = 0;
    for (uint32_t z = 0; z < patched->todam.num_zones(); ++z) {
      for (const core::TripEntry& trip : patched->todam.TripsFor(z)) {
        if (trip.poi == added) {
          ++affected;
          break;
        }
      }
    }
    ASSERT_GT(affected, 0u);
    EXPECT_EQ(report.zones_relabeled, affected);
    EXPECT_EQ(items, core::NumZoneBlocks(affected));
    testing::ExpectStatesIdentical(*patched, *FreshState(key));
  }
  {
    SCOPED_TRACE("remove_poi");
    const size_t before = loop_.items();
    const uint32_t added = store_.Acquire()->pois().back().id;
    ASSERT_TRUE(store_.RemovePoi(added).ok());
    EXPECT_EQ(loop_.items(), before);  // no trip is routed again
    bool built = true;
    auto patched = store_.Acquire()->GetOrBuildLabelState(key, loop_, &built);
    EXPECT_FALSE(built);
    testing::ExpectStatesIdentical(*patched, *FreshState(key));
  }
  {
    SCOPED_TRACE("close_stop");
    // The screen the store runs on the old timetable, run here too.
    auto old_epoch = store_.Acquire();
    const gtfs::Feed& feed = old_epoch->base_city().feed;
    const gtfs::StopId stop = testing::StopServedOutsideRoute(feed, 0);
    auto transformed = scenario::CloseStop(feed, stop);
    ASSERT_TRUE(transformed.ok()) << transformed.status();
    const router::WalkTable walk(&feed, old_epoch->router_options().walk);
    scenario::ImpactInputs impact;
    impact.city = &old_epoch->base_city();
    impact.feed = &feed;
    impact.walk = &walk;
    impact.interval = old_epoch->interval();
    impact.removed_trips = transformed.value().removed_trips;
    impact.closed_stop = transformed.value().closed_stop;
    const size_t screened = scenario::AffectedZones(impact).size();
    ASSERT_GT(screened, 0u);

    const size_t before = loop_.items();
    auto report = store_.CloseStop(stop);
    ASSERT_TRUE(report.ok()) << report.status();
    EXPECT_EQ(report.value().zones_relabeled, screened);
    EXPECT_EQ(loop_.items() - before, core::NumZoneBlocks(screened));
    bool built = true;
    auto patched = store_.Acquire()->GetOrBuildLabelState(key, loop_, &built);
    EXPECT_FALSE(built);
    testing::ExpectStatesIdentical(*patched, *FreshState(key));
  }
}

TEST_F(ScenarioStoreTest, LabelStateIsMemoisedPerKey) {
  auto scenario = store_.Acquire();
  bool built = false;
  auto first = scenario->GetOrBuildLabelState(FastKey(), loop_, &built);
  EXPECT_TRUE(built);
  auto second = scenario->GetOrBuildLabelState(FastKey(), loop_, &built);
  EXPECT_FALSE(built);
  EXPECT_EQ(first.get(), second.get());  // same object, not a rebuild

  // A different key builds its own state.
  auto other = scenario->GetOrBuildLabelState(
      FastKey(synth::PoiCategory::kHospital), loop_, &built);
  EXPECT_TRUE(built);
  EXPECT_NE(other.get(), first.get());
}

TEST(LabelKeyTest, CanonicalDropsGacUnderJourneyTime) {
  LabelKey jt = FastKey();
  LabelKey jt_other_gac = jt;
  jt_other_gac.gac.lambda_wt = 99.0;
  // GAC weights cannot affect a JT labeling: the keys must collide.
  EXPECT_EQ(jt.Canonical(), jt_other_gac.Canonical());

  LabelKey gac = jt;
  gac.cost = core::CostKind::kGeneralizedCost;
  LabelKey gac_other = gac;
  gac_other.gac.lambda_wt = 99.0;
  EXPECT_NE(gac.Canonical(), gac_other.Canonical());
  EXPECT_NE(jt.Canonical(), gac.Canonical());
}

TEST(LabelKeyTest, CanonicalRequestKeyDropsSsrFieldsWhenExact) {
  AqRequest exact;
  exact.options.exact = true;
  exact.options.beta = 0.05;
  AqRequest exact_other_beta = exact;
  exact_other_beta.options.beta = 0.5;
  exact_other_beta.options.model = ml::ModelKind::kGnn;
  // beta/model are SSR-only: exact requests must share one cache entry.
  EXPECT_EQ(CanonicalRequestKey(exact), CanonicalRequestKey(exact_other_beta));

  AqRequest ssr = exact;
  ssr.options.exact = false;
  AqRequest ssr_other_beta = ssr;
  ssr_other_beta.options.beta = 0.5;
  EXPECT_NE(CanonicalRequestKey(ssr), CanonicalRequestKey(ssr_other_beta));
  EXPECT_NE(CanonicalRequestKey(exact), CanonicalRequestKey(ssr));
}

}  // namespace
}  // namespace staq::serve
