// Golden tests of the disruption contract (scenario subsystem): after a
// timetable, fare, or walk mutation, every label state the store carried
// over is bit-identical to a from-scratch build over the mutated network —
// for all five mutation kinds, chained on one store, on both city
// families. A cross-store check additionally rebuilds the disrupted feed
// through the pure transform and a *fresh* ScenarioStore, proving the
// patched epoch equals a server that loaded the mutated feed from scratch.
#include <gtest/gtest.h>

#include "scenario/transform.h"
#include "serve/scenario.h"
#include "testing/label_state.h"
#include "testing/test_city.h"
#include "testing/zone_loop.h"

namespace staq::serve {
namespace {

using testing::ExpectStatesIdentical;

LabelKey FastKey(uint64_t seed,
                 core::CostKind cost = core::CostKind::kJourneyTime) {
  LabelKey key;
  key.category = synth::PoiCategory::kSchool;
  key.cost = cost;
  key.gravity.sample_rate_per_hour = 4;
  key.gravity.keep_scale = 2.0;
  key.seed = seed;
  return key;
}

/// Rebuilds every materialised state of the current epoch from scratch —
/// with a router over the *disrupted* feed and the epoch's own (possibly
/// walk-rescaled) router options — and asserts bit-identity.
void ExpectEpochMatchesFullRebuild(const ScenarioStore& store) {
  auto scenario = store.Acquire();
  router::Router router(&scenario->base_city().feed,
                        scenario->router_options());
  core::LabelingEngine engine(&scenario->base_city(), &router);
  SerialZoneLoop serial(engine);
  auto states = scenario->MaterializedStates();
  ASSERT_FALSE(states.empty());
  for (const auto& [key, state] : states) {
    auto fresh = scenario->BuildLabelState(key, serial);
    ExpectStatesIdentical(*state, *fresh);
  }
}

/// Primes a JT and a GAC label state, then chains all five disruption
/// kinds, golden-checking the whole state set after each epoch.
void RunDisruptionGoldens(synth::City city) {
  testing::CountingZoneLoop loop;
  ScenarioStore store(std::move(city), gtfs::WeekdayAmPeak(), loop);

  const LabelKey jt = FastKey(3);
  const LabelKey gac = FastKey(3, core::CostKind::kGeneralizedCost);
  (void)store.Acquire()->GetOrBuildLabelState(jt, loop);
  (void)store.Acquire()->GetOrBuildLabelState(gac, loop);
  const uint32_t zones =
      static_cast<uint32_t>(store.base_city().zones.size());

  {
    SCOPED_TRACE("suspend_route");
    auto report = store.SuspendRoute(0);
    ASSERT_TRUE(report.ok()) << report.status();
    EXPECT_EQ(store.network_version(), 1u);
    // Both states patched; only the screened zones paid SPQs (the report
    // accumulates the relabel count across both states).
    EXPECT_EQ(report.value().states_patched, 2u);
    EXPECT_LE(report.value().zones_relabeled, 2u * zones);
    ExpectEpochMatchesFullRebuild(store);
  }
  {
    SCOPED_TRACE("close_stop");
    // Route 0 is gone; close a stop that other routes still call at.
    auto report = store.CloseStop(
        testing::StopServedOutsideRoute(store.base_city().feed, 0));
    ASSERT_TRUE(report.ok()) << report.status();
    EXPECT_EQ(store.network_version(), 2u);
    ExpectEpochMatchesFullRebuild(store);
  }
  {
    SCOPED_TRACE("scale_headway");
    auto report = store.ScaleHeadway(scenario::kAllRoutes, 2);
    ASSERT_TRUE(report.ok()) << report.status();
    EXPECT_EQ(store.network_version(), 3u);
    ExpectEpochMatchesFullRebuild(store);
  }
  {
    SCOPED_TRACE("set_fare");
    // Fares never enter journey time: the JT state must move across the
    // epoch as the same object, while every GAC zone relabels.
    auto jt_before = store.Acquire()->GetOrBuildLabelState(jt, loop);
    auto report = store.SetFare(scenario::kAllRoutes, 4.25);
    ASSERT_TRUE(report.ok()) << report.status();
    EXPECT_EQ(store.network_version(), 4u);
    EXPECT_EQ(report.value().states_patched, 1u);  // the GAC state
    EXPECT_EQ(report.value().states_shared, 1u);   // the JT state, verbatim
    bool built = false;
    auto jt_after = store.Acquire()->GetOrBuildLabelState(jt, loop, &built);
    EXPECT_FALSE(built);
    EXPECT_EQ(jt_after.get(), jt_before.get());
    ExpectEpochMatchesFullRebuild(store);
  }
  {
    SCOPED_TRACE("scale_walk_speed");
    auto report = store.ScaleWalkSpeed(0.5);
    ASSERT_TRUE(report.ok()) << report.status();
    EXPECT_EQ(store.network_version(), 5u);
    EXPECT_EQ(store.walk_scale(), 0.5);
    // A walk rescale invalidates every journey: both states relabel every
    // zone.
    EXPECT_EQ(report.value().zones_relabeled, 2u * zones);
    ExpectEpochMatchesFullRebuild(store);
  }
}

TEST(DisruptionGoldenTest, CovelyAllKindsChained) {
  RunDisruptionGoldens(testing::TinyCity());
}

TEST(DisruptionGoldenTest, BrindaleAllKindsChained) {
  auto city = synth::BuildCity(synth::CitySpec::Brindale(0.05, 7));
  ASSERT_TRUE(city.ok());
  RunDisruptionGoldens(std::move(city).value());
}

TEST(DisruptionGoldenTest, PatchedEpochEqualsAFreshStoreOverTheMutatedFeed) {
  // The strongest form of the golden: the patched epoch's states equal
  // those of a store that *started* from the transformed feed — the same
  // bytes a server would compute after loading the mutated GTFS files.
  synth::City city = testing::TinyCity();
  synth::City mutated = testing::TinyCity();  // identical deterministic build
  auto transformed = scenario::SuspendRoute(mutated.feed, 0);
  ASSERT_TRUE(transformed.ok()) << transformed.status();
  mutated.feed = std::move(transformed.value().feed);

  const LabelKey key = FastKey(11);

  testing::CountingZoneLoop loop;
  ScenarioStore store(std::move(city), gtfs::WeekdayAmPeak(), loop);
  (void)store.Acquire()->GetOrBuildLabelState(key, loop);
  ASSERT_TRUE(store.SuspendRoute(0).ok());

  testing::CountingZoneLoop fresh_loop;
  ScenarioStore fresh(std::move(mutated), gtfs::WeekdayAmPeak(), fresh_loop);
  auto golden = fresh.Acquire()->BuildLabelState(key, fresh_loop);

  bool built = true;
  auto patched = store.Acquire()->GetOrBuildLabelState(key, loop, &built);
  EXPECT_FALSE(built);
  ExpectStatesIdentical(*patched, *golden);
}

TEST(DisruptionGoldenTest, InvalidTargetsLeaveTheEpochUntouched) {
  testing::CountingZoneLoop loop;
  ScenarioStore store(testing::TinyCity(), gtfs::WeekdayAmPeak(), loop);
  const uint64_t epoch = store.epoch();

  EXPECT_FALSE(store.SuspendRoute(100000).ok());
  EXPECT_FALSE(store.CloseStop(100000).ok());
  EXPECT_FALSE(store.ScaleHeadway(0, 1).ok());  // factor must be >= 2
  EXPECT_FALSE(store.SetFare(100000, 1.0).ok());
  EXPECT_FALSE(store.ScaleWalkSpeed(0.0).ok());
  EXPECT_FALSE(store.ScaleWalkSpeed(-1.0).ok());

  EXPECT_EQ(store.epoch(), epoch);
  EXPECT_EQ(store.network_version(), 0u);
  EXPECT_EQ(store.walk_scale(), 1.0);
}

}  // namespace
}  // namespace staq::serve
