// Golden tests of the tentpole guarantee: after any POI mutation, the
// incrementally patched ExactLabelState is bit-identical to a from-scratch
// build over the edited POI set — across cities, seeds, and cost kinds.
#include <gtest/gtest.h>

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

/// Zones whose trip count differs between two states' TODAMs: the zones a
/// POI patch re-derives.
uint32_t ZonesWithChangedTrips(const ExactLabelState& a,
                               const ExactLabelState& b) {
  uint32_t changed = 0;
  for (uint32_t z = 0; z < a.todam.num_zones(); ++z) {
    changed += a.todam.TripsFor(z).size() != b.todam.TripsFor(z).size();
  }
  return changed;
}

/// Primes a label state, applies add + remove mutations, and asserts every
/// patched state equals its from-scratch golden rebuild.
void RunGoldenScenario(synth::City city, const LabelKey& key) {
  testing::CountingZoneLoop loop;
  ScenarioStore store(std::move(city), gtfs::WeekdayAmPeak(), loop);
  // The golden rebuild must run the same routing engine the store's
  // incremental patches use: journey times agree across engines bit for
  // bit, but equal-cost GAC journeys may decompose into different legs.
  router::Router router(&store.base_city().feed, store.router_options());
  core::LabelingEngine engine(&store.base_city(), &router);
  SerialZoneLoop serial(engine);

  // Materialise the state so the mutation has something to patch.
  auto base_state = store.Acquire()->GetOrBuildLabelState(key, serial);
  const uint64_t full_build_spqs = base_state->todam.num_trips();

  // --- add a POI near the extent corner (local perturbation) -------------
  const geo::BBox& extent = store.base_city().extent;
  geo::Point corner{extent.min_x, extent.min_y};
  auto add_report = store.AddPoi(key.category, corner);
  EXPECT_EQ(add_report.states_patched, 1u);

  auto after_add = store.Acquire();
  bool built = false;
  auto patched = after_add->GetOrBuildLabelState(key, serial, &built);
  EXPECT_FALSE(built) << "mutation must carry the state over, not drop it";
  auto fresh = after_add->BuildLabelState(key, serial);
  ExpectStatesIdentical(*patched, *fresh);

  // The patch only pays for the zones the new POI actually touched, and
  // routes only the new POI's trips.
  EXPECT_EQ(add_report.zones_relabeled,
            ZonesWithChangedTrips(*base_state, *fresh));
  EXPECT_LT(add_report.zones_relabeled, add_report.zones_total);
  EXPECT_LT(add_report.spqs, full_build_spqs);
  EXPECT_EQ(add_report.spqs,
            fresh->todam.num_trips() - base_state->todam.num_trips());

  // --- remove an original POI (non-tail column) --------------------------
  uint32_t victim = after_add->PoisOf(key.category).front().id;
  auto remove_report = store.RemovePoi(victim);
  ASSERT_TRUE(remove_report.ok());
  EXPECT_EQ(remove_report.value().states_patched, 1u);
  // A removal re-aggregates the zones that lost trips and routes nothing.
  EXPECT_EQ(remove_report.value().spqs, 0u);
  EXPECT_GT(remove_report.value().zones_relabeled, 0u);

  auto after_remove = store.Acquire();
  auto patched2 = after_remove->GetOrBuildLabelState(key, serial, &built);
  EXPECT_FALSE(built);
  auto fresh2 = after_remove->BuildLabelState(key, serial);
  ExpectStatesIdentical(*patched2, *fresh2);
  EXPECT_EQ(remove_report.value().zones_relabeled,
            ZonesWithChangedTrips(*patched, *fresh2));

  // --- history independence: remove the added POI again ------------------
  // After add(corner) + remove(front) + remove(corner), the state must be
  // bit-identical to a fresh build over the surviving POI set — the chain
  // of patches leaves no residue.
  ASSERT_TRUE(store.RemovePoi(add_report.poi_id).ok());
  auto final_scenario = store.Acquire();
  auto chained = final_scenario->GetOrBuildLabelState(key, serial, &built);
  EXPECT_FALSE(built);
  auto golden = final_scenario->BuildLabelState(key, serial);
  ExpectStatesIdentical(*chained, *golden);
}

TEST(IncrementalRelabelGoldenTest, CovelyJourneyTimeAcrossSeeds) {
  for (uint64_t seed : {3u, 11u}) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    RunGoldenScenario(testing::TinyCity(), FastKey(seed));
  }
}

TEST(IncrementalRelabelGoldenTest, BrindaleJourneyTime) {
  synth::CitySpec spec = synth::CitySpec::Brindale(0.05, 7);
  auto city = synth::BuildCity(spec);
  ASSERT_TRUE(city.ok());
  RunGoldenScenario(std::move(city).value(), FastKey(5));
}

TEST(IncrementalRelabelGoldenTest, GeneralizedCostPatchesExactly) {
  LabelKey key = FastKey(3, core::CostKind::kGeneralizedCost);
  key.gac.lambda_wt = 2.0;  // non-default weights must flow into patches
  RunGoldenScenario(testing::TinyCity(), key);
}

TEST(IncrementalRelabelGoldenTest,
     StatesOfOtherCategoriesAreSharedNotRebuilt) {
  testing::CountingZoneLoop loop;
  ScenarioStore store(testing::TinyCity(), gtfs::WeekdayAmPeak(), loop);

  LabelKey school = FastKey(3);
  LabelKey hospital = FastKey(3);
  hospital.category = synth::PoiCategory::kHospital;
  auto scenario = store.Acquire();
  auto school_state = scenario->GetOrBuildLabelState(school, loop);
  auto hospital_state = scenario->GetOrBuildLabelState(hospital, loop);

  auto report = store.AddPoi(synth::PoiCategory::kHospital,
                             store.base_city().Centre());
  EXPECT_EQ(report.states_patched, 1u);
  EXPECT_EQ(report.states_shared, 1u);

  auto next = store.Acquire();
  bool built = false;
  auto school_after = next->GetOrBuildLabelState(school, loop, &built);
  EXPECT_FALSE(built);
  // The school state is byte-for-byte the same object — zero copy, zero
  // recompute for categories the mutation cannot affect.
  EXPECT_EQ(school_after.get(), school_state.get());
  auto hospital_after = next->GetOrBuildLabelState(hospital, loop, &built);
  EXPECT_FALSE(built);
  EXPECT_NE(hospital_after.get(), hospital_state.get());
}

}  // namespace
}  // namespace staq::serve
