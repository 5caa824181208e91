// Golden bit-identity suite for the columnar measure engine
// (core/columnar.h): every columnar derivation must equal the scalar
// oracle (testing/scalar_oracle.h) bit for bit — on synthetic journeys, on
// kernel-backed measure reductions, and end to end through AqServer's
// QueryBatch and single Query on both city families across seeds and cost
// kinds, against a per-cost labeling pass (testing/exact_reference.h).
#include "core/columnar.h"

#include <gtest/gtest.h>

#include "core/access_query.h"
#include "core/measures.h"
#include "core/todam.h"
#include "serve/server.h"
#include "synth/city_spec.h"
#include "testing/exact_reference.h"
#include "testing/scalar_oracle.h"
#include "testing/test_city.h"
#include "util/rng.h"

namespace staq::core {
namespace {

router::Journey FakeJourney(util::Rng* rng) {
  router::Journey j;
  j.feasible = true;
  j.depart = 7 * 3600 + static_cast<gtfs::TimeOfDay>(rng->NextU64() % 3600);
  j.access_walk_s = 60.0 * static_cast<double>(rng->NextU64() % 10);
  j.transfer_walk_s = 30.0 * static_cast<double>(rng->NextU64() % 4);
  j.wait_s = 15.0 * static_cast<double>(rng->NextU64() % 20);
  j.in_vehicle_s = 120.0 * static_cast<double>(rng->NextU64() % 15);
  j.egress_walk_s = 45.0 * static_cast<double>(rng->NextU64() % 8);
  j.num_boardings = static_cast<int>(rng->NextU64() % 4);
  j.total_fare = 1.5 * static_cast<double>(rng->NextU64() % 3);
  j.arrive = j.depart +
             static_cast<gtfs::TimeOfDay>(j.access_walk_s + j.wait_s +
                                          j.in_vehicle_s + j.egress_walk_s);
  return j;
}

TEST(MemberCostColumnTest, GacColumnBitIdenticalToScalarExpression) {
  util::Rng rng(77);
  TripCostColumns columns;
  std::vector<router::Journey> journeys;
  size_t base = columns.AppendZone(40);
  for (size_t i = 0; i < 40; ++i) {
    router::Journey j = FakeJourney(&rng);
    if (i % 7 == 3) j.feasible = false;  // stays a zeroed slot
    journeys.push_back(j);
    columns.Record(base + i, j);
  }

  std::vector<router::GacWeights> variants(3);
  variants[1].lambda_wt = 3.5;
  variants[1].transfer_penalty_s = 300;
  variants[2].lambda_tan = 1.0;
  variants[2].value_of_time = 12.0 / 3600.0;
  for (const router::GacWeights& w : variants) {
    std::vector<double> costs;
    MemberCostColumn(columns, {CostKind::kGeneralizedCost, w}, &costs);
    ASSERT_EQ(costs.size(), journeys.size());
    for (size_t i = 0; i < journeys.size(); ++i) {
      if (!journeys[i].feasible) continue;  // excluded by flags downstream
      EXPECT_EQ(costs[i], testing::GeneralizedAccessCost(journeys[i], w))
          << "journey " << i;
    }
  }

  std::vector<double> jt;
  MemberCostColumn(columns, {CostKind::kJourneyTime, {}}, &jt);
  for (size_t i = 0; i < journeys.size(); ++i) {
    if (!journeys[i].feasible) continue;
    EXPECT_EQ(jt[i], journeys[i].JourneyTimeSeconds());
  }
}

TEST(MemberCostColumnTest, AggregationMatchesScalarLabelTail) {
  util::Rng rng(13);
  TripCostColumns columns;
  std::vector<std::vector<router::Journey>> zones(5);
  for (size_t z = 0; z < zones.size(); ++z) {
    size_t n = 3 + rng.NextU64() % 20;
    size_t base = columns.AppendZone(n);
    for (size_t i = 0; i < n; ++i) {
      router::Journey j = FakeJourney(&rng);
      if (rng.NextU64() % 5 == 0) j.feasible = false;
      zones[z].push_back(j);
      columns.Record(base + i, j);
    }
  }

  router::GacWeights w;
  std::vector<double> costs;
  MemberCostColumn(columns, {CostKind::kGeneralizedCost, w}, &costs);
  std::vector<ZoneLabel> labels = AggregateZoneLabels(columns, costs);
  ASSERT_EQ(labels.size(), zones.size());
  for (size_t z = 0; z < zones.size(); ++z) {
    const ZoneLabel want =
        testing::TripOrderLabel(zones[z], CostKind::kGeneralizedCost, w);
    EXPECT_EQ(labels[z].num_trips, want.num_trips);
    EXPECT_EQ(labels[z].num_infeasible, want.num_infeasible);
    EXPECT_EQ(labels[z].num_walk_only, want.num_walk_only);
    EXPECT_EQ(labels[z].mac, want.mac);
    EXPECT_EQ(labels[z].acsd, want.acsd);
  }
}

TEST(ColumnarMeasuresTest, KernelReductionsBitIdenticalToScalarFoil) {
  util::Rng rng(99);
  for (size_t n : {1u, 2u, 63u, 500u}) {
    std::vector<double> mac(n), acsd(n), weights(n);
    for (size_t i = 0; i < n; ++i) {
      mac[i] = static_cast<double>(rng.NextU64() % 10000) / 7.0;
      acsd[i] = static_cast<double>(rng.NextU64() % 3000) / 11.0;
      weights[i] = static_cast<double>(rng.NextU64() % 500) / 3.0;
    }
    EXPECT_EQ(ClassifyAccessibility(mac, acsd),
              testing::ClassifyAccessibility(mac, acsd));
    EXPECT_EQ(JainIndex(mac), testing::JainIndex(mac));
    EXPECT_EQ(WeightedJainIndex(mac, weights),
              testing::WeightedJainIndex(mac, weights));
  }
}

TEST(ColumnarNormsTest, BitIdenticalOnBothCityFamilies) {
  for (bool brindale : {true, false}) {
    synth::CitySpec spec = brindale ? synth::CitySpec::Brindale(0.05, 11)
                                    : synth::CitySpec::Covely(0.05, 12);
    auto city = synth::BuildCity(spec);
    ASSERT_TRUE(city.ok());
    for (synth::PoiCategory cat :
         {synth::PoiCategory::kSchool, synth::PoiCategory::kHospital}) {
      std::vector<synth::Poi> pois = city.value().PoisOf(cat);
      EXPECT_EQ(StableGravityNorms(city.value().zones, pois, 3000.0),
                testing::StableGravityNorms(city.value().zones, pois, 3000.0));
    }
  }
}

AccessQueryOptions ExactOptions(uint64_t seed) {
  AccessQueryOptions options;
  options.exact = true;
  options.gravity.sample_rate_per_hour = 4;
  options.gravity.keep_scale = 2.0;
  options.seed = seed;
  return options;
}

std::vector<CostMember> SweepMembers() {
  std::vector<CostMember> members;
  members.push_back({CostKind::kJourneyTime, {}});
  members.push_back({CostKind::kGeneralizedCost, {}});
  router::GacWeights wait_heavy;
  wait_heavy.lambda_wt = 3.5;
  wait_heavy.transfer_penalty_s = 300;
  members.push_back({CostKind::kGeneralizedCost, wait_heavy});
  return members;
}

void ExpectSameResult(const AccessQueryResult& a, const AccessQueryResult& b) {
  EXPECT_EQ(a.mac, b.mac);
  EXPECT_EQ(a.acsd, b.acsd);
  EXPECT_EQ(a.classes, b.classes);
  EXPECT_EQ(a.mean_mac, b.mean_mac);
  EXPECT_EQ(a.mean_acsd, b.mean_acsd);
  EXPECT_EQ(a.fairness, b.fairness);
  EXPECT_EQ(a.population_fairness, b.population_fairness);
  EXPECT_EQ(a.vulnerable_fairness, b.vulnerable_fairness);
  EXPECT_EQ(a.spqs, b.spqs);
  EXPECT_EQ(a.gravity_trips, b.gravity_trips);
}

serve::AqBatchRequest CostSweep(synth::PoiCategory category, uint64_t seed) {
  serve::AqBatchRequest batch;
  batch.request.category = category;
  batch.request.options = ExactOptions(seed);
  batch.cost_members = SweepMembers();
  return batch;
}

TEST(QueryVectorTest, BitIdenticalToSingleQueriesOnBothFamilies) {
  // Each batch member derives from one shared capture pass; each uncached
  // single query labels its own state under its own cost definition.
  for (bool brindale : {true, false}) {
    SCOPED_TRACE(brindale ? "brindale" : "covely");
    synth::CitySpec spec = brindale ? synth::CitySpec::Brindale(0.03, 21)
                                    : synth::CitySpec::Covely(0.04, 22);
    auto city = synth::BuildCity(spec);
    ASSERT_TRUE(city.ok());
    serve::AqServer server(std::move(city).value(), gtfs::WeekdayAmPeak());

    for (uint64_t seed : {1u, 2u}) {
      SCOPED_TRACE("seed " + std::to_string(seed));
      serve::AqBatchRequest batch =
          CostSweep(synth::PoiCategory::kSchool, seed);
      auto answers = server.QueryBatch(batch);
      ASSERT_EQ(answers.size(), batch.cost_members.size());
      std::vector<serve::AqRequest> members = serve::ExpandBatch(batch);
      for (size_t m = 0; m < members.size(); ++m) {
        SCOPED_TRACE("member " + std::to_string(m));
        ASSERT_TRUE(answers[m].ok()) << answers[m].status();
        auto single = server.QueryUncached(members[m]);
        ASSERT_TRUE(single.ok()) << single.status();
        ExpectSameResult(answers[m].value(), single.value());
      }
    }
  }
}

TEST(QueryVectorTest, ScalarFoilAlsoMatches) {
  // One memoised single Query per member, each labeling a state of its
  // own, against one reference pass per member, sharing nothing.
  serve::AqServer server(testing::TinyCity(), gtfs::WeekdayAmPeak());
  testing::ExactReference reference(&server.base_city(),
                                    gtfs::WeekdayAmPeak());
  for (const serve::AqRequest& member :
       serve::ExpandBatch(CostSweep(synth::PoiCategory::kHospital, 3))) {
    auto fast = server.Query(member);
    ASSERT_TRUE(fast.ok()) << fast.status();
    auto slow = reference.Query(member.category, member.options);
    ASSERT_TRUE(slow.ok()) << slow.status();
    ExpectSameResult(fast.value(), slow.value());
  }
}

TEST(QueryVectorTest, SweepsCategoryAndSeedAxesInDeclaredOrder) {
  serve::AqServer server(testing::TinyCity(), gtfs::WeekdayAmPeak());
  serve::AqBatchRequest batch;
  batch.request.category = synth::PoiCategory::kSchool;
  batch.request.options = ExactOptions(1);
  batch.categories = {synth::PoiCategory::kSchool,
                      synth::PoiCategory::kHospital};
  batch.seeds = {2, 5};
  auto answers = server.QueryBatch(batch);
  ASSERT_EQ(answers.size(), 4u);
  size_t i = 0;
  for (synth::PoiCategory cat : batch.categories) {
    for (uint64_t seed : batch.seeds) {
      ASSERT_TRUE(answers[i].ok()) << answers[i].status();
      serve::AqRequest single;
      single.category = cat;
      single.options = ExactOptions(seed);
      auto expected = server.QueryUncached(single);
      ASSERT_TRUE(expected.ok());
      ExpectSameResult(answers[i++].value(), expected.value());
    }
  }
}

TEST(QueryVectorTest, MatchesOneGroundTruthPassPerCost) {
  // The independent reference: every (category, seed, cost) answer is a
  // labeling pass of its own over a TODAM the reference draws itself,
  // finalized by the scalar measures. One server's batch answers and
  // another's memoised single answers must equal it bit for bit, before
  // and after a POI edit, which the single answers' label states absorb by
  // patching. (A batch fills the result cache under every member's single
  // key, so one server would answer the singles from the batch.)
  for (bool brindale : {true, false}) {
    SCOPED_TRACE(brindale ? "brindale" : "covely");
    synth::CitySpec spec = brindale ? synth::CitySpec::Brindale(0.03, 21)
                                    : synth::CitySpec::Covely(0.04, 22);
    auto city = synth::BuildCity(spec);
    ASSERT_TRUE(city.ok());
    serve::AqServer batch_server(city.value(), gtfs::WeekdayAmPeak());
    serve::AqServer single_server(std::move(city).value(),
                                  gtfs::WeekdayAmPeak());
    testing::ExactReference reference(&single_server.base_city(),
                                      gtfs::WeekdayAmPeak());

    serve::AqBatchRequest batch = CostSweep(synth::PoiCategory::kSchool, 1);
    batch.categories = {synth::PoiCategory::kSchool,
                        synth::PoiCategory::kHospital};
    batch.seeds = {1, 2};
    const std::vector<serve::AqRequest> members = serve::ExpandBatch(batch);
    ASSERT_EQ(members.size(), 2u * 2u * batch.cost_members.size());
    for (bool edited : {false, true}) {
      SCOPED_TRACE(edited ? "after AddPoi" : "base city");
      if (edited) {
        const geo::Point site = single_server.base_city().zones[0].centroid;
        auto added = single_server.AddPoi(synth::PoiCategory::kSchool, site);
        ASSERT_TRUE(added.ok()) << added.status();
        EXPECT_GT(added.value().states_patched, 0u);
        auto batch_added =
            batch_server.AddPoi(synth::PoiCategory::kSchool, site);
        ASSERT_TRUE(batch_added.ok()) << batch_added.status();
        ASSERT_EQ(batch_added.value().poi_id, added.value().poi_id);
        reference.AddPoi(synth::Poi{added.value().poi_id,
                                    synth::PoiCategory::kSchool, site});
      }
      auto answers = batch_server.QueryBatch(batch);
      ASSERT_EQ(answers.size(), members.size());
      for (size_t i = 0; i < members.size(); ++i) {
        SCOPED_TRACE("member " + std::to_string(i));
        auto expected = reference.Query(members[i].category,
                                        members[i].options);
        ASSERT_TRUE(expected.ok()) << expected.status();
        ASSERT_TRUE(answers[i].ok()) << answers[i].status();
        ExpectSameResult(answers[i].value(), expected.value());
        auto single = single_server.Query(members[i]);
        ASSERT_TRUE(single.ok()) << single.status();
        ExpectSameResult(single.value(), expected.value());
      }
    }
  }
}

TEST(QueryVectorTest, RejectsInvalidMemberWeights) {
  serve::AqServer server(testing::TinyCity(), gtfs::WeekdayAmPeak());
  serve::AqBatchRequest batch = CostSweep(synth::PoiCategory::kSchool, 1);
  router::GacWeights bad;
  bad.value_of_time = 0.0;
  batch.cost_members.push_back({CostKind::kGeneralizedCost, bad});
  for (const auto& answer : server.QueryBatch(batch)) {
    ASSERT_FALSE(answer.ok());
    EXPECT_EQ(answer.status().code(), util::StatusCode::kInvalidArgument);
  }
}

}  // namespace
}  // namespace staq::core
