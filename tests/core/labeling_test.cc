#include "core/labeling.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <string>
#include <numeric>

#include <gtest/gtest.h>

#include "core/active_learning.h"
#include "core/columnar.h"
#include "core/gravity.h"
#include "synth/city_spec.h"
#include "testing/label_correcting_router.h"
#include "testing/per_trip_labeling.h"
#include "testing/test_city.h"

namespace staq::core {
namespace {

class LabelingTest : public ::testing::Test {
 protected:
  LabelingTest()
      : city_(testing::TinyCity()),
        router_(&city_.feed, router::RouterOptions{}) {
    pois_ = city_.PoisOf(synth::PoiCategory::kSchool);
    GravityConfig gravity;
    gravity.sample_rate_per_hour = 4;
    gravity.keep_scale = 2.0;
    TodamBuilder builder(city_.zones, pois_, gtfs::WeekdayAmPeak(), gravity);
    todam_ = builder.BuildGravity(1);
  }

  synth::City city_;
  router::Router router_;
  std::vector<synth::Poi> pois_;
  Todam todam_;
};

TEST_F(LabelingTest, CostKindNames) {
  EXPECT_STREQ(CostKindName(CostKind::kJourneyTime), "JT");
  EXPECT_STREQ(CostKindName(CostKind::kGeneralizedCost), "GAC");
}

TEST_F(LabelingTest, LabelsAreConsistentAggregates) {
  LabelingEngine engine(&city_, &router_);
  ZoneLabel label = engine.LabelZone(todam_, 0, pois_,
                                     CostKind::kJourneyTime,
                                     gtfs::Day::kTuesday);
  EXPECT_EQ(label.num_trips, todam_.TripsFor(0).size());
  EXPECT_GE(label.mac, 0.0);
  EXPECT_GE(label.acsd, 0.0);
  EXPECT_LE(label.num_infeasible + label.num_walk_only, label.num_trips);
}

TEST_F(LabelingTest, MacMatchesManualRouting) {
  LabelingEngine engine(&city_, &router_);
  uint32_t zone = 3;
  ZoneLabel label = engine.LabelZone(todam_, zone, pois_,
                                     CostKind::kJourneyTime,
                                     gtfs::Day::kTuesday);
  // Re-run the SPQs manually with a fresh router.
  router::Router fresh(&city_.feed, router::RouterOptions{});
  double sum = 0, sum_sq = 0;
  int feasible = 0;
  for (const TripEntry& trip : todam_.TripsFor(zone)) {
    auto journey = fresh.Route(city_.zones[zone].centroid,
                               pois_[trip.poi].position,
                               gtfs::Day::kTuesday, trip.depart);
    if (!journey.feasible) continue;
    double jt = journey.JourneyTimeSeconds();
    sum += jt;
    sum_sq += jt * jt;
    ++feasible;
  }
  ASSERT_GT(feasible, 0);
  double mac = sum / feasible;
  double var = sum_sq / feasible - mac * mac;
  EXPECT_NEAR(label.mac, mac, 1e-9);
  EXPECT_NEAR(label.acsd, std::sqrt(std::max(0.0, var)), 1e-6);
}

TEST_F(LabelingTest, GacLabelsExceedJtForSameZone) {
  // GAC weights walking/waiting >= 1x and adds fares, so for the same
  // trips the mean generalized cost exceeds the mean journey time.
  LabelingEngine engine(&city_, &router_);
  ZoneLabel jt = engine.LabelZone(todam_, 5, pois_, CostKind::kJourneyTime,
                                  gtfs::Day::kTuesday);
  ZoneLabel gac = engine.LabelZone(todam_, 5, pois_,
                                   CostKind::kGeneralizedCost,
                                   gtfs::Day::kTuesday);
  ASSERT_GT(jt.num_trips, 0u);
  EXPECT_GT(gac.mac, jt.mac);
}

TEST_F(LabelingTest, SpqCountAccumulates) {
  LabelingEngine engine(&city_, &router_);
  EXPECT_EQ(engine.spq_count(), 0u);
  engine.LabelZone(todam_, 0, pois_, CostKind::kJourneyTime,
                   gtfs::Day::kTuesday);
  uint64_t after_one = engine.spq_count();
  EXPECT_EQ(after_one, todam_.TripsFor(0).size());
  engine.LabelZone(todam_, 1, pois_, CostKind::kJourneyTime,
                   gtfs::Day::kTuesday);
  EXPECT_EQ(engine.spq_count(), after_one + todam_.TripsFor(1).size());
}

TEST_F(LabelingTest, LabelZonesBatchesInOrder) {
  LabelingEngine engine(&city_, &router_);
  std::vector<uint32_t> zones{2, 8, 15};
  auto labels = engine.LabelZones(todam_, zones, pois_,
                                  CostKind::kJourneyTime,
                                  gtfs::Day::kTuesday);
  ASSERT_EQ(labels.size(), 3u);
  for (size_t i = 0; i < zones.size(); ++i) {
    EXPECT_EQ(labels[i].num_trips, todam_.TripsFor(zones[i]).size());
  }
}

TEST_F(LabelingTest, ZoneWithNoTripsGetsZeroLabel) {
  // Build a TODAM over a single distant POI with negligible keep scale so
  // some zones draw no trips at all.
  GravityConfig tiny;
  tiny.sample_rate_per_hour = 1;
  tiny.keep_scale = 1e-9;
  TodamBuilder builder(city_.zones, pois_, gtfs::WeekdayAmPeak(), tiny);
  Todam sparse = builder.BuildGravity(1);

  LabelingEngine engine(&city_, &router_);
  bool found_empty = false;
  for (uint32_t z = 0; z < sparse.num_zones() && !found_empty; ++z) {
    if (!sparse.TripsFor(z).empty()) continue;
    found_empty = true;
    ZoneLabel label = engine.LabelZone(sparse, z, pois_,
                                       CostKind::kJourneyTime,
                                       gtfs::Day::kTuesday);
    EXPECT_EQ(label.num_trips, 0u);
    EXPECT_EQ(label.mac, 0.0);
    EXPECT_EQ(label.acsd, 0.0);
  }
  EXPECT_TRUE(found_empty);
}

TEST_F(LabelingTest, BatchedModeBitIdenticalToPerTrip) {
  // The tentpole invariant: the one-to-many batched scheduler must
  // reproduce one Route per trip EXACTLY — same floating-point aggregates,
  // not merely close ones. Both run on the label-correcting oracle, so GAC
  // (which reads legs) is compared on one engine.
  testing::LabelCorrectingRouter oracle_router(&city_.feed,
                                               router::RouterOptions{});
  testing::LabelCorrectingRouter grouped_router(&city_.feed,
                                                router::RouterOptions{});
  for (CostKind kind : {CostKind::kJourneyTime, CostKind::kGeneralizedCost}) {
    testing::LabelCorrectingLabeler batched(&city_, &grouped_router);
    for (uint32_t zone = 0; zone < todam_.num_zones(); ++zone) {
      ZoneLabel a = batched.LabelZone(todam_, zone, pois_, kind,
                                      gtfs::Day::kTuesday);
      ZoneLabel b = testing::PerTripLabel(&oracle_router, city_, todam_, zone,
                                          pois_, kind, gtfs::Day::kTuesday);
      EXPECT_EQ(a.mac, b.mac) << "zone " << zone;
      EXPECT_EQ(a.acsd, b.acsd) << "zone " << zone;
      EXPECT_EQ(a.num_trips, b.num_trips) << "zone " << zone;
      EXPECT_EQ(a.num_infeasible, b.num_infeasible) << "zone " << zone;
      EXPECT_EQ(a.num_walk_only, b.num_walk_only) << "zone " << zone;
    }
    EXPECT_EQ(batched.spq_count(), todam_.num_trips());
  }
}

TEST_F(LabelingTest, BatchedModeDispatchesFewerExpansions) {
  LabelingEngine batched(&city_, &router_);
  uint64_t trips = 0;
  for (uint32_t zone = 0; zone < todam_.num_zones(); ++zone) {
    batched.LabelZone(todam_, zone, pois_, CostKind::kJourneyTime,
                      gtfs::Day::kTuesday);
    trips += todam_.TripsFor(zone).size();
  }
  EXPECT_EQ(batched.spq_count(), trips);
  // Every departure group costs one expansion, so the dispatch count can
  // never exceed the trip count (and shrinks whenever departures collide).
  EXPECT_LE(batched.expansion_count(), batched.spq_count());
  EXPECT_GT(batched.expansion_count(), 0u);
}

TEST_F(LabelingTest, LabelZonesExpandsOncePerBlockWithTrips) {
  // Each block of kZoneBlock zones is one window scan, so a LabelZones
  // pass expands once per block of its zones that has trips (the
  // label-correcting oracle would expand once per departure group). Both
  // the exact baseline's pass over every zone and an SSR pass over a β
  // sample obey it.
  const auto blocks_with_trips = [&](const std::vector<uint32_t>& zones) {
    uint64_t count = 0;
    for (size_t first = 0; first < zones.size(); first += kZoneBlock) {
      bool trips = false;
      for (size_t b = first; b < std::min(first + kZoneBlock, zones.size());
           ++b) {
        trips |= !todam_.TripsFor(zones[b]).empty();
      }
      count += trips ? 1 : 0;
    }
    return count;
  };
  std::vector<uint32_t> all_zones(city_.zones.size());
  std::iota(all_zones.begin(), all_zones.end(), 0u);
  auto sample = SelectLabeledZones(SamplingStrategy::kRandom,
                                   city_.zones.size(), 0.2, 7, nullptr,
                                   nullptr);
  ASSERT_TRUE(sample.ok()) << sample.status();
  ASSERT_LT(sample.value().size(), all_zones.size());
  for (const std::vector<uint32_t>* zones : {&all_zones, &sample.value()}) {
    LabelingEngine engine(&city_, &router_);
    engine.LabelZones(todam_, *zones, pois_, CostKind::kJourneyTime,
                      gtfs::Day::kTuesday);
    EXPECT_EQ(engine.expansion_count(), blocks_with_trips(*zones));
    EXPECT_GT(engine.expansion_count(), 0u);
    EXPECT_LT(engine.expansion_count(), engine.spq_count());
  }
}

TEST_F(LabelingTest, DeterministicAcrossEngines) {
  LabelingEngine a(&city_, &router_);
  ZoneLabel la = a.LabelZone(todam_, 4, pois_, CostKind::kGeneralizedCost,
                             gtfs::Day::kTuesday);
  router::Router router2(&city_.feed, router::RouterOptions{});
  LabelingEngine b(&city_, &router2);
  ZoneLabel lb = b.LabelZone(todam_, 4, pois_, CostKind::kGeneralizedCost,
                             gtfs::Day::kTuesday);
  EXPECT_DOUBLE_EQ(la.mac, lb.mac);
  EXPECT_DOUBLE_EQ(la.acsd, lb.acsd);
}

// The library's connection-scan labeling (one window scan per block of
// zones) against the label-correcting oracle's grouped labeler. JT labels
// are built from journey times only, which both engines produce
// bit-identically, so every label and the SPQ count must agree exactly.
TEST(LabelingOracleTest, CsaJourneyTimeLabelsEqualTheOracleLabeler) {
  synth::City city = testing::SmallCity();
  const std::vector<synth::Poi> pois =
      city.PoisOf(synth::PoiCategory::kSchool);
  GravityConfig gravity;
  gravity.sample_rate_per_hour = 4;
  gravity.keep_scale = 2.0;
  TodamBuilder builder(city.zones, pois, gtfs::WeekdayAmPeak(), gravity);
  const Todam todam = builder.BuildGravity(1);
  std::vector<uint32_t> zones(city.zones.size());
  std::iota(zones.begin(), zones.end(), 0u);

  testing::LabelCorrectingRouter oracle(&city.feed, router::RouterOptions{});
  testing::LabelCorrectingLabeler grouped(&city, &oracle);
  const std::vector<ZoneLabel> expected = grouped.LabelZones(
      todam, zones, pois, CostKind::kJourneyTime, gtfs::Day::kTuesday);
  router::Router router(&city.feed, router::RouterOptions{});
  LabelingEngine engine(&city, &router);
  const std::vector<ZoneLabel> labels = engine.LabelZones(
      todam, zones, pois, CostKind::kJourneyTime, gtfs::Day::kTuesday);

  EXPECT_EQ(engine.spq_count(), grouped.spq_count());
  ASSERT_EQ(labels.size(), expected.size());
  for (size_t i = 0; i < labels.size(); ++i) {
    EXPECT_EQ(labels[i].mac, expected[i].mac) << "zone " << i;
    EXPECT_EQ(labels[i].acsd, expected[i].acsd) << "zone " << i;
    EXPECT_EQ(labels[i].num_trips, expected[i].num_trips) << "zone " << i;
    EXPECT_EQ(labels[i].num_infeasible, expected[i].num_infeasible)
        << "zone " << i;
    EXPECT_EQ(labels[i].num_walk_only, expected[i].num_walk_only)
        << "zone " << i;
  }
}

/// Appends an engine's block_columns() to `columns`, one trip range per
/// zone of the block.
void AppendBlockColumns(const LabelingEngine& engine,
                        TripCostColumns* columns) {
  const TripCostColumns& block = engine.block_columns();
  const size_t base = columns->num_trips();
  for (size_t b = 0; b < block.num_zones(); ++b) {
    columns->AppendZone(block.zone_offsets[b + 1] - block.zone_offsets[b]);
  }
  columns->StoreZone(base, block);
}

// Blocks on the bench city: LabelZones (kZoneBlock zones per window scan)
// equals labeling one zone at a time bit for bit, for both cost kinds and
// for a peak and an off-peak interval, and a block capture fills the same
// columns as one CaptureZoneCosts per zone.
TEST(LabelingBlockTest, BlocksEqualOneZoneAtATimeOnTheBenchCity) {
  const synth::CitySpec spec = synth::CitySpec::Brindale(0.1, 42);
  synth::City city = std::move(synth::BuildCity(spec)).value();
  GravityConfig gravity = CalibratedGravityConfig(spec);
  gravity.sample_rate_per_hour = 12;
  const std::vector<synth::Poi> pois =
      city.PoisOf(synth::PoiCategory::kSchool);
  router::Router block_router(&city.feed, router::RouterOptions{});
  router::Router zone_router(&city.feed, router::RouterOptions{});
  std::vector<uint32_t> zones(city.zones.size());
  std::iota(zones.begin(), zones.end(), 0u);

  for (const gtfs::TimeInterval& interval :
       {gtfs::WeekdayAmPeak(), gtfs::WeekdayOffPeak()}) {
    SCOPED_TRACE(interval.label);
    TodamBuilder builder(city.zones, pois, interval, gravity);
    const Todam todam = builder.BuildGravity(42);
    LabelingEngine blocks(&city, &block_router);
    LabelingEngine single(&city, &zone_router);
    for (CostKind kind : {CostKind::kJourneyTime, CostKind::kGeneralizedCost}) {
      const std::vector<ZoneLabel> labels =
          blocks.LabelZones(todam, zones, pois, kind, interval.day);
      for (uint32_t z : zones) {
        const ZoneLabel one =
            single.LabelZone(todam, z, pois, kind, interval.day);
        EXPECT_EQ(labels[z].mac, one.mac) << "zone " << z;
        EXPECT_EQ(labels[z].acsd, one.acsd) << "zone " << z;
        EXPECT_EQ(labels[z].num_trips, one.num_trips) << "zone " << z;
        EXPECT_EQ(labels[z].num_infeasible, one.num_infeasible) << "zone " << z;
        EXPECT_EQ(labels[z].num_walk_only, one.num_walk_only) << "zone " << z;
      }
    }
    EXPECT_EQ(blocks.spq_count(), single.spq_count());
    EXPECT_LT(blocks.expansion_count(), single.expansion_count());

    TripCostColumns block_columns;
    TripCostColumns zone_columns;
    std::vector<ZoneLabel> block_labels(kZoneBlock);
    for (size_t first = 0; first < zones.size(); first += kZoneBlock) {
      blocks.LabelBlock(todam, zones.data() + first,
                        std::min(kZoneBlock, zones.size() - first), pois,
                        CostKind::kJourneyTime, interval.day,
                        block_labels.data());
      AppendBlockColumns(blocks, &block_columns);
    }
    for (uint32_t z : zones) {
      single.CaptureZoneCosts(todam, z, pois, interval.day, &zone_columns);
    }
    EXPECT_EQ(block_columns.zone_offsets, zone_columns.zone_offsets);
    EXPECT_EQ(block_columns.flags, zone_columns.flags);
    EXPECT_EQ(block_columns.jt, zone_columns.jt);
    EXPECT_EQ(block_columns.gac_parts, zone_columns.gac_parts);
    EXPECT_EQ(block_columns.fare, zone_columns.fare);
  }
}

/// Labels every zone of `todam` in blocks of kZoneBlock, capturing each
/// trip's cost basis.
TripCostColumns CaptureAllZones(LabelingEngine* engine, const Todam& todam,
                                const std::vector<synth::Poi>& pois,
                                gtfs::Day day) {
  std::vector<uint32_t> zones(todam.num_zones());
  std::iota(zones.begin(), zones.end(), 0u);
  TripCostColumns columns;
  std::vector<ZoneLabel> labels(kZoneBlock);
  for (size_t first = 0; first < zones.size(); first += kZoneBlock) {
    engine->LabelBlock(todam, zones.data() + first,
                       std::min(kZoneBlock, zones.size() - first), pois,
                       CostKind::kJourneyTime, day, labels.data());
    AppendBlockColumns(*engine, &columns);
  }
  return columns;
}

uint64_t DoubleBits(double v) {
  uint64_t bits;
  std::memcpy(&bits, &v, sizeof(bits));
  return bits;
}

/// Labels each POI's trips alone — a one-column TODAM, so every lane of
/// the window scan has that POI as its only target — and checks every
/// trip's cost basis and derived costs against the full-TODAM pass, bit
/// for bit. Adds the full pass's walk-only and infeasible trip counts to
/// *walk_only and *infeasible.
void ExpectOneTargetLanesMatchFullLanes(const synth::City& city,
                                        const std::vector<synth::Poi>& pois,
                                        const Todam& todam,
                                        const router::RouterOptions& options,
                                        gtfs::Day day, size_t* walk_only,
                                        size_t* infeasible) {
  router::Router full_router(&city.feed, options);
  router::Router one_router(&city.feed, options);
  LabelingEngine full_engine(&city, &full_router);
  LabelingEngine one_engine(&city, &one_router);
  const TripCostColumns full = CaptureAllZones(&full_engine, todam, pois, day);
  router::GacWeights weights;
  weights.lambda_wt = 2.0;
  weights.lambda_et = 1.5;
  weights.transfer_penalty_s = 420.0;
  weights.value_of_time = 9.0;
  const std::vector<CostMember> members = {
      {CostKind::kJourneyTime, {}}, {CostKind::kGeneralizedCost, weights}};
  std::vector<std::vector<double>> full_costs(members.size());
  for (size_t m = 0; m < members.size(); ++m) {
    MemberCostColumn(full, members[m], &full_costs[m]);
  }

  for (uint32_t p = 0; p < pois.size(); ++p) {
    std::vector<size_t> offsets = {0};
    std::vector<TripEntry> trips;
    for (uint32_t z = 0; z < todam.num_zones(); ++z) {
      for (const TripEntry& trip : todam.TripsFor(z)) {
        if (trip.poi == p) trips.push_back(TripEntry{0, trip.depart});
      }
      offsets.push_back(trips.size());
    }
    const Todam column =
        Todam::FromParts(std::move(offsets), std::move(trips), {});
    const TripCostColumns one =
        CaptureAllZones(&one_engine, column, {pois[p]}, day);
    std::vector<std::vector<double>> one_costs(members.size());
    for (size_t m = 0; m < members.size(); ++m) {
      MemberCostColumn(one, members[m], &one_costs[m]);
    }
    for (uint32_t z = 0; z < todam.num_zones(); ++z) {
      size_t j = one.zone_offsets[z];
      const std::span<const TripEntry> zone_trips = todam.TripsFor(z);
      for (size_t i = 0; i < zone_trips.size(); ++i) {
        if (zone_trips[i].poi != p) continue;
        const size_t f = full.zone_offsets[z] + i;
        SCOPED_TRACE("poi " + std::to_string(p) + " zone " +
                     std::to_string(z) + " trip " + std::to_string(i));
        ASSERT_EQ(one.flags[j], full.flags[f]);
        ASSERT_EQ(DoubleBits(one.jt[j]), DoubleBits(full.jt[f]));
        for (size_t k = 0; k < kNumGacParts; ++k) {
          ASSERT_EQ(DoubleBits(one.gac_parts[j * kNumGacParts + k]),
                    DoubleBits(full.gac_parts[f * kNumGacParts + k]));
        }
        ASSERT_EQ(DoubleBits(one.fare[j]), DoubleBits(full.fare[f]));
        for (size_t m = 0; m < members.size(); ++m) {
          ASSERT_EQ(DoubleBits(one_costs[m][j]), DoubleBits(full_costs[m][f]));
        }
        ++j;
      }
      ASSERT_EQ(j, one.zone_offsets[z + 1]);
    }
  }
  for (uint8_t f : full.flags) {
    if (f == 0) ++*infeasible;
    if (f & 2) ++*walk_only;
  }
}

// A trip's journey does not depend on the other targets of its lane: one
// POI's trips labeled alone record the cost basis (flags, JT, the five
// GAC parts, fare) and the JT and weighted-GAC costs that the full pass
// records for them, bit for bit — on both city families, both timetables,
// and under a short horizon that leaves trips infeasible. Trip-granular
// AddPoi patches (serve/scenario.h) route only the new POI's trips and
// rest on this.
TEST(LabelingLaneTest, OneTargetLanesRecordTheFullLaneCostBasis) {
  router::RouterOptions short_horizon;
  short_horizon.horizon_s = 1500;
  for (const synth::CitySpec& spec :
       {synth::CitySpec::Covely(0.06, 5), synth::CitySpec::Brindale(0.05, 7)}) {
    SCOPED_TRACE(spec.name);
    synth::City city = std::move(synth::BuildCity(spec)).value();
    const std::vector<synth::Poi> pois =
        city.PoisOf(synth::PoiCategory::kSchool);
    ASSERT_GT(pois.size(), 1u);
    GravityConfig gravity = CalibratedGravityConfig(spec);
    gravity.sample_rate_per_hour = 4;
    gravity.keep_scale = 2.0;
    size_t walk_only = 0, infeasible = 0;
    for (const gtfs::TimeInterval& interval :
         {gtfs::WeekdayAmPeak(), gtfs::WeekdayOffPeak()}) {
      SCOPED_TRACE(interval.label);
      TodamBuilder builder(city.zones, pois, interval, gravity);
      const Todam todam = builder.BuildGravity(3);
      for (const router::RouterOptions& options :
           {router::RouterOptions{}, short_horizon}) {
        ExpectOneTargetLanesMatchFullLanes(city, pois, todam, options,
                                           interval.day, &walk_only,
                                           &infeasible);
      }
    }
    EXPECT_GT(walk_only, 0u);
    EXPECT_GT(infeasible, 0u);
  }
}

}  // namespace
}  // namespace staq::core
