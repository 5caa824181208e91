#include "core/parallel_labeling.h"

#include <algorithm>

#include <gtest/gtest.h>

#include "core/pipeline.h"
#include "testing/per_trip_labeling.h"
#include "testing/test_city.h"

namespace staq::core {
namespace {

class ParallelLabelingTest : public ::testing::Test {
 protected:
  ParallelLabelingTest() : city_(testing::SmallCity()) {
    pois_ = city_.PoisOf(synth::PoiCategory::kSchool);
    GravityConfig gravity;
    gravity.sample_rate_per_hour = 4;
    gravity.keep_scale = 2.0;
    TodamBuilder builder(city_.zones, pois_, gtfs::WeekdayAmPeak(), gravity);
    todam_ = builder.BuildGravity(1);
    for (uint32_t z = 0; z < city_.zones.size(); ++z) {
      all_zones_.push_back(z);
    }
  }

  synth::City city_;
  std::vector<synth::Poi> pois_;
  Todam todam_;
  std::vector<uint32_t> all_zones_;
};

TEST_F(ParallelLabelingTest, MatchesSerialExactly) {
  uint64_t serial_spqs = 0, parallel_spqs = 0;
  auto serial = LabelZonesParallel(city_, todam_, all_zones_, pois_,
                                   CostKind::kJourneyTime,
                                   gtfs::Day::kTuesday, /*num_threads=*/1,
                                   {}, {}, &serial_spqs);
  auto parallel = LabelZonesParallel(city_, todam_, all_zones_, pois_,
                                     CostKind::kJourneyTime,
                                     gtfs::Day::kTuesday, /*num_threads=*/4,
                                     {}, {}, &parallel_spqs);
  ASSERT_EQ(serial.size(), parallel.size());
  EXPECT_EQ(serial_spqs, parallel_spqs);
  for (size_t i = 0; i < serial.size(); ++i) {
    EXPECT_DOUBLE_EQ(serial[i].mac, parallel[i].mac) << "zone " << i;
    EXPECT_DOUBLE_EQ(serial[i].acsd, parallel[i].acsd);
    EXPECT_EQ(serial[i].num_trips, parallel[i].num_trips);
    EXPECT_EQ(serial[i].num_walk_only, parallel[i].num_walk_only);
  }
}

TEST_F(ParallelLabelingTest, GacCostKindMatchesToo) {
  auto serial = LabelZonesParallel(city_, todam_, all_zones_, pois_,
                                   CostKind::kGeneralizedCost,
                                   gtfs::Day::kTuesday, 1);
  auto parallel = LabelZonesParallel(city_, todam_, all_zones_, pois_,
                                     CostKind::kGeneralizedCost,
                                     gtfs::Day::kTuesday, 3);
  for (size_t i = 0; i < serial.size(); ++i) {
    EXPECT_DOUBLE_EQ(serial[i].mac, parallel[i].mac);
  }
}

TEST_F(ParallelLabelingTest, MoreThreadsThanZones) {
  std::vector<uint32_t> few{0, 1, 2};
  auto labels = LabelZonesParallel(city_, todam_, few, pois_,
                                   CostKind::kJourneyTime,
                                   gtfs::Day::kTuesday, /*num_threads=*/16);
  ASSERT_EQ(labels.size(), 3u);
  for (const ZoneLabel& label : labels) {
    EXPECT_GT(label.num_trips, 0u);
  }
}

TEST_F(ParallelLabelingTest, EmptyZoneList) {
  auto labels = LabelZonesParallel(city_, todam_, {}, pois_,
                                   CostKind::kJourneyTime,
                                   gtfs::Day::kTuesday, 4);
  EXPECT_TRUE(labels.empty());
}

TEST_F(ParallelLabelingTest, BatchedAndPerTripModesAgreeAcrossThreads) {
  uint64_t batched_spqs = 0;
  auto batched = LabelZonesParallel(
      city_, todam_, all_zones_, pois_, CostKind::kJourneyTime,
      gtfs::Day::kTuesday, /*num_threads=*/4, {}, {}, &batched_spqs);
  auto per_trip =
      testing::PerTripLabels(city_, todam_, all_zones_, pois_,
                             CostKind::kJourneyTime, gtfs::Day::kTuesday);
  ASSERT_EQ(batched.size(), per_trip.size());
  EXPECT_EQ(batched_spqs, todam_.num_trips());
  for (size_t i = 0; i < batched.size(); ++i) {
    EXPECT_EQ(batched[i].mac, per_trip[i].mac) << "zone " << i;
    EXPECT_EQ(batched[i].acsd, per_trip[i].acsd) << "zone " << i;
    EXPECT_EQ(batched[i].num_infeasible, per_trip[i].num_infeasible);
    EXPECT_EQ(batched[i].num_walk_only, per_trip[i].num_walk_only);
  }
}

/// Bit-identity (not tolerance) between two labelings: the contract the
/// serve snapshots and result cache rely on is that thread count is never
/// observable in an answer.
void ExpectBitIdentical(const std::vector<ZoneLabel>& a,
                        const std::vector<ZoneLabel>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].mac, b[i].mac) << "zone " << i;
    EXPECT_EQ(a[i].acsd, b[i].acsd) << "zone " << i;
    EXPECT_EQ(a[i].num_trips, b[i].num_trips) << "zone " << i;
    EXPECT_EQ(a[i].num_infeasible, b[i].num_infeasible) << "zone " << i;
    EXPECT_EQ(a[i].num_walk_only, b[i].num_walk_only) << "zone " << i;
  }
}

TEST_F(ParallelLabelingTest, ThreadCountSweepIsBitIdentical) {
  // Golden-seed determinism across the whole thread sweep: 1, 2, and 8
  // workers partition the zones differently, yet every label and the SPQ
  // count must come out bit-identical.
  uint64_t baseline_spqs = 0;
  auto baseline = LabelZonesParallel(city_, todam_, all_zones_, pois_,
                                     CostKind::kJourneyTime,
                                     gtfs::Day::kTuesday, /*num_threads=*/1,
                                     {}, {}, &baseline_spqs);
  for (size_t threads : {2u, 8u}) {
    uint64_t spqs = 0;
    auto labels = LabelZonesParallel(city_, todam_, all_zones_, pois_,
                                     CostKind::kJourneyTime,
                                     gtfs::Day::kTuesday, threads, {}, {},
                                     &spqs);
    SCOPED_TRACE(::testing::Message() << "threads " << threads);
    EXPECT_EQ(spqs, baseline_spqs);
    ExpectBitIdentical(baseline, labels);
  }
}

TEST_F(ParallelLabelingTest, ProfileModeMatchesBatchedAcrossThreads) {
  // Window-scan labeling (CSA engine, one sweep per block of zones) against
  // the label-correcting oracle's grouped labeler. JT labels are built from
  // journey times only, which the engines produce bit-identically, so
  // MAC/ACSD must agree exactly — at every thread count, with all workers
  // sharing one connection array.
  testing::LabelCorrectingRouter oracle(&city_.feed, router::RouterOptions{});
  testing::LabelCorrectingLabeler labeler(&city_, &oracle);
  auto batched = labeler.LabelZones(todam_, all_zones_, pois_,
                                    CostKind::kJourneyTime,
                                    gtfs::Day::kTuesday);
  const uint64_t batched_spqs = labeler.spq_count();
  const router::RouterOptions csa;
  for (size_t threads : {1u, 4u, 8u}) {
    uint64_t spqs = 0;
    auto profile = LabelZonesParallel(city_, todam_, all_zones_, pois_,
                                      CostKind::kJourneyTime,
                                      gtfs::Day::kTuesday, threads, csa, {},
                                      &spqs);
    SCOPED_TRACE(::testing::Message() << "threads " << threads);
    EXPECT_EQ(spqs, batched_spqs);
    ExpectBitIdentical(batched, profile);
  }
}

TEST_F(ParallelLabelingTest, ProfileGacSweepIsBitIdentical) {
  // GAC depends on leg decomposition, which may tie-differ BETWEEN engines,
  // so the cross-thread contract is pinned within the CSA engine: the
  // thread count must never be observable in a window-scan label.
  const router::RouterOptions csa;
  uint64_t baseline_spqs = 0;
  auto baseline = LabelZonesParallel(city_, todam_, all_zones_, pois_,
                                     CostKind::kGeneralizedCost,
                                     gtfs::Day::kTuesday, /*num_threads=*/1,
                                     csa, {}, &baseline_spqs);
  for (size_t threads : {2u, 8u}) {
    uint64_t spqs = 0;
    auto labels = LabelZonesParallel(city_, todam_, all_zones_, pois_,
                                     CostKind::kGeneralizedCost,
                                     gtfs::Day::kTuesday, threads, csa, {},
                                     &spqs);
    SCOPED_TRACE(::testing::Message() << "threads " << threads);
    EXPECT_EQ(spqs, baseline_spqs);
    ExpectBitIdentical(baseline, labels);
  }
}

TEST(ParallelLabelingCityTest, BrindaleSweepIsBitIdentical) {
  // Second city family (the Covely fixture covers the first): Brindale's
  // radial layout produces different zone geometry and trip mixes, so a
  // scheduling-order dependence that Covely masks would surface here.
  auto built = synth::BuildCity(synth::CitySpec::Brindale(0.1, 7));
  ASSERT_TRUE(built.ok());
  synth::City city = std::move(built).value();
  std::vector<synth::Poi> pois = city.PoisOf(synth::PoiCategory::kSchool);
  ASSERT_FALSE(pois.empty());
  GravityConfig gravity;
  gravity.sample_rate_per_hour = 4;
  gravity.keep_scale = 2.0;
  TodamBuilder builder(city.zones, pois, gtfs::WeekdayAmPeak(), gravity);
  Todam todam = builder.BuildGravity(/*seed=*/3);
  std::vector<uint32_t> zones;
  for (uint32_t z = 0; z < city.zones.size(); ++z) zones.push_back(z);

  uint64_t baseline_spqs = 0;
  auto baseline = LabelZonesParallel(city, todam, zones, pois,
                                     CostKind::kJourneyTime,
                                     gtfs::Day::kTuesday, /*num_threads=*/1,
                                     {}, {}, &baseline_spqs);
  for (size_t threads : {2u, 8u}) {
    uint64_t spqs = 0;
    auto labels = LabelZonesParallel(city, todam, zones, pois,
                                     CostKind::kJourneyTime,
                                     gtfs::Day::kTuesday, threads, {}, {},
                                     &spqs);
    SCOPED_TRACE(::testing::Message() << "threads " << threads);
    EXPECT_EQ(spqs, baseline_spqs);
    ExpectBitIdentical(baseline, labels);
  }
}

TEST_F(ParallelLabelingTest, PipelineParallelMatchesSerialPredictions) {
  SsrPipeline pipeline(&city_, gtfs::WeekdayAmPeak());
  PipelineConfig config;
  config.beta = 0.2;
  config.model = ml::ModelKind::kOls;
  config.seed = 3;

  auto serial = pipeline.Run(pois_, todam_, config);
  config.labeling_threads = 4;
  auto parallel = pipeline.Run(pois_, todam_, config);
  ASSERT_TRUE(serial.ok() && parallel.ok());
  EXPECT_EQ(serial.value().mac, parallel.value().mac);
  EXPECT_EQ(serial.value().acsd, parallel.value().acsd);
  EXPECT_EQ(serial.value().spqs, parallel.value().spqs);
}

TEST_F(ParallelLabelingTest, ParallelGroundTruthMatches) {
  SsrPipeline pipeline(&city_, gtfs::WeekdayAmPeak());
  GroundTruth serial = pipeline.ComputeGroundTruth(
      pois_, todam_, CostKind::kJourneyTime);
  GroundTruth parallel = pipeline.ComputeGroundTruth(
      pois_, todam_, CostKind::kJourneyTime, {}, /*num_threads=*/4);
  EXPECT_EQ(serial.mac, parallel.mac);
  EXPECT_EQ(serial.acsd, parallel.acsd);
  EXPECT_EQ(serial.spqs, parallel.spqs);
  EXPECT_DOUBLE_EQ(serial.walk_only_fraction, parallel.walk_only_fraction);
}

TEST_F(ParallelLabelingTest, ThreadedPipelineRoutesLikeTheSerialOne) {
  // A pipeline built over CSA must stay on CSA once threaded: profile mode
  // answers each block of kZoneBlock zones with one window scan, so both
  // runs expand once per block of labeled zones that has trips (the
  // label-correcting oracle would expand once per departure group
  // instead).
  SsrPipeline pipeline(&city_, gtfs::WeekdayAmPeak());
  auto blocks_with_trips = [&](const std::vector<uint32_t>& zones) {
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

  GroundTruth serial = pipeline.ComputeGroundTruth(
      pois_, todam_, CostKind::kJourneyTime);
  GroundTruth threaded = pipeline.ComputeGroundTruth(
      pois_, todam_, CostKind::kJourneyTime, {}, /*num_threads=*/4);
  EXPECT_EQ(serial.mac, threaded.mac);
  EXPECT_EQ(serial.acsd, threaded.acsd);
  EXPECT_EQ(serial.spqs, threaded.spqs);
  EXPECT_EQ(threaded.expansions, serial.expansions);
  EXPECT_EQ(threaded.expansions, blocks_with_trips(all_zones_));
  EXPECT_LT(threaded.expansions, threaded.spqs);

  PipelineConfig config;
  config.beta = 0.2;
  config.model = ml::ModelKind::kOls;
  config.seed = 3;
  auto run_serial = pipeline.Run(pois_, todam_, config);
  config.labeling_threads = 4;
  auto run_threaded = pipeline.Run(pois_, todam_, config);
  ASSERT_TRUE(run_serial.ok() && run_threaded.ok());
  EXPECT_EQ(run_serial.value().mac, run_threaded.value().mac);
  EXPECT_EQ(run_serial.value().acsd, run_threaded.value().acsd);
  EXPECT_EQ(run_serial.value().spqs, run_threaded.value().spqs);
  EXPECT_EQ(run_threaded.value().expansions, run_serial.value().expansions);
  EXPECT_EQ(run_threaded.value().expansions,
            blocks_with_trips(run_threaded.value().labeled));
}

}  // namespace
}  // namespace staq::core
