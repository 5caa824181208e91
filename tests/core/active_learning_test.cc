#include "core/active_learning.h"

#include <cmath>
#include <set>

#include <gtest/gtest.h>

#include "core/pipeline.h"
#include "testing/ssr_harness.h"
#include "testing/test_city.h"
#include "testing/test_data.h"

namespace staq::core {
namespace {

std::vector<geo::Point> GridPositions(size_t n) {
  std::vector<geo::Point> positions;
  size_t side = static_cast<size_t>(std::sqrt(static_cast<double>(n)));
  for (size_t i = 0; i < n; ++i) {
    positions.push_back(geo::Point{
        static_cast<double>(i % side) * 100.0,
        static_cast<double>(i / side) * 100.0});
  }
  return positions;
}

TEST(ActiveLearningTest, StrategyNames) {
  EXPECT_STREQ(SamplingStrategyName(SamplingStrategy::kRandom), "random");
  EXPECT_STREQ(SamplingStrategyName(SamplingStrategy::kSpatialSpread),
               "spatial_spread");
  EXPECT_STREQ(SamplingStrategyName(SamplingStrategy::kFeatureDiverse),
               "feature_diverse");
}

TEST(ActiveLearningTest, RandomMatchesPlainSampler) {
  auto via_strategy = SelectLabeledZones(SamplingStrategy::kRandom, 200, 0.1,
                                         5, nullptr, nullptr);
  auto direct = SampleLabeledZones(200, 0.1, 5);
  ASSERT_TRUE(via_strategy.ok() && direct.ok());
  EXPECT_EQ(via_strategy.value(), direct.value());
}

class StrategyContractTest
    : public ::testing::TestWithParam<SamplingStrategy> {};

TEST_P(StrategyContractTest, SizeUniquenessRangeDeterminism) {
  size_t n = 144;
  auto positions = GridPositions(n);
  auto data = testing::LinearDataset(n, 5, 10, 0.1, 3);

  auto a = SelectLabeledZones(GetParam(), n, 0.125, 9, &positions, &data.x);
  auto b = SelectLabeledZones(GetParam(), n, 0.125, 9, &positions, &data.x);
  ASSERT_TRUE(a.ok()) << a.status();
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(a.value(), b.value());  // deterministic per seed

  EXPECT_EQ(a.value().size(), 18u);  // ceil(0.125 * 144)
  std::set<uint32_t> unique(a.value().begin(), a.value().end());
  EXPECT_EQ(unique.size(), a.value().size());
  for (uint32_t z : a.value()) EXPECT_LT(z, n);
  for (size_t i = 1; i < a.value().size(); ++i) {
    EXPECT_LT(a.value()[i - 1], a.value()[i]);  // ascending
  }
}

TEST_P(StrategyContractTest, RejectsBadBeta) {
  auto positions = GridPositions(16);
  auto data = testing::LinearDataset(16, 3, 4, 0.1, 3);
  EXPECT_FALSE(SelectLabeledZones(GetParam(), 16, 0.0, 1, &positions, &data.x)
                   .ok());
  EXPECT_FALSE(SelectLabeledZones(GetParam(), 16, 1.5, 1, &positions, &data.x)
                   .ok());
}

INSTANTIATE_TEST_SUITE_P(AllStrategies, StrategyContractTest,
                         ::testing::Values(SamplingStrategy::kRandom,
                                           SamplingStrategy::kSpatialSpread,
                                           SamplingStrategy::kFeatureDiverse),
                         [](const auto& info) {
                           return SamplingStrategyName(info.param);
                         });

TEST(ActiveLearningTest, SpatialSpreadRequiresPositions) {
  EXPECT_FALSE(SelectLabeledZones(SamplingStrategy::kSpatialSpread, 100, 0.1,
                                  1, nullptr, nullptr)
                   .ok());
  auto short_positions = GridPositions(10);
  EXPECT_FALSE(SelectLabeledZones(SamplingStrategy::kSpatialSpread, 100, 0.1,
                                  1, &short_positions, nullptr)
                   .ok());
}

TEST(ActiveLearningTest, FeatureDiverseRequiresFeatures) {
  EXPECT_FALSE(SelectLabeledZones(SamplingStrategy::kFeatureDiverse, 100, 0.1,
                                  1, nullptr, nullptr)
                   .ok());
}

TEST(ActiveLearningTest, SpatialSpreadCoversBetterThanWorstRandom) {
  // The k-centre guarantee: the max distance from any zone to its nearest
  // labeled zone is minimised within a factor 2. Compare against random
  // draws: spread's coverage radius must never be worse than the worst of
  // several random draws.
  size_t n = 400;
  auto positions = GridPositions(n);
  auto coverage_radius = [&](const std::vector<uint32_t>& chosen) {
    double worst = 0;
    for (size_t z = 0; z < n; ++z) {
      double best = 1e18;
      for (uint32_t c : chosen) {
        best = std::min(best, geo::Distance(positions[z], positions[c]));
      }
      worst = std::max(worst, best);
    }
    return worst;
  };

  auto spread = SelectLabeledZones(SamplingStrategy::kSpatialSpread, n, 0.05,
                                   1, &positions, nullptr);
  ASSERT_TRUE(spread.ok());
  double spread_radius = coverage_radius(spread.value());

  double worst_random = 0;
  for (uint64_t seed = 0; seed < 5; ++seed) {
    auto random = SelectLabeledZones(SamplingStrategy::kRandom, n, 0.05, seed,
                                     nullptr, nullptr);
    ASSERT_TRUE(random.ok());
    worst_random = std::max(worst_random, coverage_radius(random.value()));
  }
  EXPECT_LE(spread_radius, worst_random);
}

TEST(ActiveLearningTest, FeatureDiverseHandlesConstantFeatures) {
  // Identical rows: D^2 weights collapse; the fallback must still fill the
  // budget with distinct zones.
  ml::Matrix constant(50, 4, 1.0);
  auto chosen = SelectLabeledZones(SamplingStrategy::kFeatureDiverse, 50, 0.2,
                                   3, nullptr, &constant);
  ASSERT_TRUE(chosen.ok()) << chosen.status();
  EXPECT_EQ(chosen.value().size(), 10u);
  std::set<uint32_t> unique(chosen.value().begin(), chosen.value().end());
  EXPECT_EQ(unique.size(), 10u);
}

TEST(ActiveLearningTest, PipelineRunsWithEachStrategy) {
  testing::SsrHarness harness(testing::SmallCity());
  const synth::PoiCategory category = synth::PoiCategory::kVaxCenter;
  auto pois = harness.city().PoisOf(category);
  GravityConfig gravity;
  gravity.sample_rate_per_hour = 4;
  gravity.keep_scale = 2.0;
  Todam todam = harness.GravityTodam(pois, gravity, 1);

  for (SamplingStrategy strategy :
       {SamplingStrategy::kRandom, SamplingStrategy::kSpatialSpread,
        SamplingStrategy::kFeatureDiverse}) {
    PipelineConfig config;
    config.beta = 0.15;
    config.model = ml::ModelKind::kOls;
    config.sampling = strategy;
    config.seed = 2;
    auto run = harness.Run(category, todam, config);
    ASSERT_TRUE(run.ok()) << SamplingStrategyName(strategy);
    EXPECT_EQ(run.value().mac.size(), harness.city().zones.size());
  }
}

}  // namespace
}  // namespace staq::core
