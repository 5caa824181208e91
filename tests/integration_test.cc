// End-to-end integration tests: the full paper pipeline — synthetic city ->
// gravity TODAM -> offline structures -> SSR run -> access measures —
// checked against the ground-truth (naive) computation for the qualitative
// properties the paper reports. The SSR runs and the ground truth go
// through the paper harness's path (testing/ssr_harness.h): the server's.
#include <gtest/gtest.h>

#include "core/pipeline.h"
#include "serve/server.h"
#include "testing/ssr_harness.h"
#include "testing/test_city.h"

namespace staq {
namespace {

class IntegrationTest : public ::testing::Test {
 protected:
  static constexpr synth::PoiCategory kCategory = synth::PoiCategory::kSchool;

  IntegrationTest()
      : harness_(std::move(synth::BuildCity(synth::CitySpec::Covely(0.15, 17)))
                     .value()) {
    pois_ = city().PoisOf(kCategory);
    core::GravityConfig gravity = core::CalibratedGravityConfig(city().spec);
    gravity.sample_rate_per_hour = 4;
    todam_ = harness_.GravityTodam(pois_, gravity, 1);
    truth_ = harness_.Truth(kCategory, todam_, core::CostKind::kJourneyTime);
  }

  const synth::City& city() const { return harness_.city(); }

  core::EvaluationMetrics RunModel(ml::ModelKind model, double beta) {
    core::PipelineConfig config;
    config.beta = beta;
    config.model = model;
    config.seed = 4;
    auto run = harness_.Run(kCategory, todam_, config);
    EXPECT_TRUE(run.ok());
    return Evaluate(truth_, run.value());
  }

  testing::SsrHarness harness_;
  std::vector<synth::Poi> pois_;
  core::Todam todam_;
  std::vector<core::ZoneLabel> truth_;
};

TEST_F(IntegrationTest, GravityMatrixShrinksTheWorkload) {
  core::GravityConfig gravity = core::CalibratedGravityConfig(city().spec);
  gravity.sample_rate_per_hour = 4;
  core::TodamBuilder builder(city().zones, pois_, gtfs::WeekdayAmPeak(),
                             gravity);
  // The paper's headline: the gravity construction removes most trips.
  EXPECT_LT(static_cast<double>(todam_.num_trips()),
            0.5 * static_cast<double>(builder.FullTripCount()));
}

TEST_F(IntegrationTest, MlpBeatsChanceAtModestBudget) {
  core::EvaluationMetrics metrics = RunModel(ml::ModelKind::kMlp, 0.1);
  EXPECT_GT(metrics.mac_corr, 0.5);
  EXPECT_GT(metrics.class_accuracy, 0.25);  // 4 classes -> chance 0.25
  EXPECT_LT(metrics.fie, 0.1);
}

TEST_F(IntegrationTest, LargerBudgetNotWorse) {
  // Error at beta=30% should not be dramatically worse than at 5% (and is
  // typically much better). Allow slack for stochastic variation.
  core::EvaluationMetrics small = RunModel(ml::ModelKind::kMlp, 0.05);
  core::EvaluationMetrics large = RunModel(ml::ModelKind::kMlp, 0.3);
  EXPECT_LT(large.mac_mae, 1.5 * small.mac_mae + 30.0);
}

TEST_F(IntegrationTest, SsrCutsLabelingCost) {
  core::PipelineConfig config;
  config.beta = 0.05;
  config.model = ml::ModelKind::kOls;
  config.seed = 4;
  auto run = harness_.Run(kCategory, todam_, config);
  ASSERT_TRUE(run.ok());
  // The SPQ saving is the paper's central claim: at beta=5% the solution
  // issues ~5% of the naive SPQs (one per trip).
  double spq_fraction = static_cast<double>(run.value().spqs) /
                        static_cast<double>(todam_.num_trips());
  EXPECT_LT(spq_fraction, 0.10);
  EXPECT_GT(spq_fraction, 0.01);
}

TEST_F(IntegrationTest, AllModelsRunEndToEnd) {
  for (ml::ModelKind model : ml::AllModelKinds()) {
    core::EvaluationMetrics metrics = RunModel(model, 0.2);
    EXPECT_TRUE(std::isfinite(metrics.mac_mae)) << ml::ModelKindName(model);
    EXPECT_GT(metrics.mac_corr, 0.0) << ml::ModelKindName(model);
  }
}

TEST_F(IntegrationTest, FairnessIndexPredictedAccurately) {
  // Paper: FIE remains low even at the lowest budgets.
  core::EvaluationMetrics metrics = RunModel(ml::ModelKind::kMlp, 0.05);
  EXPECT_LT(metrics.fie, 0.15);
}

TEST(IntegrationDynamicTest, EndToEndDynamicScenario) {
  // The motivating workflow: measure access, add a facility, re-query.
  serve::AqServer server(
      std::move(synth::BuildCity(synth::CitySpec::Covely(0.1, 21))).value(),
      gtfs::WeekdayAmPeak());

  serve::AqRequest request;
  request.category = synth::PoiCategory::kVaxCenter;
  request.options.exact = true;
  request.options.gravity.sample_rate_per_hour = 4;
  request.options.gravity.keep_scale = 2.0;

  auto before = server.Query(request);
  ASSERT_TRUE(before.ok());

  ASSERT_TRUE(server
                  .AddPoi(synth::PoiCategory::kVaxCenter,
                          server.base_city().Centre())
                  .ok());
  auto after = server.Query(request);
  ASSERT_TRUE(after.ok());

  // More provision can only help the mean access cost.
  EXPECT_LE(after.value().mean_mac, before.value().mean_mac * 1.02);
}

}  // namespace
}  // namespace staq
