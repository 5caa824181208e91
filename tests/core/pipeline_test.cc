#include "core/pipeline.h"

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <future>
#include <thread>

#include <gtest/gtest.h>

#include "synth/city_spec.h"
#include "testing/digest.h"
#include "testing/label_state.h"
#include "testing/test_city.h"
#include "util/failpoint.h"
#include "util/thread_pool.h"

namespace staq::core {
namespace {

class PipelineTest : public ::testing::Test {
 protected:
  PipelineTest()
      : city_(testing::SmallCity()),
        pipeline_(&city_, gtfs::WeekdayAmPeak()) {
    pois_ = city_.PoisOf(synth::PoiCategory::kVaxCenter);
    GravityConfig gravity = CalibratedGravityConfig(city_.spec);
    gravity.sample_rate_per_hour = 4;  // keep the test fast
    todam_ = pipeline_.BuildGravityTodam(pois_, gravity, 1);
  }

  PipelineConfig FastConfig(ml::ModelKind model, double beta) {
    PipelineConfig config;
    config.beta = beta;
    config.model = model;
    config.seed = 3;
    return config;
  }

  synth::City city_;
  SsrPipeline pipeline_;
  std::vector<synth::Poi> pois_;
  Todam todam_;
};

TEST_F(PipelineTest, OfflinePhaseRecorded) {
  EXPECT_GT(pipeline_.offline_seconds(), 0.0);
  EXPECT_EQ(pipeline_.isochrones().size(), city_.zones.size());
  EXPECT_EQ(pipeline_.hop_trees().num_zones(), city_.zones.size());
}

TEST_F(PipelineTest, RunProducesFullCoverage) {
  auto run = pipeline_.Run(pois_, todam_, FastConfig(ml::ModelKind::kOls, 0.2));
  ASSERT_TRUE(run.ok()) << run.status();
  const PipelineResult& result = run.value();
  EXPECT_EQ(result.mac.size(), city_.zones.size());
  EXPECT_EQ(result.acsd.size(), city_.zones.size());
  EXPECT_EQ(result.labeled.size(),
            static_cast<size_t>(std::ceil(0.2 * city_.zones.size())));
  for (size_t z = 0; z < result.mac.size(); ++z) {
    EXPECT_GE(result.mac[z], 0.0);
    EXPECT_GE(result.acsd[z], 0.0);
    EXPECT_TRUE(std::isfinite(result.mac[z]));
  }
  EXPECT_GT(result.spqs, 0u);
  EXPECT_GT(result.timings.labeling_s, 0.0);
  EXPECT_GT(result.timings.TotalSeconds(), 0.0);
}

TEST_F(PipelineTest, LabeledZonesCarryExactValues) {
  auto run = pipeline_.Run(pois_, todam_, FastConfig(ml::ModelKind::kOls, 0.2));
  ASSERT_TRUE(run.ok());
  GroundTruth truth =
      pipeline_.ComputeGroundTruth(pois_, todam_, CostKind::kJourneyTime);
  for (uint32_t z : run.value().labeled) {
    EXPECT_NEAR(run.value().mac[z], truth.mac[z], 1e-9);
    EXPECT_NEAR(run.value().acsd[z], truth.acsd[z], 1e-9);
  }
}

TEST_F(PipelineTest, SpqCountProportionalToBeta) {
  auto small = pipeline_.Run(pois_, todam_, FastConfig(ml::ModelKind::kOls, 0.05));
  auto large = pipeline_.Run(pois_, todam_, FastConfig(ml::ModelKind::kOls, 0.5));
  ASSERT_TRUE(small.ok() && large.ok());
  EXPECT_LT(small.value().spqs, large.value().spqs);
  GroundTruth truth =
      pipeline_.ComputeGroundTruth(pois_, todam_, CostKind::kJourneyTime);
  EXPECT_LT(large.value().spqs, truth.spqs);
  EXPECT_EQ(truth.spqs, todam_.num_trips());
}

TEST_F(PipelineTest, PrecomputedFeaturesReproduceRun) {
  ml::Matrix features = pipeline_.feature_extractor().ExtractZoneMatrix(
      pois_, todam_.alpha());
  PipelineConfig config = FastConfig(ml::ModelKind::kOls, 0.2);
  auto with = pipeline_.Run(pois_, todam_, config, &features, 0.123);
  auto without = pipeline_.Run(pois_, todam_, config);
  ASSERT_TRUE(with.ok() && without.ok());
  EXPECT_EQ(with.value().mac, without.value().mac);
  EXPECT_DOUBLE_EQ(with.value().timings.features_s, 0.123);
}

TEST_F(PipelineTest, GroundTruthCoversAllZones) {
  GroundTruth truth =
      pipeline_.ComputeGroundTruth(pois_, todam_, CostKind::kJourneyTime);
  EXPECT_EQ(truth.mac.size(), city_.zones.size());
  EXPECT_EQ(truth.spqs, todam_.num_trips());
  EXPECT_GE(truth.walk_only_fraction, 0.0);
  EXPECT_LE(truth.walk_only_fraction, 1.0);
  EXPECT_GT(truth.labeling_s, 0.0);
}

TEST_F(PipelineTest, EvaluationMetricsSensible) {
  GroundTruth truth =
      pipeline_.ComputeGroundTruth(pois_, todam_, CostKind::kJourneyTime);
  auto run = pipeline_.Run(pois_, todam_, FastConfig(ml::ModelKind::kMlp, 0.3));
  ASSERT_TRUE(run.ok());
  EvaluationMetrics metrics = Evaluate(truth, run.value());
  EXPECT_GE(metrics.mac_mae, 0.0);
  EXPECT_GE(metrics.mac_corr, -1.0);
  EXPECT_LE(metrics.mac_corr, 1.0);
  EXPECT_GE(metrics.class_accuracy, 0.0);
  EXPECT_LE(metrics.class_accuracy, 1.0);
  EXPECT_GE(metrics.fie, 0.0);
  // With 30% labels on a small city the MLP should be clearly informative.
  EXPECT_GT(metrics.mac_corr, 0.3);
}

TEST_F(PipelineTest, PerfectPredictionGivesZeroErrors) {
  GroundTruth truth =
      pipeline_.ComputeGroundTruth(pois_, todam_, CostKind::kJourneyTime);
  PipelineResult perfect;
  perfect.mac = truth.mac;
  perfect.acsd = truth.acsd;
  perfect.labeled = {0, 1};
  EvaluationMetrics metrics = Evaluate(truth, perfect);
  EXPECT_DOUBLE_EQ(metrics.mac_mae, 0.0);
  EXPECT_NEAR(metrics.mac_corr, 1.0, 1e-9);
  EXPECT_DOUBLE_EQ(metrics.class_accuracy, 1.0);
  EXPECT_DOUBLE_EQ(metrics.fie, 0.0);
}

TEST_F(PipelineTest, RejectsInvalidBeta) {
  auto run = pipeline_.Run(pois_, todam_, FastConfig(ml::ModelKind::kOls, 0.0));
  EXPECT_FALSE(run.ok());
}

TEST_F(PipelineTest, RejectsInvalidGacWeights) {
  PipelineConfig config = FastConfig(ml::ModelKind::kOls, 0.2);
  config.cost = CostKind::kGeneralizedCost;
  config.gac.value_of_time = 0.0;  // division by zero in Eq. 1
  EXPECT_FALSE(pipeline_.Run(pois_, todam_, config).ok());
  config.gac = router::GacWeights{};
  config.gac.lambda_wt = -1.0;
  EXPECT_FALSE(pipeline_.Run(pois_, todam_, config).ok());
  // JT runs ignore GAC weights entirely.
  config.cost = CostKind::kJourneyTime;
  EXPECT_TRUE(pipeline_.Run(pois_, todam_, config).ok());
}

TEST_F(PipelineTest, DeterministicForSameConfig) {
  PipelineConfig config = FastConfig(ml::ModelKind::kMlp, 0.2);
  auto a = pipeline_.Run(pois_, todam_, config);
  auto b = pipeline_.Run(pois_, todam_, config);
  ASSERT_TRUE(a.ok() && b.ok());
  EXPECT_EQ(a.value().mac, b.value().mac);
  EXPECT_EQ(a.value().acsd, b.value().acsd);
  EXPECT_EQ(a.value().labeled, b.value().labeled);
}

TEST_F(PipelineTest, GacCostKindRunsEndToEnd) {
  PipelineConfig config = FastConfig(ml::ModelKind::kOls, 0.2);
  config.cost = CostKind::kGeneralizedCost;
  auto run = pipeline_.Run(pois_, todam_, config);
  ASSERT_TRUE(run.ok());
  GroundTruth jt_truth =
      pipeline_.ComputeGroundTruth(pois_, todam_, CostKind::kJourneyTime);
  GroundTruth gac_truth = pipeline_.ComputeGroundTruth(
      pois_, todam_, CostKind::kGeneralizedCost);
  // Generalized costs dominate raw journey times on average.
  double jt_mean = 0, gac_mean = 0;
  for (size_t z = 0; z < jt_truth.mac.size(); ++z) {
    jt_mean += jt_truth.mac[z];
    gac_mean += gac_truth.mac[z];
  }
  EXPECT_GT(gac_mean, jt_mean);
}

// Cross-commit golden for the paper pipeline's exact GAC labels routed by
// the connection scan: every zone's MAC and ACSD plus the SPQ count of
// SsrPipeline::ComputeGroundTruth, on both city families, two categories
// and two TODAM seeds. GAC reads the legs of each journey, so this pins
// the pipeline to the legs serve answers with. Recorded on a pipeline
// configured for the connection scan while the library still defaulted to
// a label-correcting search; the default pipeline now matches it.
TEST(GroundTruthDigestTest, CsaGacLabelsMatchRecordedDigest) {
  struct Case {
    synth::CitySpec spec;
    uint64_t digests[2][2];  // [school, hospital][seed 1, seed 17]
  };
  const Case cases[] = {
      {synth::CitySpec::Brindale(0.1, 42),
       {{0x9b655445d709b02dull, 0x8ce83b4285e81300ull},
        {0x643f3893c071c5b4ull, 0xca526c8cc93f7303ull}}},
      {synth::CitySpec::Covely(0.1, 42),
       {{0xf240fee4704f55b6ull, 0x99e52847cdd60c49ull},
        {0x29d8769b1a91cecdull, 0xd81628e426c85e52ull}}},
  };
  const synth::PoiCategory categories[] = {synth::PoiCategory::kSchool,
                                           synth::PoiCategory::kHospital};
  const uint64_t seeds[] = {1, 17};
  for (const Case& c : cases) {
    auto built = synth::BuildCity(c.spec);
    ASSERT_TRUE(built.ok());
    const synth::City city = std::move(built).value();
    SsrPipeline pipeline(&city, gtfs::WeekdayAmPeak());
    const GravityConfig gravity = CalibratedGravityConfig(c.spec);
    for (size_t k = 0; k < 2; ++k) {
      const std::vector<synth::Poi> pois = city.PoisOf(categories[k]);
      for (size_t s = 0; s < 2; ++s) {
        const Todam todam = pipeline.BuildGravityTodam(pois, gravity, seeds[s]);
        const GroundTruth truth = pipeline.ComputeGroundTruth(
            pois, todam, CostKind::kGeneralizedCost);
        std::vector<double> bits = truth.mac;
        bits.insert(bits.end(), truth.acsd.begin(), truth.acsd.end());
        bits.push_back(static_cast<double>(truth.spqs));
        const uint64_t digest = testing::HexFloatDigest(bits);
        EXPECT_EQ(digest, c.digests[k][s])
            << c.spec.name << " category " << k << " seed " << seeds[s]
            << " digest 0x" << std::hex << digest;
      }
    }
  }
}

/// The inputs of core::FitSsr over one city's school TODAM: the sample of
/// `config` and its zones' exact labels.
class FitSsrInputs {
 public:
  explicit FitSsrInputs(const synth::City* city)
      : city_(city), pipeline_(city, gtfs::WeekdayAmPeak()) {
    pois_ = city->PoisOf(synth::PoiCategory::kSchool);
    GravityConfig gravity = CalibratedGravityConfig(city->spec);
    gravity.sample_rate_per_hour = 4;
    todam_ = pipeline_.BuildGravityTodam(pois_, gravity, 1);
    truth_ =
        pipeline_.ComputeGroundTruth(pois_, todam_, CostKind::kJourneyTime);
  }

  SsrSample Sample(const PipelineConfig& config) const {
    auto sample = DrawSsrSample(*city_, pipeline_.feature_extractor(), pois_,
                                todam_, config);
    if (!sample.ok()) std::abort();
    return std::move(sample).value();
  }

  std::vector<ZoneLabel> Labels(const SsrSample& sample) const {
    std::vector<ZoneLabel> labels;
    for (uint32_t z : sample.result.labeled) {
      ZoneLabel label;
      label.mac = truth_.mac[z];
      label.acsd = truth_.acsd[z];
      labels.push_back(label);
    }
    return labels;
  }

 private:
  const synth::City* city_;
  SsrPipeline pipeline_;
  std::vector<synth::Poi> pois_;
  Todam todam_;
  GroundTruth truth_;
};

void ExpectSameBits(const PipelineResult& got, const PipelineResult& want) {
  ASSERT_EQ(got.mac.size(), want.mac.size());
  ASSERT_EQ(got.acsd.size(), want.acsd.size());
  for (size_t z = 0; z < want.mac.size(); ++z) {
    EXPECT_EQ(testing::DoubleBits(got.mac[z]), testing::DoubleBits(want.mac[z]))
        << "mac zone " << z;
    EXPECT_EQ(testing::DoubleBits(got.acsd[z]),
              testing::DoubleBits(want.acsd[z]))
        << "acsd zone " << z;
  }
}

// core::FitSsr fits its two targets as the two items of one parallel loop.
// Each fit is a pure function of the sample and its seed, so a fit whose
// helper takes one target must equal the caller fitting both, bit for bit:
// every model kind, two budgets, both city families. The helper pool is a
// normal-priority pool of one worker, so the helper joins nearly every fit.
TEST(FitSsrTest, HelperSplitEqualsCallerOnly) {
  util::ThreadPool pool(1);
  constexpr char kHelperSite[] = "core.fit_ssr.helper";
  const uint64_t helper_hits = util::FailPoints::HitCount(kHelperSite);
  for (const synth::CitySpec& spec :
       {synth::CitySpec::Brindale(0.05, 7), synth::CitySpec::Covely(0.06, 5)}) {
    SCOPED_TRACE(spec.name);
    auto built = synth::BuildCity(spec);
    ASSERT_TRUE(built.ok()) << built.status();
    const synth::City city = std::move(built).value();
    const FitSsrInputs inputs(&city);
    for (double beta : {0.05, 0.10}) {
      for (ml::ModelKind kind : ml::AllModelKinds()) {
        SCOPED_TRACE(::testing::Message()
                     << ml::ModelKindName(kind) << " beta " << beta);
        PipelineConfig config;
        config.beta = beta;
        config.model = kind;
        config.seed = 11;
        const SsrSample sample = inputs.Sample(config);
        const std::vector<ZoneLabel> labels = inputs.Labels(sample);
        auto alone = FitSsr(sample, labels, config);
        ASSERT_TRUE(alone.ok()) << alone.status();
        ASSERT_EQ(alone.value().mac.size(), city.zones.size());
        auto helped = FitSsr(sample, labels, config, &pool);
        ASSERT_TRUE(helped.ok()) << helped.status();
        ExpectSameBits(helped.value(), alone.value());
      }
    }
  }
#if defined(STAQ_FAILPOINTS) && STAQ_FAILPOINTS
  // The split was exercised: the helper fitted at least one target.
  EXPECT_GT(util::FailPoints::HitCount(kHelperSite), helper_hits);
#else
  (void)helper_hits;
#endif
}

#if defined(STAQ_FAILPOINTS) && STAQ_FAILPOINTS
// The two fits provably overlap: the first participant to reach its fit
// (its target's inputs built) waits there until the other has built its
// own and reached its fit too, so both fits run at once. Sharing anything
// the targets write (one `y` for both, say) then changes an answer.
TEST(FitSsrTest, OverlappingFitsEqualCallerOnly) {
  constexpr char kTargetSite[] = "core.fit_ssr.target";
  util::ThreadPool pool(1);
  const synth::City city = testing::TinyCity();
  const FitSsrInputs inputs(&city);
  for (ml::ModelKind kind : ml::AllModelKinds()) {
    SCOPED_TRACE(ml::ModelKindName(kind));
    PipelineConfig config;
    config.beta = 0.2;
    config.model = kind;
    config.seed = 5;
    const SsrSample sample = inputs.Sample(config);
    const std::vector<ZoneLabel> labels = inputs.Labels(sample);
    auto alone = FitSsr(sample, labels, config);
    ASSERT_TRUE(alone.ok()) << alone.status();

    // A helper whose submission found the pool's lock busy never joins,
    // and the parked caller would wait for it in vain: such a fit gets
    // released after a while and another try.
    bool overlapped = false;
    for (int attempt = 0; attempt < 3 && !overlapped; ++attempt) {
      const uint64_t hits = util::FailPoints::HitCount(kTargetSite);
      util::FailPointConfig park_first = util::FailPointConfig::Block();
      park_first.limit = 1;
      util::FailPoints::Arm(kTargetSite, park_first);
      auto helped = std::async(std::launch::async, [&] {
        return FitSsr(sample, labels, config, &pool);
      });
      const auto deadline =
          std::chrono::steady_clock::now() + std::chrono::seconds(5);
      while (!(overlapped =
                   util::FailPoints::HitCount(kTargetSite) >= hits + 2) &&
             std::chrono::steady_clock::now() < deadline) {
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
      }
      util::FailPoints::Disarm(kTargetSite);
      auto answer = helped.get();
      ASSERT_TRUE(answer.ok()) << answer.status();
      ExpectSameBits(answer.value(), alone.value());
    }
    EXPECT_TRUE(overlapped) << "the fit's helper never joined";
  }
}
#endif

}  // namespace
}  // namespace staq::core
