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
#include "testing/ssr_harness.h"
#include "testing/test_city.h"
#include "util/failpoint.h"
#include "util/thread_pool.h"

namespace staq::core {
namespace {

// The paper harness's SSR path (testing/ssr_harness.h): Scenario::AnswerSsr
// over the index-keyed gravity TODAM, and its ground truth.
class PipelineTest : public ::testing::Test {
 protected:
  static constexpr synth::PoiCategory kCategory =
      synth::PoiCategory::kVaxCenter;

  PipelineTest() : harness_(testing::SmallCity()) {
    pois_ = city().PoisOf(kCategory);
    GravityConfig gravity = CalibratedGravityConfig(city().spec);
    gravity.sample_rate_per_hour = 4;  // keep the test fast
    todam_ = harness_.GravityTodam(pois_, gravity, 1);
  }

  const synth::City& city() const { return harness_.city(); }

  PipelineConfig FastConfig(ml::ModelKind model, double beta) {
    PipelineConfig config;
    config.beta = beta;
    config.model = model;
    config.seed = 3;
    return config;
  }

  util::Result<PipelineResult> Run(const PipelineConfig& config,
                                   const ml::Matrix* features = nullptr) {
    return harness_.Run(kCategory, todam_, config, features);
  }

  std::vector<ZoneLabel> Truth(CostKind cost) {
    return harness_.Truth(kCategory, todam_, cost);
  }

  testing::SsrHarness harness_;
  std::vector<synth::Poi> pois_;
  Todam todam_;
};

TEST_F(PipelineTest, OfflinePhaseRecorded) {
  const serve::OfflineState& offline = harness_.scenario().offline();
  EXPECT_GT(offline.build_seconds, 0.0);
  EXPECT_EQ(offline.isochrones->size(), city().zones.size());
  EXPECT_EQ(offline.hop_trees->num_zones(), city().zones.size());
}

TEST_F(PipelineTest, RunProducesFullCoverage) {
  auto run = Run(FastConfig(ml::ModelKind::kOls, 0.2));
  ASSERT_TRUE(run.ok()) << run.status();
  const PipelineResult& result = run.value();
  EXPECT_EQ(result.mac.size(), city().zones.size());
  EXPECT_EQ(result.acsd.size(), city().zones.size());
  EXPECT_EQ(result.labeled.size(),
            static_cast<size_t>(std::ceil(0.2 * city().zones.size())));
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
  auto run = Run(FastConfig(ml::ModelKind::kOls, 0.2));
  ASSERT_TRUE(run.ok());
  const std::vector<ZoneLabel> truth = Truth(CostKind::kJourneyTime);
  for (uint32_t z : run.value().labeled) {
    EXPECT_NEAR(run.value().mac[z], truth[z].mac, 1e-9);
    EXPECT_NEAR(run.value().acsd[z], truth[z].acsd, 1e-9);
  }
}

TEST_F(PipelineTest, SpqCountProportionalToBeta) {
  auto small = Run(FastConfig(ml::ModelKind::kOls, 0.05));
  auto large = Run(FastConfig(ml::ModelKind::kOls, 0.5));
  ASSERT_TRUE(small.ok() && large.ok());
  EXPECT_LT(small.value().spqs, large.value().spqs);
  EXPECT_LT(large.value().spqs, todam_.num_trips());
  // One SPQ per trip of the sampled zones.
  uint64_t sampled_trips = 0;
  for (uint32_t z : large.value().labeled) {
    sampled_trips += todam_.TripsFor(z).size();
  }
  EXPECT_EQ(large.value().spqs, sampled_trips);
}

TEST_F(PipelineTest, PrecomputedFeaturesReproduceRun) {
  ml::Matrix features = harness_.Features(pois_, todam_);
  PipelineConfig config = FastConfig(ml::ModelKind::kOls, 0.2);
  auto with = Run(config, &features);
  auto without = Run(config);
  ASSERT_TRUE(with.ok() && without.ok());
  EXPECT_EQ(with.value().mac, without.value().mac);
  EXPECT_EQ(with.value().timings.features_s, 0.0);
}

TEST_F(PipelineTest, GroundTruthCoversAllZones) {
  const std::vector<ZoneLabel> truth = Truth(CostKind::kJourneyTime);
  EXPECT_EQ(truth.size(), city().zones.size());
  uint64_t trips = 0, walk_only = 0;
  for (const ZoneLabel& label : truth) {
    trips += label.num_trips;
    walk_only += label.num_walk_only;
  }
  EXPECT_EQ(trips, todam_.num_trips());
  EXPECT_LE(walk_only, trips);
}

TEST_F(PipelineTest, EvaluationMetricsSensible) {
  const std::vector<ZoneLabel> truth = Truth(CostKind::kJourneyTime);
  auto run = Run(FastConfig(ml::ModelKind::kMlp, 0.3));
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
  const std::vector<ZoneLabel> truth = Truth(CostKind::kJourneyTime);
  PipelineResult perfect;
  for (const ZoneLabel& label : truth) {
    perfect.mac.push_back(label.mac);
    perfect.acsd.push_back(label.acsd);
  }
  perfect.labeled = {0, 1};
  EvaluationMetrics metrics = Evaluate(truth, perfect);
  EXPECT_DOUBLE_EQ(metrics.mac_mae, 0.0);
  EXPECT_NEAR(metrics.mac_corr, 1.0, 1e-9);
  EXPECT_DOUBLE_EQ(metrics.class_accuracy, 1.0);
  EXPECT_DOUBLE_EQ(metrics.fie, 0.0);
}

TEST_F(PipelineTest, RejectsInvalidBeta) {
  auto run = Run(FastConfig(ml::ModelKind::kOls, 0.0));
  EXPECT_FALSE(run.ok());
}

TEST_F(PipelineTest, RejectsInvalidGacWeights) {
  PipelineConfig config = FastConfig(ml::ModelKind::kOls, 0.2);
  config.cost = CostKind::kGeneralizedCost;
  config.gac.value_of_time = 0.0;  // division by zero in Eq. 1
  EXPECT_FALSE(Run(config).ok());
  config.gac = router::GacWeights{};
  config.gac.lambda_wt = -1.0;
  EXPECT_FALSE(Run(config).ok());
  // JT runs ignore GAC weights entirely.
  config.cost = CostKind::kJourneyTime;
  EXPECT_TRUE(Run(config).ok());
}

TEST_F(PipelineTest, DeterministicForSameConfig) {
  PipelineConfig config = FastConfig(ml::ModelKind::kMlp, 0.2);
  auto a = Run(config);
  auto b = Run(config);
  ASSERT_TRUE(a.ok() && b.ok());
  EXPECT_EQ(a.value().mac, b.value().mac);
  EXPECT_EQ(a.value().acsd, b.value().acsd);
  EXPECT_EQ(a.value().labeled, b.value().labeled);
}

TEST_F(PipelineTest, GacCostKindRunsEndToEnd) {
  PipelineConfig config = FastConfig(ml::ModelKind::kOls, 0.2);
  config.cost = CostKind::kGeneralizedCost;
  auto run = Run(config);
  ASSERT_TRUE(run.ok());
  const std::vector<ZoneLabel> jt_truth = Truth(CostKind::kJourneyTime);
  const std::vector<ZoneLabel> gac_truth = Truth(CostKind::kGeneralizedCost);
  // Generalized costs dominate raw journey times on average.
  double jt_mean = 0, gac_mean = 0;
  for (size_t z = 0; z < jt_truth.size(); ++z) {
    jt_mean += jt_truth[z].mac;
    gac_mean += gac_truth[z].mac;
  }
  EXPECT_GT(gac_mean, jt_mean);
}

// Cross-commit golden for the paper harness's exact GAC labels routed by
// the connection scan: every zone's MAC and ACSD plus the SPQ count (one
// per trip) of every zone of the harness's index-keyed TODAM labeled
// through Scenario::LabelZoneBlocks, on both city families, two
// categories and two TODAM seeds. GAC reads the legs of each journey, so
// this pins the harness to the legs serve answers with. Recorded on a
// pipeline configured for the connection scan while the library still
// defaulted to a label-correcting search.
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
    testing::SsrHarness harness(std::move(built).value());
    const GravityConfig gravity = CalibratedGravityConfig(c.spec);
    for (size_t k = 0; k < 2; ++k) {
      const std::vector<synth::Poi> pois =
          harness.city().PoisOf(categories[k]);
      for (size_t s = 0; s < 2; ++s) {
        const Todam todam = harness.GravityTodam(pois, gravity, seeds[s]);
        const std::vector<ZoneLabel> truth = harness.Truth(
            categories[k], todam, CostKind::kGeneralizedCost);
        std::vector<double> bits;
        for (const ZoneLabel& label : truth) bits.push_back(label.mac);
        for (const ZoneLabel& label : truth) bits.push_back(label.acsd);
        bits.push_back(static_cast<double>(todam.num_trips()));
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
  explicit FitSsrInputs(synth::City city) : harness_(std::move(city)) {
    pois_ = harness_.city().PoisOf(synth::PoiCategory::kSchool);
    GravityConfig gravity = CalibratedGravityConfig(harness_.city().spec);
    gravity.sample_rate_per_hour = 4;
    todam_ = harness_.GravityTodam(pois_, gravity, 1);
    truth_ = harness_.Truth(synth::PoiCategory::kSchool, todam_,
                            CostKind::kJourneyTime);
  }

  size_t num_zones() const { return harness_.city().zones.size(); }

  SsrSample Sample(const PipelineConfig& config) const {
    auto sample =
        DrawSsrSample(harness_.city(), *harness_.scenario().offline().features,
                      pois_, todam_, config);
    if (!sample.ok()) std::abort();
    return std::move(sample).value();
  }

  std::vector<ZoneLabel> Labels(const SsrSample& sample) const {
    std::vector<ZoneLabel> labels;
    for (uint32_t z : sample.result.labeled) {
      ZoneLabel label;
      label.mac = truth_[z].mac;
      label.acsd = truth_[z].acsd;
      labels.push_back(label);
    }
    return labels;
  }

 private:
  testing::SsrHarness harness_;
  std::vector<synth::Poi> pois_;
  Todam todam_;
  std::vector<ZoneLabel> truth_;
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
    const FitSsrInputs inputs(std::move(built).value());
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
        ASSERT_EQ(alone.value().mac.size(), inputs.num_zones());
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
  const FitSsrInputs inputs(testing::TinyCity());
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
