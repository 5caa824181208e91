// SSR serving (DESIGN.md §17): a cold SSR answer reads its zone feature
// matrix from a per-epoch memo on the Scenario, keyed by (category, decay
// scale). The memo is only sound because the stable α rows read neither the seed, the keep scale,
// the sample rate, β nor the model, so every memoised answer must equal
// QueryUncached — which extracts the matrix afresh from the request's own
// TODAM — across models, β, categories, seeds and keep scales; after a POI
// edit, a timetable disruption, a snapshot warm start and a replica's WAL
// replay (each new epoch builds its own matrix); and with eight first
// callers racing on one key (one build). The failpoint tests show a failed
// feature build failing its callers without poisoning the key.
#include <chrono>
#include <filesystem>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "net/replica.h"
#include "scenario/transform.h"
#include "serve/server.h"
#include "synth/city_spec.h"
#include "testing/exact_reference.h"
#include "testing/test_city.h"
#include "util/failpoint.h"
#include "wal/wal.h"

namespace staq::serve {
namespace {

namespace fs = std::filesystem;

constexpr synth::PoiCategory kCategories[] = {
    synth::PoiCategory::kSchool, synth::PoiCategory::kHospital,
    synth::PoiCategory::kVaxCenter, synth::PoiCategory::kJobCenter};

AqRequest SsrRequest(synth::PoiCategory category, uint64_t seed,
                     ml::ModelKind model = ml::ModelKind::kOls,
                     double beta = 0.2, double keep_scale = 2.0) {
  AqRequest request;
  request.category = category;
  request.options.exact = false;
  request.options.beta = beta;
  request.options.model = model;
  request.options.gravity.sample_rate_per_hour = 4;
  request.options.gravity.keep_scale = keep_scale;
  request.options.seed = seed;
  return request;
}

void ExpectSameAnswer(const core::AccessQueryResult& a,
                      const core::AccessQueryResult& b) {
  ASSERT_EQ(a.mac.size(), b.mac.size());
  for (size_t z = 0; z < a.mac.size(); ++z) {
    EXPECT_EQ(a.mac[z], b.mac[z]) << "zone " << z;
    EXPECT_EQ(a.acsd[z], b.acsd[z]) << "zone " << z;
  }
  EXPECT_EQ(a.classes, b.classes);
  EXPECT_EQ(a.mean_mac, b.mean_mac);
  EXPECT_EQ(a.mean_acsd, b.mean_acsd);
  EXPECT_EQ(a.fairness, b.fairness);
  EXPECT_EQ(a.population_fairness, b.population_fairness);
  EXPECT_EQ(a.vulnerable_fairness, b.vulnerable_fairness);
  EXPECT_EQ(a.gravity_trips, b.gravity_trips);
  EXPECT_EQ(a.spqs, b.spqs);
}

/// The served (memoised) answer to `request` equals the uncached one.
void ExpectMemoMatchesUncached(AqServer& server, const AqRequest& request) {
  auto served = server.Query(request);
  ASSERT_TRUE(served.ok()) << served.status();
  auto fresh = server.QueryUncached(request);
  ASSERT_TRUE(fresh.ok()) << fresh.status();
  ExpectSameAnswer(served.value(), fresh.value());
}

std::string TempPath(const std::string& name) {
  std::string path = ::testing::TempDir() + "staq_ssr_" + name;
  fs::remove_all(path);
  return path;
}

AqServer::Options Threads(size_t n) {
  AqServer::Options options;
  options.num_threads = n;
  return options;
}

TEST(SsrFeatureMemoTest, MemoisedAnswersMatchUncachedAcrossTheRequestSpace) {
  AqServer server(testing::TinyCity(), gtfs::WeekdayAmPeak(), Threads(2));
  // Seeds pair with keep scales, so neither axis is held fixed.
  const std::pair<uint64_t, double> seeds[] = {{1, 2.0}, {2, 6.0}, {3, 25.0}};
  for (ml::ModelKind model :
       {ml::ModelKind::kOls, ml::ModelKind::kCoreg, ml::ModelKind::kMlp}) {
    for (double beta : {0.05, 0.10}) {
      for (synth::PoiCategory category : kCategories) {
        for (const auto& [seed, keep_scale] : seeds) {
          SCOPED_TRACE(::testing::Message()
                       << ml::ModelKindName(model) << " beta " << beta
                       << " category " << static_cast<int>(category)
                       << " seed " << seed << " keep " << keep_scale);
          ExpectMemoMatchesUncached(
              server, SsrRequest(category, seed, model, beta, keep_scale));
        }
      }
    }
  }
  // One matrix per category, against 72 cold SSR answers.
  EXPECT_EQ(server.stats().ssr_feature_builds, 4u);
  EXPECT_EQ(server.stats().exact_state_builds, 0u);

  // The decay scale is part of the key: it reweights every α row.
  AqRequest wider = SsrRequest(synth::PoiCategory::kSchool, 1);
  wider.options.gravity.decay_scale_m *= 2.0;
  ExpectMemoMatchesUncached(server, wider);
  EXPECT_EQ(server.stats().ssr_feature_builds, 5u);
}

TEST(SsrFeatureMemoTest, EachNewEpochBuildsItsOwnMatrix) {
  AqServer server(testing::TinyCity(), gtfs::WeekdayAmPeak(), Threads(2));
  const AqRequest request =
      SsrRequest(synth::PoiCategory::kSchool, 3, ml::ModelKind::kMlp);
  ExpectMemoMatchesUncached(server, request);
  EXPECT_EQ(server.stats().ssr_feature_builds, 1u);

  // A school edit changes the category's POI set, so the α rows.
  auto added = server.AddPoi(synth::PoiCategory::kSchool,
                             server.base_city().Centre());
  ASSERT_TRUE(added.ok()) << added.status();
  ExpectMemoMatchesUncached(server, request);
  EXPECT_EQ(server.stats().ssr_feature_builds, 2u);

  // A timetable disruption rebuilds the hop trees the features read.
  auto thinned = server.ScaleHeadway(scenario::kAllRoutes, 2);
  ASSERT_TRUE(thinned.ok()) << thinned.status();
  ExpectMemoMatchesUncached(server, request);
  EXPECT_EQ(server.stats().ssr_feature_builds, 3u);

  // The epoch stays memoised: another seed, β and model reuse its matrix.
  ExpectMemoMatchesUncached(
      server, SsrRequest(synth::PoiCategory::kSchool, 9, ml::ModelKind::kOls,
                         0.1, 6.0));
  EXPECT_EQ(server.stats().ssr_feature_builds, 3u);
}

TEST(SsrFeatureMemoTest, WarmStartAndReplicaReplayBuildTheirOwnMatrices) {
  const std::string wal_dir = TempPath("wal");
  const std::string snapshot = TempPath("snap");
  AqServer primary(testing::TinyCity(), gtfs::WeekdayAmPeak(), Threads(2));
  auto opened = wal::MutationWal::Open(wal_dir);
  ASSERT_TRUE(opened.ok()) << opened.status();
  std::unique_ptr<wal::MutationWal> log = std::move(opened).value();
  ASSERT_TRUE(primary.AttachWal(log.get()).ok());
  const AqRequest request =
      SsrRequest(synth::PoiCategory::kSchool, 3, ml::ModelKind::kMlp);
  ExpectMemoMatchesUncached(primary, request);

  // Warm start: the snapshot carries no feature matrix.
  ASSERT_TRUE(primary.ExportSnapshot(snapshot).ok());
  AqServer::Options warm_options = Threads(2);
  warm_options.warm_start_path = snapshot;
  AqServer warm(primary.base_city(), gtfs::WeekdayAmPeak(), warm_options);
  ASSERT_TRUE(warm.warm_started());
  ExpectMemoMatchesUncached(warm, request);
  EXPECT_EQ(warm.stats().ssr_feature_builds, 1u);
  ExpectSameAnswer(warm.Query(request).value(),
                   primary.Query(request).value());

  // A replica bootstrapped from that snapshot replays a logged school edit.
  auto added = primary.AddPoi(synth::PoiCategory::kSchool,
                              primary.base_city().Centre());
  ASSERT_TRUE(added.ok()) << added.status();
  AqServer replica(primary.base_city(), gtfs::WeekdayAmPeak(), warm_options);
  ASSERT_TRUE(replica.warm_started());
  ExpectMemoMatchesUncached(replica, request);  // epoch 0, before replay
  auto replayed = net::ReplayLog(&replica, wal_dir);
  ASSERT_TRUE(replayed.ok()) << replayed;
  ASSERT_EQ(replica.sequence(), primary.sequence());
  ExpectMemoMatchesUncached(replica, request);
  EXPECT_EQ(replica.stats().ssr_feature_builds, 2u);
  ExpectSameAnswer(replica.Query(request).value(),
                   primary.Query(request).value());
  fs::remove_all(wal_dir);
  fs::remove_all(snapshot);
}

// The independent SSR reference (testing/exact_reference.h) shares no
// server code: it draws the edit-stable TODAM itself, labels its sample
// over a router of its own, fits the two targets with a serial two-model
// fit of its own (not core::FitSsr) and finalizes with the scalar
// measures. A served answer (memoised features, sample labeled through the
// serving loop) and an uncached one must both equal it bit for bit, SPQs
// included, on both city families, under JT and a non-default GAC, for
// each model, and before and after a POI addition and removal.
TEST(SsrReferenceTest, ServedAndUncachedAnswersEqualAnIndependentPipelineRun) {
  router::GacWeights wait_heavy;
  wait_heavy.lambda_wt = 3.5;
  wait_heavy.transfer_penalty_s = 300;
  for (bool brindale : {true, false}) {
    SCOPED_TRACE(brindale ? "brindale" : "covely");
    synth::CitySpec spec = brindale ? synth::CitySpec::Brindale(0.03, 21)
                                    : synth::CitySpec::Covely(0.04, 22);
    auto city = synth::BuildCity(spec);
    ASSERT_TRUE(city.ok()) << city.status();
    AqServer server(std::move(city).value(), gtfs::WeekdayAmPeak(),
                    Threads(2));
    testing::ExactReference reference(&server.base_city(),
                                      gtfs::WeekdayAmPeak());
    const synth::PoiCategory category = synth::PoiCategory::kSchool;
    const std::vector<synth::Poi> schools =
        server.base_city().PoisOf(category);
    ASSERT_FALSE(schools.empty());

    const char* const kEpochs[] = {"base city", "after AddPoi",
                                   "after RemovePoi"};
    for (int step = 0; step < 3; ++step) {
      SCOPED_TRACE(kEpochs[step]);
      if (step == 1) {
        const geo::Point site = server.base_city().zones[0].centroid;
        auto added = server.AddPoi(category, site);
        ASSERT_TRUE(added.ok()) << added.status();
        reference.AddPoi(synth::Poi{added.value().poi_id, category, site});
      } else if (step == 2) {
        ASSERT_TRUE(server.RemovePoi(schools.front().id).ok());
        reference.RemovePoi(schools.front().id);
      }
      uint64_t seed = 1;
      for (bool gac : {false, true}) {
        for (ml::ModelKind model : {ml::ModelKind::kOls, ml::ModelKind::kMlp,
                                    ml::ModelKind::kCoreg}) {
          SCOPED_TRACE(::testing::Message()
                       << (gac ? "GAC " : "JT ") << ml::ModelKindName(model));
          AqRequest request = SsrRequest(category, seed++, model, 0.2);
          if (gac) {
            request.options.cost = core::CostKind::kGeneralizedCost;
            request.options.gac = wait_heavy;
          }
          auto expected = reference.QuerySsr(category, request.options);
          ASSERT_TRUE(expected.ok()) << expected.status();
          EXPECT_GT(expected.value().spqs, 0u);
          auto served = server.Query(request);
          ASSERT_TRUE(served.ok()) << served.status();
          ExpectSameAnswer(served.value(), expected.value());
          auto uncached = server.QueryUncached(request);
          ASSERT_TRUE(uncached.ok()) << uncached.status();
          ExpectSameAnswer(uncached.value(), expected.value());
        }
      }
    }
  }
}

// The paper benches and the server answer SSR queries one way:
// Scenario::AnswerSsr over a request's edit-stable TODAM, run through a
// SerialZoneLoop of its own (as the benches run it, over their own TODAM),
// equals the server's uncached answer bit for bit — MAC, ACSD and SPQs —
// on both city families, for OLS, COREG and MLP, under JT and GAC.
TEST(AnswerSsrTest, SerialLoopRunEqualsQueryUncached) {
  for (bool brindale : {true, false}) {
    SCOPED_TRACE(brindale ? "brindale" : "covely");
    synth::CitySpec spec = brindale ? synth::CitySpec::Brindale(0.03, 21)
                                    : synth::CitySpec::Covely(0.04, 22);
    auto city = synth::BuildCity(spec);
    ASSERT_TRUE(city.ok()) << city.status();
    AqServer server(std::move(city).value(), gtfs::WeekdayAmPeak(),
                    Threads(2));
    const std::shared_ptr<const Scenario> scenario = server.Snapshot();
    SerialZoneLoop loop;
    uint64_t seed = 1;
    for (bool gac : {false, true}) {
      for (ml::ModelKind model : {ml::ModelKind::kOls, ml::ModelKind::kCoreg,
                                  ml::ModelKind::kMlp}) {
        SCOPED_TRACE(::testing::Message()
                     << (gac ? "GAC " : "JT ") << ml::ModelKindName(model));
        AqRequest request =
            SsrRequest(synth::PoiCategory::kSchool, seed++, model, 0.1);
        if (gac) request.options.cost = core::CostKind::kGeneralizedCost;
        core::PipelineConfig config;
        config.beta = request.options.beta;
        config.model = request.options.model;
        config.cost = request.options.cost;
        config.gac = request.options.gac;
        config.seed = request.options.seed;
        const core::Todam todam = scenario->StableTodam(
            LabelKeyFor(request), scenario->PoisOf(request.category));
        auto run = scenario->AnswerSsr(loop, request.category, todam, config,
                                       /*features=*/nullptr,
                                       /*fit_helpers=*/nullptr);
        ASSERT_TRUE(run.ok()) << run.status();
        auto uncached = server.QueryUncached(request);
        ASSERT_TRUE(uncached.ok()) << uncached.status();
        EXPECT_GT(run.value().spqs, 0u);
        EXPECT_EQ(run.value().spqs, uncached.value().spqs);
        ASSERT_EQ(run.value().mac.size(), uncached.value().mac.size());
        for (size_t z = 0; z < run.value().mac.size(); ++z) {
          EXPECT_EQ(run.value().mac[z], uncached.value().mac[z])
              << "zone " << z;
          EXPECT_EQ(run.value().acsd[z], uncached.value().acsd[z])
              << "zone " << z;
        }
      }
    }
  }
}

#if defined(STAQ_FAILPOINTS) && STAQ_FAILPOINTS

using util::FailPointConfig;
using util::FailPoints;

constexpr char kBuildSite[] = "serve.scenario.build_zone_features";

template <typename Pred>
void WaitFor(Pred done) {
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(30);
  while (!done()) {
    ASSERT_LT(std::chrono::steady_clock::now(), deadline) << "timed out";
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
}

class SsrFeatureFaultTest : public ::testing::Test {
 protected:
  ~SsrFeatureFaultTest() override { FailPoints::DisarmAll(); }
};

TEST_F(SsrFeatureFaultTest, EightConcurrentFirstCallersShareOneBuild) {
  AqServer server(testing::TinyCity(), gtfs::WeekdayAmPeak(), Threads(8));
  // Park the first caller inside the build until all eight requests (eight
  // seeds, so eight result-cache misses) have passed the cache probe.
  FailPoints::Arm(kBuildSite, FailPointConfig::Block());
  std::vector<AqRequest> requests;
  std::vector<AqTicket> tickets;
  for (uint64_t seed = 1; seed <= 8; ++seed) {
    requests.push_back(SsrRequest(synth::PoiCategory::kSchool, seed));
    tickets.push_back(server.Submit(requests.back()));
  }
  WaitFor([] { return FailPoints::BlockedCount(kBuildSite) == 1; });
  WaitFor([&] { return server.stats().cache_misses == 8; });
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  FailPoints::Disarm(kBuildSite);

  for (size_t i = 0; i < tickets.size(); ++i) {
    auto served = tickets[i].Get();
    ASSERT_TRUE(served.ok()) << served.status();
    auto fresh = server.QueryUncached(requests[i]);
    ASSERT_TRUE(fresh.ok()) << fresh.status();
    ExpectSameAnswer(served.value(), fresh.value());
  }
  EXPECT_EQ(server.stats().ssr_feature_builds, 1u);
  EXPECT_EQ(FailPoints::TripCount(kBuildSite), 1u);
}

TEST_F(SsrFeatureFaultTest, FailedBuildFailsEveryCallerAndLeavesTheKeyUsable) {
  AqServer server(testing::TinyCity(), gtfs::WeekdayAmPeak(), Threads(8));
  // Every build attempt throws, so each of the eight callers fails whether
  // it waited on a failed build or started one after the key was dropped.
  FailPoints::Arm(kBuildSite, FailPointConfig::Throw("simulated OOM"));
  std::vector<AqTicket> tickets;
  for (uint64_t seed = 1; seed <= 8; ++seed) {
    tickets.push_back(
        server.Submit(SsrRequest(synth::PoiCategory::kSchool, seed)));
  }
  for (AqTicket& ticket : tickets) {
    auto result = ticket.Get();  // resolves: a failed build hangs no waiter
    ASSERT_FALSE(result.ok());
    EXPECT_EQ(result.status().code(), util::StatusCode::kInternal);
  }
  EXPECT_EQ(server.stats().ssr_feature_builds, 0u);
  EXPECT_EQ(server.stats().failed, 8u);
  EXPECT_LE(FailPoints::TripCount(kBuildSite), 8u);

  // The key is not poisoned: the next caller builds it and answers.
  FailPoints::Disarm(kBuildSite);
  ExpectMemoMatchesUncached(server, SsrRequest(synth::PoiCategory::kSchool, 1));
  EXPECT_EQ(server.stats().ssr_feature_builds, 1u);
}

#endif  // STAQ_FAILPOINTS

}  // namespace
}  // namespace staq::serve
