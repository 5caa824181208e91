// Helped zone loops (DESIGN.md §16): cold label-state builds, every
// mutation's patch and batch captures label zones on the owning thread plus
// idle-priority helpers leasing the server's contexts. Every zone is
// labeled independently, so the answers must be bit-identical to the
// serial path whatever the split — checked here across worker-pool sizes
// {1, 2, 4, 8}, perturbed pools, both city families and all five
// disruption kinds. The rest pins the helpers' contracts: they stay out of
// admission, shedding and the stats; the owning thread finishes a loop
// while a helper is parked on a zone; a server can die with stale helpers
// still queued (run under STAQ_ASAN via the `faultinjection` label); a
// helper fault degrades into a clean kInternal with the epoch intact; a
// helper parked while taking or returning its context holds up no
// request; and an SSR answer holds no context while it fits. An SSR
// answer's two target fits split over one idle-priority helper the same
// way: the owning thread takes over a parked fit helper's target, and a
// throwing one fails that answer alone.
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <future>
#include <mutex>
#include <ostream>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "scenario/transform.h"
#include "serve/server.h"
#include "testing/label_state.h"
#include "testing/test_city.h"
#include "util/failpoint.h"
#include "util/thread_pool.h"

namespace staq::serve {
namespace {

AqRequest ExactRequest(synth::PoiCategory category, uint64_t seed,
                       core::CostKind cost = core::CostKind::kJourneyTime) {
  AqRequest request;
  request.category = category;
  request.options.exact = true;
  request.options.cost = cost;
  request.options.gravity.sample_rate_per_hour = 4;
  request.options.gravity.keep_scale = 2.0;
  request.options.seed = seed;
  return request;
}

AqRequest SsrRequest() {
  AqRequest request = ExactRequest(synth::PoiCategory::kSchool, 3);
  request.options.exact = false;
  request.options.beta = 0.2;
  request.options.model = ml::ModelKind::kOls;
  return request;
}

void ExpectSameAnswer(const core::AccessQueryResult& a,
                      const core::AccessQueryResult& b) {
  ASSERT_EQ(a.mac.size(), b.mac.size());
  for (size_t z = 0; z < a.mac.size(); ++z) {
    EXPECT_EQ(a.mac[z], b.mac[z]) << "zone " << z;
    EXPECT_EQ(a.acsd[z], b.acsd[z]) << "zone " << z;
  }
  EXPECT_EQ(a.mean_mac, b.mean_mac);
  EXPECT_EQ(a.mean_acsd, b.mean_acsd);
  EXPECT_EQ(a.gravity_trips, b.gravity_trips);
  EXPECT_EQ(a.spqs, b.spqs);
}

/// The helped answer to `request` equals the serial, uncached one.
void ExpectHelpedMatchesSerial(AqServer& server, const AqRequest& request) {
  auto helped = server.Query(request);
  ASSERT_TRUE(helped.ok()) << helped.status();
  auto serial = server.QueryUncached(request);
  ASSERT_TRUE(serial.ok()) << serial.status();
  ExpectSameAnswer(helped.value(), serial.value());
}

/// Every label state the current epoch holds — built by helped loops or
/// patched by them — equals a serial from-scratch build over the epoch's
/// own network.
void ExpectEpochMatchesSerialRebuild(const AqServer& server) {
  auto scenario = server.Snapshot();
  router::Router router(&scenario->base_city().feed,
                        scenario->router_options());
  core::LabelingEngine engine(&scenario->base_city(), &router);
  SerialZoneLoop loop(engine);
  auto states = scenario->MaterializedStates();
  ASSERT_FALSE(states.empty());
  for (const auto& [key, state] : states) {
    auto serial = scenario->BuildLabelState(key, loop);
    testing::ExpectStatesIdentical(*state, *serial);
  }
}

synth::City BrindaleCity() {
  auto city = synth::BuildCity(synth::CitySpec::Brindale(0.05, 7));
  if (!city.ok()) std::abort();
  return std::move(city).value();
}

struct HelpedCase {
  bool brindale = false;
  size_t threads = 1;
  bool perturbed = false;
};

std::ostream& operator<<(std::ostream& os, const HelpedCase& c) {
  return os << (c.brindale ? "brindale" : "covely") << "_" << c.threads
            << (c.perturbed ? "_perturbed" : "");
}

class HelpedLabelingTest : public ::testing::TestWithParam<HelpedCase> {};

TEST_P(HelpedLabelingTest, BuildsPatchesAndCapturesMatchTheSerialPath) {
  const HelpedCase& c = GetParam();
  AqServer::Options options;
  options.num_threads = c.threads;
  if (c.perturbed) {
    options.perturb = util::ThreadPool::PerturbOptions{
        .seed = c.threads, .max_delay_us = 100, .reorder = true};
  }
  AqServer server(c.brindale ? BrindaleCity() : testing::TinyCity(),
                  gtfs::WeekdayAmPeak(), options);

  // Cold builds of a JT and a GAC state.
  ExpectHelpedMatchesSerial(
      server, ExactRequest(synth::PoiCategory::kSchool, 3));
  ExpectHelpedMatchesSerial(
      server, ExactRequest(synth::PoiCategory::kSchool, 3,
                           core::CostKind::kGeneralizedCost));

  // A batch capture: every derived member equals its serial single query.
  router::GacWeights wait_heavy;
  wait_heavy.lambda_wt = 3.5;
  AqBatchRequest batch;
  batch.request = ExactRequest(synth::PoiCategory::kVaxCenter, 5);
  batch.cost_members = {
      core::CostMember{core::CostKind::kJourneyTime, router::GacWeights{}},
      core::CostMember{core::CostKind::kGeneralizedCost, wait_heavy}};
  const std::vector<AqRequest> derived = ExpandBatch(batch);
  auto answers = server.QueryBatch(batch);
  ASSERT_EQ(answers.size(), derived.size());
  for (size_t i = 0; i < derived.size(); ++i) {
    ASSERT_TRUE(answers[i].ok()) << answers[i].status();
    auto serial = server.QueryUncached(derived[i]);
    ASSERT_TRUE(serial.ok()) << serial.status();
    ExpectSameAnswer(answers[i].value(), serial.value());
  }

  // Patches: a POI edit pair, then all five disruption kinds chained.
  const geo::Point centre = server.base_city().Centre();
  {
    SCOPED_TRACE("add_poi");
    auto report = server.AddPoi(synth::PoiCategory::kSchool, centre);
    ASSERT_TRUE(report.ok()) << report.status();
    EXPECT_GT(report.value().zones_relabeled, 0u);
    ExpectEpochMatchesSerialRebuild(server);
    SCOPED_TRACE("remove_poi");
    ASSERT_TRUE(server.RemovePoi(report.value().poi_id).ok());
    ExpectEpochMatchesSerialRebuild(server);
  }
  {
    SCOPED_TRACE("suspend_route");
    ASSERT_TRUE(server.SuspendRoute(0).ok());
    ExpectEpochMatchesSerialRebuild(server);
  }
  {
    SCOPED_TRACE("close_stop");
    ASSERT_TRUE(server
                    .CloseStop(testing::StopServedOutsideRoute(
                        server.Snapshot()->base_city().feed, 0))
                    .ok());
    ExpectEpochMatchesSerialRebuild(server);
  }
  {
    SCOPED_TRACE("scale_headway");
    ASSERT_TRUE(server.ScaleHeadway(scenario::kAllRoutes, 2).ok());
    ExpectEpochMatchesSerialRebuild(server);
  }
  {
    SCOPED_TRACE("set_fare");
    ASSERT_TRUE(server.SetFare(scenario::kAllRoutes, 4.25).ok());
    ExpectEpochMatchesSerialRebuild(server);
  }
  {
    SCOPED_TRACE("scale_walk_speed");
    ASSERT_TRUE(server.ScaleWalkSpeed(0.5).ok());
    ExpectEpochMatchesSerialRebuild(server);
  }
  // A cold build on the final disrupted network.
  ExpectHelpedMatchesSerial(
      server, ExactRequest(synth::PoiCategory::kHospital, 9));
}

INSTANTIATE_TEST_SUITE_P(
    Pools, HelpedLabelingTest,
    ::testing::Values(HelpedCase{false, 1}, HelpedCase{false, 2},
                      HelpedCase{false, 4}, HelpedCase{false, 8},
                      HelpedCase{false, 4, true}, HelpedCase{true, 1},
                      HelpedCase{true, 2}, HelpedCase{true, 4},
                      HelpedCase{true, 8}, HelpedCase{true, 8, true}),
    [](const ::testing::TestParamInfo<HelpedCase>& info) {
      std::ostringstream name;
      name << info.param;
      return name.str();
    });

/// Parks every worker of the idle pool until Release(), so helper tasks
/// submitted meanwhile stay queued.
class IdlePoolBlocker {
 public:
  IdlePoolBlocker() : pool_(util::ThreadPool::Idle()) {
    for (size_t i = 0; i < pool_.num_threads(); ++i) {
      pool_.SubmitHandle([this] {
        std::unique_lock<std::mutex> lock(mu_);
        ++parked_;
        cv_.notify_all();
        cv_.wait(lock, [this] { return released_; });
      });
    }
    std::unique_lock<std::mutex> lock(mu_);
    cv_.wait(lock, [this] { return parked_ == pool_.num_threads(); });
  }
  ~IdlePoolBlocker() { Release(); }

  void Release() {
    std::lock_guard<std::mutex> lock(mu_);
    released_ = true;
    cv_.notify_all();
  }

 private:
  util::ThreadPool& pool_;
  std::mutex mu_;
  std::condition_variable cv_;
  size_t parked_ = 0;
  bool released_ = false;
};

/// Returns once every task queued on the idle pool before the call has
/// finished: one rendezvous task per worker can only all be running once
/// each worker is done with everything ahead of them.
void DrainIdlePool() {
  util::ThreadPool& pool = util::ThreadPool::Idle();
  std::mutex mu;
  std::condition_variable cv;
  size_t arrived = 0;
  std::vector<util::TaskHandle> done;
  for (size_t i = 0; i < pool.num_threads(); ++i) {
    done.push_back(pool.SubmitHandle([&] {
      std::unique_lock<std::mutex> lock(mu);
      ++arrived;
      cv.notify_all();
      cv.wait(lock, [&] { return arrived == pool.num_threads(); });
    }));
  }
  for (util::TaskHandle& handle : done) handle.Wait();
}

TEST(HelperLifetimeTest, ServerDiesWhileStaleHelpersAreStillQueued) {
  IdlePoolBlocker blocker;
  {
    AqServer::Options options;
    options.num_threads = 4;
    AqServer server(testing::TinyCity(), gtfs::WeekdayAmPeak(), options);
    // No helper can start: the owning threads label every zone alone and
    // leave their helpers queued behind the blocker.
    ExpectHelpedMatchesSerial(server,
                              ExactRequest(synth::PoiCategory::kSchool, 3));
    auto report =
        server.AddPoi(synth::PoiCategory::kSchool, server.base_city().Centre());
    ASSERT_TRUE(report.ok()) << report.status();
    ExpectEpochMatchesSerialRebuild(server);
  }  // the server is gone; its stale helpers are still queued
  blocker.Release();
  // The stale helpers run now and must return without touching the dead
  // server (a use-after-free under STAQ_ASAN otherwise).
  DrainIdlePool();
}

#if defined(STAQ_FAILPOINTS) && STAQ_FAILPOINTS

using util::FailPointConfig;
using util::FailPoints;

/// Polls until `done` holds (fails the test after a generous timeout).
template <typename Pred>
void WaitFor(Pred done) {
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(30);
  while (!done()) {
    ASSERT_LT(std::chrono::steady_clock::now(), deadline) << "timed out";
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
}

class HelperFaultTest : public ::testing::Test {
 protected:
  HelperFaultTest() {
    AqServer::Options options;
    options.num_threads = 4;
    options.max_pending = 1;
    // A budget any queued task would blow: helpers must not count as one.
    options.max_queue_delay_s = 1e-9;
    server_ = std::make_unique<AqServer>(testing::TinyCity(),
                                         gtfs::WeekdayAmPeak(), options);
  }
  ~HelperFaultTest() override { FailPoints::DisarmAll(); }

  /// Parks the owning thread on its second zone until a helper has reached
  /// the helper site, so the loop provably has a helper in it.
  void ParkCallerUntilAHelperArrives() {
    FailPointConfig park = FailPointConfig::Block();
    park.skip = 1;
    FailPoints::Arm("serve.zone_loop.caller", park);
  }

  std::unique_ptr<AqServer> server_;
};

TEST_F(HelperFaultTest, CallerFinishesWhileAHelperIsParkedOnAZone) {
  FailPoints::Arm("serve.zone_loop.helper", FailPointConfig::Block());
  ParkCallerUntilAHelperArrives();
  const AqRequest request = ExactRequest(synth::PoiCategory::kSchool, 5);
  AqTicket ticket = server_->Submit(request);
  WaitFor([] { return FailPoints::BlockedCount("serve.zone_loop.helper") >= 1; });
  FailPoints::Disarm("serve.zone_loop.caller");

  // The owning thread labels the rest and takes over the parked helpers'
  // zones: the build completes while every helper that joined is still
  // parked, each on the one zone it claimed (at most one helper per spare
  // context).
  auto helped = ticket.Get();
  ASSERT_TRUE(helped.ok()) << helped.status();
  EXPECT_GE(FailPoints::BlockedCount("serve.zone_loop.helper"), 1u);
  // A parked helper never claims a second zone: trips stay within one per
  // helper the server had contexts for.
  EXPECT_LE(FailPoints::TripCount("serve.zone_loop.helper"),
            server_->num_threads() - 1);
  auto serial = server_->QueryUncached(request);
  ASSERT_TRUE(serial.ok());
  ExpectSameAnswer(helped.value(), serial.value());

  // Released, the stragglers find their zones published and leave.
  FailPoints::Disarm("serve.zone_loop.helper");
  ExpectHelpedMatchesSerial(*server_,
                            ExactRequest(synth::PoiCategory::kSchool, 6));
}

TEST_F(HelperFaultTest, HelpersStayOutOfAdmissionSheddingAndStats) {
  ASSERT_TRUE(server_->Query(SsrRequest()).ok());  // service EWMA > 0
  FailPoints::Arm("serve.zone_loop.helper", FailPointConfig::Block());
  ParkCallerUntilAHelperArrives();
  AqTicket cold = server_->Submit(ExactRequest(synth::PoiCategory::kSchool, 5));
  WaitFor([] { return FailPoints::BlockedCount("serve.zone_loop.helper") >= 1; });

  // Helpers are parked mid-loop on the idle pool, not queued on the
  // server's: with max_pending 1 and a near-zero delay budget, a new
  // request is still admitted, neither rejected nor shed.
  auto ssr = server_->Query(SsrRequest());
  ASSERT_TRUE(ssr.ok()) << ssr.status();
  ServerStats stats = server_->stats();
  EXPECT_EQ(stats.submitted, 3u);
  EXPECT_EQ(stats.completed, 2u);
  EXPECT_EQ(stats.rejected, 0u);
  EXPECT_EQ(stats.shed, 0u);

  FailPoints::Disarm("serve.zone_loop.caller");
  FailPoints::Disarm("serve.zone_loop.helper");
  ASSERT_TRUE(cold.Get().ok());
  stats = server_->stats();
  EXPECT_EQ(stats.submitted, 3u);
  EXPECT_EQ(stats.completed, 3u);
  EXPECT_EQ(stats.failed, 0u);
}

TEST_F(HelperFaultTest, HelperFaultFailsTheBuildCleanly) {
  FailPoints::Arm("serve.zone_loop.helper", FailPointConfig::Throw());
  ParkCallerUntilAHelperArrives();
  const AqRequest request = ExactRequest(synth::PoiCategory::kSchool, 5);
  AqTicket ticket = server_->Submit(request);
  WaitFor([] { return FailPoints::TripCount("serve.zone_loop.helper") >= 1; });
  FailPoints::Disarm("serve.zone_loop.caller");
  auto failed = ticket.Get();
  ASSERT_FALSE(failed.ok());
  EXPECT_EQ(failed.status().code(), util::StatusCode::kInternal);

  // The memo entry is not poisoned: the retry builds cleanly.
  FailPoints::Disarm("serve.zone_loop.helper");
  ExpectHelpedMatchesSerial(*server_, request);
}

TEST_F(HelperFaultTest, HelperFaultRollsThePatchBack) {
  const AqRequest request = ExactRequest(synth::PoiCategory::kSchool, 5);
  auto before = server_->Query(request);  // materialise the state
  ASSERT_TRUE(before.ok());
  const uint64_t epoch = server_->epoch();

  FailPoints::Arm("serve.zone_loop.helper", FailPointConfig::Throw());
  ParkCallerUntilAHelperArrives();
  util::Result<ScenarioStore::MutationReport> report =
      util::Status::Internal("not run");
  std::thread mutator([&] {
    report = server_->AddPoi(synth::PoiCategory::kSchool,
                             server_->base_city().Centre());
  });
  WaitFor([] { return FailPoints::TripCount("serve.zone_loop.helper") >= 1; });
  FailPoints::Disarm("serve.zone_loop.caller");
  mutator.join();
  ASSERT_FALSE(report.ok());
  EXPECT_EQ(report.status().code(), util::StatusCode::kInternal);

  // The previous epoch keeps serving with its state intact.
  EXPECT_EQ(server_->epoch(), epoch);
  auto after = server_->Query(request);
  ASSERT_TRUE(after.ok());
  ExpectSameAnswer(after.value(), before.value());
  FailPoints::Disarm("serve.zone_loop.helper");
  ASSERT_TRUE(server_
                  ->AddPoi(synth::PoiCategory::kSchool,
                           server_->base_city().Centre())
                  .ok());
  ExpectEpochMatchesSerialRebuild(*server_);
}

/// An MLP SSR request: its two target fits take long enough that the
/// fit's helper has time to join.
AqRequest MlpSsrRequest(uint64_t seed) {
  AqRequest request = SsrRequest();
  request.options.model = ml::ModelKind::kMlp;
  request.options.seed = seed;
  return request;
}

/// Submits MLP SSR requests (seeds from 5, at most three) until one's fit
/// helper reaches `helper_event`: the owning thread waits on its own target
/// meanwhile, so the fit provably has a helper in it. A fit whose helper
/// was never submitted (the idle pool's lock was busy) proves nothing, so
/// the next request gets the chance. Returns each request's answer; the
/// last one is the helped fit's.
template <typename Pred>
std::vector<std::pair<AqRequest, util::Result<core::AccessQueryResult>>>
SubmitUntilAFitHelperArrives(AqServer& server, Pred helper_event) {
  std::vector<std::pair<AqRequest, util::Result<core::AccessQueryResult>>>
      answers;
  for (uint64_t seed = 5; seed < 8; ++seed) {
    FailPointConfig park_caller = FailPointConfig::Block();
    park_caller.limit = 1;
    FailPoints::Arm("core.fit_ssr.target", park_caller);
    const AqRequest request = MlpSsrRequest(seed);
    AqTicket ticket = server.Submit(request);
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(10);
    bool arrived = false;
    while (!(arrived = helper_event()) &&
           std::chrono::steady_clock::now() < deadline) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    FailPoints::Disarm("core.fit_ssr.target");
    answers.emplace_back(request, ticket.Get());
    if (arrived) break;
  }
  return answers;
}

TEST_F(HelperFaultTest, CallerFitsTheTargetOfAParkedFitHelper) {
  FailPoints::Arm("core.fit_ssr.helper", FailPointConfig::Block());
  auto answers = SubmitUntilAFitHelperArrives(*server_, [] {
    return FailPoints::BlockedCount("core.fit_ssr.helper") >= 1;
  });
  // The owning thread fitted its target, waited out the grace and fitted
  // the parked helper's target itself: the answer is complete while the
  // helper is still parked.
  EXPECT_GE(FailPoints::BlockedCount("core.fit_ssr.helper"), 1u)
      << "no fit got a helper";
  for (auto& [request, answer] : answers) {
    ASSERT_TRUE(answer.ok()) << answer.status();
    auto serial = server_->QueryUncached(request);
    ASSERT_TRUE(serial.ok()) << serial.status();
    ExpectSameAnswer(answer.value(), serial.value());
  }
  // Released, the straggler finds its target stored and drops its fit.
  FailPoints::Disarm("core.fit_ssr.helper");
  ExpectHelpedMatchesSerial(*server_, MlpSsrRequest(9));
}

TEST_F(HelperFaultTest, FitHelperFaultFailsOneAnswerCleanly) {
  FailPoints::Arm("core.fit_ssr.helper", FailPointConfig::Throw());
  auto answers = SubmitUntilAFitHelperArrives(*server_, [] {
    return FailPoints::TripCount("core.fit_ssr.helper") >= 1;
  });
  ASSERT_GE(FailPoints::TripCount("core.fit_ssr.helper"), 1u)
      << "no fit got a helper";
  // Only the answer whose helper threw fails, with a status.
  for (size_t i = 0; i + 1 < answers.size(); ++i) {
    EXPECT_TRUE(answers[i].second.ok()) << answers[i].second.status();
  }
  const auto& [request, failed] = answers.back();
  ASSERT_FALSE(failed.ok());
  EXPECT_EQ(failed.status().code(), util::StatusCode::kInternal);

  // The server stays usable: the same request then succeeds, and equals
  // the uncached answer.
  FailPoints::Disarm("core.fit_ssr.helper");
  ExpectHelpedMatchesSerial(*server_, request);
  EXPECT_EQ(server_->stats().failed, 1u);
}

TEST(HelperParkingTest, NoRequestWaitsOnAHelperParkedInItsLeaseOrRelease) {
  // Helpers run at idle priority: a loaded machine can preempt one for a
  // long time anywhere, including while it takes or returns its context.
  // Parked there, it must hold nothing a normal-priority thread waits for:
  // cache hits, SSR answers (which lease a context) and further cold
  // builds all complete while it stays parked.
  for (const char* site :
       {"serve.zone_loop.helper_lease", "serve.zone_loop.helper_release"}) {
    SCOPED_TRACE(site);
    AqServer::Options options;
    options.num_threads = 4;
    AqServer server(testing::TinyCity(), gtfs::WeekdayAmPeak(), options);
    const AqRequest warm = ExactRequest(synth::PoiCategory::kSchool, 3);
    ASSERT_TRUE(server.Query(warm).ok());  // now a cache hit

    FailPoints::Arm(site, FailPointConfig::Block());
    // The owning thread waits on its second zone until a helper is
    // parked, so the loop provably has one.
    FailPointConfig park_caller = FailPointConfig::Block();
    park_caller.skip = 1;
    FailPoints::Arm("serve.zone_loop.caller", park_caller);
    AqTicket cold =
        server.Submit(ExactRequest(synth::PoiCategory::kSchool, 5));
    WaitFor([&] { return FailPoints::BlockedCount(site) >= 1; });
    FailPoints::Disarm("serve.zone_loop.caller");

    auto others = std::async(std::launch::async, [&] {
      EXPECT_TRUE(server.Query(warm).ok());
      EXPECT_TRUE(server.Query(SsrRequest()).ok());
      EXPECT_TRUE(
          server.Query(ExactRequest(synth::PoiCategory::kSchool, 6)).ok());
    });
    auto helped = std::async(std::launch::async, [&] { return cold.Get(); });
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(20);
    EXPECT_EQ(others.wait_until(deadline), std::future_status::ready)
        << "a request waited on the parked helper";
    EXPECT_EQ(helped.wait_until(deadline), std::future_status::ready)
        << "the helped build waited on its parked helper";
    EXPECT_GE(FailPoints::BlockedCount(site), 1u);

    FailPoints::Disarm(site);  // stragglers drop their contexts and leave
    others.get();
    auto cold_answer = helped.get();
    EXPECT_TRUE(cold_answer.ok()) << cold_answer.status();
    ExpectHelpedMatchesSerial(server,
                              ExactRequest(synth::PoiCategory::kSchool, 7));
  }
}

TEST(SsrContextLeaseTest, AnSsrFitLeavesItsContextToABuildsHelper) {
  // A request leases a context only while it labels (DESIGN.md §16.4). On
  // a 2-worker server the cap is two contexts: an MLP answer parked
  // between labeling and fit must already have returned its own, so a cold
  // build running meanwhile takes one as its owner and its loop's helper
  // leases the other.
  AqServer::Options options;
  options.num_threads = 2;
  AqServer server(testing::TinyCity(), gtfs::WeekdayAmPeak(), options);
  // The first helped loop starts the idle pool.
  ASSERT_TRUE(server.Query(ExactRequest(synth::PoiCategory::kSchool, 4)).ok());
  AqRequest ssr = SsrRequest();
  ssr.options.model = ml::ModelKind::kMlp;

  FailPoints::Arm("serve.ssr.fit", FailPointConfig::Block());
  AqTicket parked = server.Submit(ssr);
  WaitFor([] { return FailPoints::BlockedCount("serve.ssr.fit") >= 1; });

  // Each build's owner waits on its second zone until a helper has labeled
  // one, which a helper does only with a leased context. A loop whose
  // helper was never submitted (the idle pool's lock was busy) proves
  // nothing, so up to three builds get the chance.
  bool helped = false;
  for (uint64_t seed = 5; seed < 8 && !helped; ++seed) {
    const uint64_t helper_zones =
        FailPoints::HitCount("serve.zone_loop.helper");
    FailPointConfig park_caller = FailPointConfig::Block();
    park_caller.skip = 1;
    FailPoints::Arm("serve.zone_loop.caller", park_caller);
    const AqRequest exact = ExactRequest(synth::PoiCategory::kSchool, seed);
    AqTicket cold = server.Submit(exact);
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(10);
    while (!helped && std::chrono::steady_clock::now() < deadline) {
      helped = FailPoints::HitCount("serve.zone_loop.helper") > helper_zones;
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    EXPECT_EQ(FailPoints::BlockedCount("serve.ssr.fit"), 1u);
    FailPoints::Disarm("serve.zone_loop.caller");

    auto cold_answer = cold.Get();
    ASSERT_TRUE(cold_answer.ok()) << cold_answer.status();
    auto cold_serial = server.QueryUncached(exact);
    ASSERT_TRUE(cold_serial.ok());
    ExpectSameAnswer(cold_answer.value(), cold_serial.value());
  }
  EXPECT_TRUE(helped) << "no cold build got a helper context";

  FailPoints::Disarm("serve.ssr.fit");
  auto ssr_answer = parked.Get();
  ASSERT_TRUE(ssr_answer.ok()) << ssr_answer.status();
  auto ssr_serial = server.QueryUncached(ssr);
  ASSERT_TRUE(ssr_serial.ok());
  ExpectSameAnswer(ssr_answer.value(), ssr_serial.value());
}

#endif  // STAQ_FAILPOINTS

}  // namespace
}  // namespace staq::serve
