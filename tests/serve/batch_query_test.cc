// Batch (vector) query tier of AqServer: SubmitBatch/QueryBatch share one
// labeling pass per exact (category, seed) group and must stay bit-identical
// to the single-request path, fill the result cache for every derived
// single-query key, and degrade into kUnavailable shedding under overload.
#include <atomic>
#include <cstdio>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "serve/server.h"
#include "testing/test_city.h"

namespace staq::serve {
namespace {

AqRequest ExactTemplate() {
  AqRequest request;
  request.category = synth::PoiCategory::kSchool;
  request.options.exact = true;
  request.options.gravity.sample_rate_per_hour = 4;
  request.options.gravity.keep_scale = 2.0;
  request.options.seed = 3;
  return request;
}

router::GacWeights WaitHeavyGac() {
  router::GacWeights gac;
  gac.lambda_wt = 3.5;
  gac.transfer_penalty_s = 300.0;
  return gac;
}

/// The three-member cost sweep used throughout: journey time, default GAC,
/// and a wait-heavy GAC variant.
std::vector<core::CostMember> SweepMembers() {
  return {
      core::CostMember{core::CostKind::kJourneyTime, router::GacWeights{}},
      core::CostMember{core::CostKind::kGeneralizedCost, router::GacWeights{}},
      core::CostMember{core::CostKind::kGeneralizedCost, WaitHeavyGac()},
  };
}

/// Full bitwise payload equality, including the accounting the batch path
/// promises to reproduce: each member reports the SPQs of the full pass it
/// would have paid alone.
void ExpectBitIdentical(const core::AccessQueryResult& a,
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

class BatchQueryTest : public ::testing::Test {
 protected:
  BatchQueryTest() {
    AqServer::Options options;
    options.num_threads = 4;
    server_ = std::make_unique<AqServer>(testing::TinyCity(),
                                         gtfs::WeekdayAmPeak(), options);
  }

  std::unique_ptr<AqServer> server_;
};

TEST_F(BatchQueryTest, ExactBatchBitIdenticalToSingleQueriesInBatchOrder) {
  AqBatchRequest batch;
  batch.request = ExactTemplate();
  batch.categories = {synth::PoiCategory::kSchool,
                      synth::PoiCategory::kHospital};
  batch.seeds = {3, 9};
  batch.cost_members = SweepMembers();

  std::vector<AqRequest> derived = ExpandBatch(batch);
  ASSERT_EQ(derived.size(), 2u * 2u * 3u);

  auto results = server_->QueryBatch(batch);
  ASSERT_EQ(results.size(), derived.size());

  for (size_t i = 0; i < derived.size(); ++i) {
    ASSERT_TRUE(results[i].ok()) << "member " << i << ": "
                                 << results[i].status();
    auto golden = server_->QueryUncached(derived[i]);
    ASSERT_TRUE(golden.ok()) << golden.status();
    ExpectBitIdentical(results[i].value(), golden.value());
  }
}

TEST_F(BatchQueryTest, EmptyAxesCollapseToTheTemplate) {
  AqBatchRequest batch;
  batch.request = ExactTemplate();

  auto results = server_->QueryBatch(batch);
  ASSERT_EQ(results.size(), 1u);
  ASSERT_TRUE(results[0].ok()) << results[0].status();
  auto golden = server_->QueryUncached(batch.request);
  ASSERT_TRUE(golden.ok());
  ExpectBitIdentical(results[0].value(), golden.value());
}

TEST_F(BatchQueryTest, BatchFillsTheResultCacheForEveryDerivedKey) {
  AqBatchRequest batch;
  batch.request = ExactTemplate();
  batch.seeds = {3, 9};
  batch.cost_members = SweepMembers();

  std::vector<AqRequest> derived = ExpandBatch(batch);
  auto results = server_->QueryBatch(batch);
  ASSERT_EQ(results.size(), derived.size());

  // Every subsequent single submission of a derived member must be served
  // from the result cache with the batch-computed payload.
  for (size_t i = 0; i < derived.size(); ++i) {
    ASSERT_TRUE(results[i].ok());
    const uint64_t hits_before = server_->stats().cache_hits;
    auto single = server_->Query(derived[i]);
    ASSERT_TRUE(single.ok()) << single.status();
    EXPECT_EQ(server_->stats().cache_hits, hits_before + 1)
        << "member " << i << " was not cached by the batch";
    ExpectBitIdentical(single.value(), results[i].value());
  }
}

TEST_F(BatchQueryTest, SecondBatchIsServedEntirelyFromCache) {
  AqBatchRequest batch;
  batch.request = ExactTemplate();
  batch.cost_members = SweepMembers();

  auto first = server_->QueryBatch(batch);
  const uint64_t builds_after_first = server_->stats().exact_state_builds;
  const uint64_t hits_before = server_->stats().cache_hits;

  auto second = server_->QueryBatch(batch);
  ASSERT_EQ(second.size(), first.size());
  EXPECT_EQ(server_->stats().exact_state_builds, builds_after_first)
      << "repeat batch rebuilt a labeling pass";
  EXPECT_EQ(server_->stats().cache_hits, hits_before + second.size());
  for (size_t i = 0; i < second.size(); ++i) {
    ASSERT_TRUE(second[i].ok());
    ExpectBitIdentical(second[i].value(), first[i].value());
  }
}

TEST_F(BatchQueryTest, SsrBatchRunsMembersIndividually) {
  AqBatchRequest batch;
  batch.request = ExactTemplate();
  batch.request.options.exact = false;
  batch.request.options.beta = 0.2;
  batch.request.options.model = ml::ModelKind::kOls;
  batch.seeds = {3, 9};

  std::vector<AqRequest> derived = ExpandBatch(batch);
  auto results = server_->QueryBatch(batch);
  ASSERT_EQ(results.size(), derived.size());
  for (size_t i = 0; i < derived.size(); ++i) {
    ASSERT_TRUE(results[i].ok()) << results[i].status();
    auto golden = server_->QueryUncached(derived[i]);
    ASSERT_TRUE(golden.ok());
    ASSERT_EQ(results[i].value().mac.size(), golden.value().mac.size());
    for (size_t z = 0; z < golden.value().mac.size(); ++z) {
      EXPECT_EQ(results[i].value().mac[z], golden.value().mac[z]);
    }
  }
}

TEST_F(BatchQueryTest, ExactBatchTicketsAreNotCancellable) {
  AqBatchRequest batch;
  batch.request = ExactTemplate();
  batch.cost_members = SweepMembers();

  std::vector<AqTicket> tickets = server_->SubmitBatch(batch);
  ASSERT_EQ(tickets.size(), 3u);
  for (AqTicket& ticket : tickets) {
    EXPECT_TRUE(ticket.valid());
    EXPECT_FALSE(ticket.TryCancel())
        << "batch group members have no individual queue slot to withdraw";
  }
  for (AqTicket& ticket : tickets) {
    auto result = ticket.Get();
    EXPECT_TRUE(result.ok()) << result.status();
  }
  EXPECT_EQ(server_->stats().cancelled, 0u);
}

TEST_F(BatchQueryTest, BatchRecordsItsAdmissionEpoch) {
  AqBatchRequest batch;
  batch.request = ExactTemplate();
  batch.cost_members = SweepMembers();
  std::vector<AqTicket> tickets = server_->SubmitBatch(batch);
  for (AqTicket& ticket : tickets) {
    EXPECT_EQ(ticket.epoch(), server_->epoch());
    ASSERT_TRUE(ticket.Get().ok());
  }
}

TEST_F(BatchQueryTest, EmptyCategoryFailsEveryMemberCleanly) {
  // Remove every vax centre, then batch-query that category: each member
  // must resolve kNotFound instead of hanging or crashing the group task.
  std::vector<uint32_t> vax_ids;
  for (const synth::Poi& poi : server_->Snapshot()->pois()) {
    if (poi.category == synth::PoiCategory::kVaxCenter)
      vax_ids.push_back(poi.id);
  }
  ASSERT_FALSE(vax_ids.empty());
  for (uint32_t id : vax_ids) ASSERT_TRUE(server_->RemovePoi(id).ok());

  AqBatchRequest batch;
  batch.request = ExactTemplate();
  batch.request.category = synth::PoiCategory::kVaxCenter;
  batch.cost_members = SweepMembers();
  auto results = server_->QueryBatch(batch);
  ASSERT_EQ(results.size(), 3u);
  for (const auto& result : results) {
    ASSERT_FALSE(result.ok());
    EXPECT_EQ(result.status().code(), util::StatusCode::kNotFound);
  }
}

TEST_F(BatchQueryTest, AnInvalidGacMemberRefusesTheWholeBatch) {
  AqBatchRequest batch;
  batch.request = ExactTemplate();
  batch.cost_members = SweepMembers();
  router::GacWeights negative_wait;
  negative_wait.lambda_wt = -1.0;
  batch.cost_members.push_back(
      core::CostMember{core::CostKind::kGeneralizedCost, negative_wait});

  auto results = server_->QueryBatch(batch);
  ASSERT_EQ(results.size(), 4u);
  for (const auto& result : results) {
    ASSERT_FALSE(result.ok());
    EXPECT_EQ(result.status().code(), util::StatusCode::kInvalidArgument);
  }
  ServerStats stats = server_->stats();
  EXPECT_EQ(stats.failed, 4u);
  EXPECT_EQ(stats.exact_state_builds, 0u);

  // Garbage weights on a journey-time member are never read.
  AqBatchRequest journey_time;
  journey_time.request = ExactTemplate();
  journey_time.cost_members = {
      core::CostMember{core::CostKind::kJourneyTime, negative_wait}};
  auto served = server_->QueryBatch(journey_time);
  ASSERT_EQ(served.size(), 1u);
  ASSERT_TRUE(served[0].ok()) << served[0].status();
  auto golden = server_->QueryUncached(ExactTemplate());
  ASSERT_TRUE(golden.ok());
  ExpectBitIdentical(served[0].value(), golden.value());

  // A template field out of range refuses every member, before any work.
  AqBatchRequest negative_keep;
  negative_keep.request = ExactTemplate();
  negative_keep.request.options.gravity.keep_scale = -1.0;
  negative_keep.cost_members = SweepMembers();
  const uint64_t builds = server_->stats().exact_state_builds;
  auto refused = server_->QueryBatch(negative_keep);
  ASSERT_EQ(refused.size(), SweepMembers().size());
  for (const auto& result : refused) {
    ASSERT_FALSE(result.ok());
    EXPECT_EQ(result.status().code(), util::StatusCode::kInvalidArgument);
  }
  EXPECT_EQ(server_->stats().exact_state_builds, builds);
}

/// Every field but elapsed_s, doubles compared by bit pattern.
void ExpectSameBytes(const core::AccessQueryResult& a,
                     const core::AccessQueryResult& b) {
  const auto bits = [](const std::vector<double>& values) {
    std::vector<uint64_t> out(values.size());
    std::memcpy(out.data(), values.data(), values.size() * sizeof(double));
    return out;
  };
  EXPECT_EQ(bits(a.mac), bits(b.mac));
  EXPECT_EQ(bits(a.acsd), bits(b.acsd));
  EXPECT_EQ(a.classes, b.classes);
  EXPECT_EQ(bits({a.mean_mac, a.mean_acsd, a.fairness, a.population_fairness,
                  a.vulnerable_fairness}),
            bits({b.mean_mac, b.mean_acsd, b.fairness, b.population_fairness,
                  b.vulnerable_fairness}));
  EXPECT_EQ(a.spqs, b.spqs);
  EXPECT_EQ(a.gravity_trips, b.gravity_trips);
}

// One exact answer across every path. After an AddPoi and a RemovePoi of a
// school, a key is answered from its twice-patched state (Query), from a
// batch's capture pass (QueryBatch), from a from-scratch build
// (QueryUncached) and from a server warm-started off an export of the
// edited epoch. All four are the same bytes, spqs included: one SPQ per
// trip of the state, however the state was made.
TEST(OneAnswerAcrossPathsTest, EditedEpochAnswersIdenticallyOnEveryPath) {
  for (core::CostKind cost :
       {core::CostKind::kJourneyTime, core::CostKind::kGeneralizedCost}) {
    SCOPED_TRACE(core::CostKindName(cost));
    AqRequest request = ExactTemplate();
    request.options.cost = cost;
    if (cost == core::CostKind::kGeneralizedCost) {
      request.options.gac = WaitHeavyGac();
    }
    AqServer::Options options;
    options.num_threads = 2;
    AqServer patched(testing::TinyCity(), gtfs::WeekdayAmPeak(), options);
    AqServer batched(testing::TinyCity(), gtfs::WeekdayAmPeak(), options);
    // Materialise the state the edits patch.
    ASSERT_TRUE(patched.Query(request).ok());

    const geo::BBox& extent = patched.base_city().extent;
    const geo::Point site{extent.min_x + 0.4 * (extent.max_x - extent.min_x),
                          extent.min_y + 0.6 * (extent.max_y - extent.min_y)};
    const uint32_t school =
        patched.base_city().PoisOf(synth::PoiCategory::kSchool).front().id;
    for (AqServer* server : {&patched, &batched}) {
      auto added = server->AddPoi(synth::PoiCategory::kSchool, site);
      ASSERT_TRUE(added.ok()) << added.status();
      auto removed = server->RemovePoi(school);
      ASSERT_TRUE(removed.ok()) << removed.status();
      if (server == &patched) {
        EXPECT_EQ(added.value().states_patched, 1u);
        EXPECT_EQ(removed.value().states_patched, 1u);
      }
    }

    auto single = patched.Query(request);
    ASSERT_TRUE(single.ok()) << single.status();
    EXPECT_EQ(single.value().spqs, single.value().gravity_trips);

    AqBatchRequest batch;
    batch.request = request;
    auto captured = batched.QueryBatch(batch);
    ASSERT_EQ(captured.size(), 1u);
    ASSERT_TRUE(captured[0].ok()) << captured[0].status();

    auto uncached = patched.QueryUncached(request);
    ASSERT_TRUE(uncached.ok()) << uncached.status();

    const std::string path = ::testing::TempDir() + "staq_one_answer.staq";
    ASSERT_TRUE(patched.ExportSnapshot(path).ok());
    AqServer::Options warm_options = options;
    warm_options.warm_start_path = path;
    AqServer warm(testing::TinyCity(), gtfs::WeekdayAmPeak(), warm_options);
    std::remove(path.c_str());
    ASSERT_TRUE(warm.warm_started());
    auto restored = warm.Query(request);
    ASSERT_TRUE(restored.ok()) << restored.status();
    EXPECT_EQ(warm.stats().exact_state_builds, 0u);

    for (const auto* other : {&captured[0], &uncached, &restored}) {
      ExpectSameBytes(other->value(), single.value());
    }
  }
}

TEST(BatchSheddingTest, OverloadShedsWithUnavailable) {
  AqServer::Options options;
  options.num_threads = 1;
  options.max_pending = 4096;            // queue-full rejection out of the way
  options.max_queue_delay_s = 1e-9;      // any non-empty queue over-budget
  AqServer server(testing::TinyCity(), gtfs::WeekdayAmPeak(), options);

  AqRequest request = ExactTemplate();
  // Seed the service-time estimator: shedding is disabled until the first
  // task completes (there is nothing to estimate from).
  ASSERT_TRUE(server.Query(request).ok());

  // Burst of distinct uncached requests against one worker: the queue is
  // non-empty for nearly every submission, so the delay estimate exceeds
  // the (absurdly small) budget and the server sheds.
  constexpr int kBurst = 32;
  std::vector<AqTicket> tickets;
  tickets.reserve(kBurst);
  for (int i = 0; i < kBurst; ++i) {
    AqRequest distinct = request;
    distinct.options.seed = 100 + static_cast<uint64_t>(i);
    tickets.push_back(server.Submit(distinct));
  }
  int ok = 0, unavailable = 0;
  for (AqTicket& ticket : tickets) {
    auto result = ticket.Get();
    if (result.ok()) {
      ++ok;
    } else {
      ASSERT_EQ(result.status().code(), util::StatusCode::kUnavailable)
          << result.status();
      ++unavailable;
    }
  }
  EXPECT_EQ(ok + unavailable, kBurst);
  EXPECT_GE(unavailable, 1) << "overload burst was never shed";
  ServerStats stats = server.stats();
  EXPECT_EQ(stats.shed, static_cast<uint64_t>(unavailable));
  EXPECT_EQ(stats.rejected, 0u);  // shedding is accounted separately

  // A shed batch resolves every ticket kUnavailable as one unit while the
  // queue is still backed up. Re-arm the backlog first: the drain above
  // emptied the queue.
  AqTicket blocker = server.Submit([&] {
    AqRequest r = request;
    r.options.seed = 999;
    return r;
  }());
  AqTicket queued = server.Submit([&] {
    AqRequest r = request;
    r.options.seed = 998;
    return r;
  }());
  AqBatchRequest batch;
  batch.request = request;
  batch.cost_members = SweepMembers();
  std::vector<AqTicket> batch_tickets = server.SubmitBatch(batch);
  uint64_t shed_before = stats.shed;
  int batch_shed = 0;
  for (AqTicket& ticket : batch_tickets) {
    auto result = ticket.Get();
    if (!result.ok() &&
        result.status().code() == util::StatusCode::kUnavailable) {
      ++batch_shed;
    }
  }
  // Either the whole batch was shed (queue still backed up at submission)
  // or none of it was (the worker had already drained both requests).
  EXPECT_TRUE(batch_shed == 0 ||
              batch_shed == static_cast<int>(batch_tickets.size()));
  if (batch_shed > 0) {
    EXPECT_GE(server.stats().shed, shed_before + batch_tickets.size());
  }
  (void)blocker.Get();
  (void)queued.Get();
}

TEST(BatchSheddingTest, DisabledBudgetNeverSheds) {
  AqServer::Options options;
  options.num_threads = 1;
  options.max_queue_delay_s = 0.0;  // default: shedding off
  AqServer server(testing::TinyCity(), gtfs::WeekdayAmPeak(), options);

  AqRequest request = ExactTemplate();
  ASSERT_TRUE(server.Query(request).ok());
  std::vector<AqTicket> tickets;
  for (int i = 0; i < 16; ++i) {
    AqRequest distinct = request;
    distinct.options.seed = 200 + static_cast<uint64_t>(i);
    tickets.push_back(server.Submit(distinct));
  }
  for (AqTicket& ticket : tickets) EXPECT_TRUE(ticket.Get().ok());
  EXPECT_EQ(server.stats().shed, 0u);
}

}  // namespace
}  // namespace staq::serve
