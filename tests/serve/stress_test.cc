// Schedule-shaking stress suite for staq::serve.
//
// Each test instance runs one seed of a mixed query/mutate/cancel/destroy
// workload against an AqServer whose worker pool is perturbed (seeded task
// reordering + jitter, see ThreadPool::PerturbOptions) — cold builds, batch
// captures and POI patches all run as helped zone loops racing each other
// on the idle-priority helper pool — then model-checks
// the invariant the serve design promises: every OK response is
// bit-identical to the sequential answer on the scenario snapshot it was
// admitted under (AqTicket::epoch). Mutations are serialised on the main
// thread, which retains one snapshot per epoch as the oracle input.
//
// ctest materialises the whole ::testing::Range as independent tests, so
// `ctest -R ServeStress` runs 50 seeds — under STAQ_TSAN via the
// `concurrency` label — and a failing seed names itself in the test id.
#include <atomic>
#include <cstdio>
#include <map>
#include <memory>
#include <random>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "core/labeling.h"
#include "router/router.h"
#include "serve/server.h"
#include "testing/label_correcting_router.h"
#include "testing/test_city.h"

namespace staq::serve {
namespace {

AqRequest ExactRequest(synth::PoiCategory category) {
  AqRequest request;
  request.category = category;
  request.options.exact = true;
  request.options.gravity.sample_rate_per_hour = 4;
  request.options.gravity.keep_scale = 2.0;
  request.options.seed = 3;
  return request;
}

AqRequest SsrRequest() {
  AqRequest request = ExactRequest(synth::PoiCategory::kSchool);
  request.options.exact = false;
  request.options.beta = 0.2;
  request.options.model = ml::ModelKind::kOls;
  return request;
}

/// Cost-member sweep for the batch op: one shared labeling pass derives
/// all three on a worker while mutations race it.
AqBatchRequest BatchSweep(synth::PoiCategory category) {
  router::GacWeights wait_heavy;
  wait_heavy.lambda_wt = 3.5;
  wait_heavy.transfer_penalty_s = 300.0;
  AqBatchRequest batch;
  batch.request = ExactRequest(category);
  batch.cost_members = {
      core::CostMember{core::CostKind::kJourneyTime, router::GacWeights{}},
      core::CostMember{core::CostKind::kGeneralizedCost, router::GacWeights{}},
      core::CostMember{core::CostKind::kGeneralizedCost, wait_heavy},
  };
  return batch;
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
}

/// One submitted request plus everything the oracle needs afterwards.
struct Issued {
  AqTicket ticket;
  AqRequest request;
  bool cancelled = false;  // TryCancel succeeded: must resolve kCancelled
};

class ServeStressTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(ServeStressTest, MixedWorkloadIsEpochConsistent) {
  const uint64_t seed = GetParam();

  AqServer::Options options;
  options.num_threads = 3;
  options.max_pending = 128;
  // A deliberately tiny cache keeps the eviction path hot under load.
  options.cache.shards = 2;
  options.cache.entries_per_shard = 2;
  options.perturb = util::ThreadPool::PerturbOptions{
      .seed = seed, .max_delay_us = 200, .reorder = true};
  auto server = std::make_unique<AqServer>(testing::TinyCity(),
                                           gtfs::WeekdayAmPeak(), options);

  const std::vector<AqRequest> mix = {
      ExactRequest(synth::PoiCategory::kSchool),
      ExactRequest(synth::PoiCategory::kVaxCenter),
      SsrRequest(),
  };

  // snapshots[e] is the scenario installed as epoch e. Only the main thread
  // mutates, so retaining the snapshot right after each mutation report
  // gives the oracle exactly the epoch sequence the server published.
  std::vector<std::shared_ptr<const Scenario>> snapshots;
  snapshots.push_back(server->Snapshot());
  ASSERT_EQ(snapshots[0]->epoch(), 0u);

  constexpr int kClients = 2;
  constexpr int kOpsPerClient = 8;
  std::vector<std::vector<Issued>> issued(kClients);
  std::vector<std::thread> clients;
  clients.reserve(kClients);
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      // Seeded per client: the workload (request choice, cancel choice) is
      // replayable for a failing seed even though the schedule is not.
      std::mt19937_64 rng(seed * 1000003 + c);
      for (int op = 0; op < kOpsPerClient; ++op) {
        if (rng() % 8 == 0) {
          // Batch op: the derived tickets join the same per-epoch oracle
          // as single submissions — a batch admitted under epoch e must be
          // bit-identical to sequential answers on snapshot e, whatever
          // mutations land while its group task runs.
          AqBatchRequest batch =
              BatchSweep(rng() % 2 == 0 ? synth::PoiCategory::kSchool
                                        : synth::PoiCategory::kVaxCenter);
          batch.request.options.seed += rng() % 3;  // cold captures too
          std::vector<AqRequest> derived = ExpandBatch(batch);
          std::vector<AqTicket> tickets = server->SubmitBatch(batch);
          for (size_t i = 0; i < tickets.size(); ++i) {
            Issued entry;
            entry.request = derived[i];
            entry.ticket = std::move(tickets[i]);
            issued[c].push_back(std::move(entry));
          }
          continue;
        }
        Issued entry;
        entry.request = mix[rng() % mix.size()];
        if (entry.request.options.exact) {
          // A fresh TODAM seed now and then makes the op a cold build, so
          // helped builds race the patches below, not just cache hits.
          entry.request.options.seed += rng() % 3;
        }
        entry.ticket = server->Submit(entry.request);
        if (rng() % 4 == 0) {
          entry.cancelled = entry.ticket.TryCancel();
        }
        issued[c].push_back(std::move(entry));
      }
    });
  }

  // Mutations race the clients: add schools, remove some of them again.
  std::mt19937_64 mutate_rng(seed ^ 0x9e3779b97f4a7c15ull);
  std::vector<uint32_t> added;
  for (int m = 0; m < 3; ++m) {
    if (!added.empty() && mutate_rng() % 2 == 0) {
      uint32_t id = added.back();
      added.pop_back();
      auto report = server->RemovePoi(id);
      ASSERT_TRUE(report.ok()) << report.status();
    } else {
      const geo::BBox& extent = server->base_city().extent;
      double fx = static_cast<double>(mutate_rng() % 1000) / 1000.0;
      double fy = static_cast<double>(mutate_rng() % 1000) / 1000.0;
      geo::Point position{extent.min_x + fx * (extent.max_x - extent.min_x),
                          extent.min_y + fy * (extent.max_y - extent.min_y)};
      auto report = server->AddPoi(synth::PoiCategory::kSchool, position);
      ASSERT_TRUE(report.ok()) << report.status();
      added.push_back(report.value().poi_id);
    }
    snapshots.push_back(server->Snapshot());
    ASSERT_EQ(snapshots.back()->epoch(), snapshots.size() - 1);
  }
  for (auto& client : clients) client.join();

  // Oracle pass: every response must match the sequential answer on the
  // snapshot its ticket was admitted under. Goldens are memoised per
  // (epoch, canonical key) — the canonicaliser says which requests must be
  // answer-identical, so it is also the right oracle key.
  std::map<std::string, core::AccessQueryResult> goldens;
  size_t total_issued = 0;
  int answered = 0, cancelled = 0;
  for (auto& client_issued : issued) {
    total_issued += client_issued.size();
    for (Issued& entry : client_issued) {
      auto result = entry.ticket.Get();  // must always resolve
      if (entry.cancelled) {
        ASSERT_FALSE(result.ok());
        EXPECT_EQ(result.status().code(), util::StatusCode::kCancelled);
        ++cancelled;
        continue;
      }
      ASSERT_TRUE(result.ok()) << result.status();
      const uint64_t epoch = entry.ticket.epoch();
      ASSERT_LT(epoch, snapshots.size());
      std::string oracle_key =
          std::to_string(epoch) + "/" + CanonicalRequestKey(entry.request);
      auto it = goldens.find(oracle_key);
      if (it == goldens.end()) {
        auto golden = server->QueryUncachedOn(*snapshots[epoch], entry.request);
        ASSERT_TRUE(golden.ok()) << golden.status();
        it = goldens.emplace(oracle_key, std::move(golden).value()).first;
      }
      ExpectSameAnswer(result.value(), it->second);
      ++answered;
    }
  }
  EXPECT_EQ(static_cast<size_t>(answered + cancelled), total_issued);

  // Destroy phase: tear the server down with requests still outstanding.
  // ~AqServer drains the queue, so every ticket must still resolve cleanly
  // to a complete, well-formed answer — never a hang or a torn result.
  const size_t zones = server->base_city().zones.size();
  std::vector<AqTicket> outstanding;
  for (int i = 0; i < 4; ++i) {
    outstanding.push_back(server->Submit(mix[i % mix.size()]));
  }
  server.reset();
  for (AqTicket& ticket : outstanding) {
    auto result = ticket.Get();
    ASSERT_TRUE(result.ok()) << result.status();
    EXPECT_EQ(result.value().mac.size(), zones);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ServeStressTest,
                         ::testing::Range<uint64_t>(0, 50));

// Save-under-load: exporting a snapshot of a live epoch races the same
// query/mutation workload, and the file must capture that epoch exactly —
// a server warm-started from it answers bit-identically to the sequential
// oracle on the retained snapshot. Scenarios are immutable and the POI id
// cursor is read atomically, so the export never blocks and never tears.
class SaveUnderLoadTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(SaveUnderLoadTest, LiveEpochSnapshotMatchesSequentialOracle) {
  const uint64_t seed = GetParam();
  const std::string path = ::testing::TempDir() + "staq_save_under_load_" +
                           std::to_string(seed) + ".staq";

  AqServer::Options options;
  options.num_threads = 3;
  options.max_pending = 128;
  options.cache.shards = 2;
  options.cache.entries_per_shard = 2;
  options.perturb = util::ThreadPool::PerturbOptions{
      .seed = seed, .max_delay_us = 200, .reorder = true};
  AqServer server(testing::TinyCity(), gtfs::WeekdayAmPeak(), options);

  const std::vector<AqRequest> mix = {
      ExactRequest(synth::PoiCategory::kSchool),
      ExactRequest(synth::PoiCategory::kVaxCenter),
      SsrRequest(),
  };

  // Client threads keep the workers busy for the whole export window.
  std::atomic<bool> stop{false};
  constexpr int kClients = 2;
  std::vector<std::vector<AqTicket>> tickets(kClients);
  std::vector<std::thread> clients;
  clients.reserve(kClients);
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      std::mt19937_64 rng(seed * 7919 + c);
      while (!stop.load(std::memory_order_relaxed)) {
        tickets[c].push_back(server.Submit(mix[rng() % mix.size()]));
        if (tickets[c].size() >= 24) break;  // bounded work per seed
      }
    });
  }

  // Mutations race the clients; each installed epoch's snapshot is
  // retained, and each is exported while the workload is still running.
  std::vector<std::shared_ptr<const Scenario>> snapshots;
  snapshots.push_back(server.Snapshot());
  std::mt19937_64 mutate_rng(seed ^ 0xD1B54A32D192ED03ull);
  for (int m = 0; m < 2; ++m) {
    const geo::BBox& extent = server.base_city().extent;
    double fx = static_cast<double>(mutate_rng() % 1000) / 1000.0;
    double fy = static_cast<double>(mutate_rng() % 1000) / 1000.0;
    auto report = server.AddPoi(
        synth::PoiCategory::kSchool,
        geo::Point{extent.min_x + fx * (extent.max_x - extent.min_x),
                   extent.min_y + fy * (extent.max_y - extent.min_y)});
    ASSERT_TRUE(report.ok()) << report.status();
    snapshots.push_back(server.Snapshot());
  }

  // Export one retained (usually no longer current) epoch mid-flight.
  const size_t exported = seed % snapshots.size();
  auto save = server.ExportSnapshot(*snapshots[exported], path);
  ASSERT_TRUE(save.ok()) << save.ToString();

  stop.store(true, std::memory_order_relaxed);
  for (auto& client : clients) client.join();
  for (auto& per_client : tickets) {
    for (AqTicket& ticket : per_client) (void)ticket.Get();
  }

  // Model check: a server warm-started from the mid-flight file answers
  // exactly like the sequential oracle on the epoch that was exported.
  AqServer::Options warm_options;
  warm_options.num_threads = 2;
  warm_options.warm_start_path = path;
  AqServer warm(testing::TinyCity(), gtfs::WeekdayAmPeak(), warm_options);
  ASSERT_TRUE(warm.warm_started());
  EXPECT_EQ(warm.base_city().pois.size(),
            server.base_city().pois.size());
  for (const AqRequest& request : mix) {
    auto oracle = server.QueryUncachedOn(*snapshots[exported], request);
    auto answer = warm.QueryUncached(request);
    ASSERT_TRUE(oracle.ok()) << oracle.status();
    ASSERT_TRUE(answer.ok()) << answer.status();
    ExpectSameAnswer(answer.value(), oracle.value());
  }
  std::remove(path.c_str());
}

INSTANTIATE_TEST_SUITE_P(Seeds, SaveUnderLoadTest,
                         ::testing::Range<uint64_t>(0, 50));

void ExpectSameLabels(const std::vector<core::ZoneLabel>& served,
                      const std::vector<core::ZoneLabel>& oracle,
                      const char* what) {
  ASSERT_EQ(served.size(), oracle.size()) << what;
  for (size_t z = 0; z < served.size(); ++z) {
    EXPECT_EQ(served[z].mac, oracle[z].mac) << what << " zone " << z;
    EXPECT_EQ(served[z].acsd, oracle[z].acsd) << what << " zone " << z;
    EXPECT_EQ(served[z].num_trips, oracle[z].num_trips) << what << " zone "
                                                        << z;
    EXPECT_EQ(served[z].num_infeasible, oracle[z].num_infeasible)
        << what << " zone " << z;
    EXPECT_EQ(served[z].num_walk_only, oracle[z].num_walk_only)
        << what << " zone " << z;
  }
}

// Chained mutations over the shared connection array. The serve default is
// the CSA engine scanning ONE ConnectionArray built at store construction
// and shared by every worker router and every scenario epoch (mutations
// edit POIs, never the feed). Each epoch's served label states — cold
// builds and incremental patches alike, raced by queries under schedule
// shaking — must be bit-identical to two sequential per-epoch oracles that
// share nothing with the server: a CSA engine over a FRESH connection
// array built for that check alone, and the label-correcting oracle's
// grouped labeler over the state's edit-stable TODAM. This
// is the test that would catch the shared array going stale, torn, or
// diverging from the oracle engine across a mutation chain.
class SharedArrayMutationTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(SharedArrayMutationTest, EpochStatesMatchFreshEngineOracles) {
  const uint64_t seed = GetParam();

  AqServer::Options options;
  options.num_threads = 3;
  options.max_pending = 128;
  options.cache.shards = 2;
  options.cache.entries_per_shard = 2;
  options.perturb = util::ThreadPool::PerturbOptions{
      .seed = seed, .max_delay_us = 200, .reorder = true};
  AqServer server(testing::TinyCity(), gtfs::WeekdayAmPeak(), options);
  ASSERT_NE(server.router_options().connections, nullptr)
      << "serve default should share one connection array";

  const std::vector<AqRequest> mix = {
      ExactRequest(synth::PoiCategory::kSchool),
      ExactRequest(synth::PoiCategory::kVaxCenter),
  };
  // Materialise both exact states on epoch 0 so every mutation has states
  // to patch incrementally (the shared-array relabel path under test).
  for (const AqRequest& request : mix) {
    auto cold = server.Query(request);
    ASSERT_TRUE(cold.ok()) << cold.status();
  }

  // Queries race the mutation chain so patches land while worker routers
  // are scanning the same shared array.
  constexpr int kClients = 2;
  std::vector<std::vector<AqTicket>> tickets(kClients);
  std::vector<std::thread> clients;
  clients.reserve(kClients);
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      std::mt19937_64 rng(seed * 6700417 + c);
      for (int op = 0; op < 6; ++op) {
        tickets[c].push_back(server.Submit(mix[rng() % mix.size()]));
      }
    });
  }

  std::vector<std::shared_ptr<const Scenario>> snapshots;
  snapshots.push_back(server.Snapshot());
  std::mt19937_64 mutate_rng(seed ^ 0xA24BAED4963EE407ull);
  std::vector<uint32_t> added;
  for (int m = 0; m < 4; ++m) {
    if (!added.empty() && mutate_rng() % 2 == 0) {
      uint32_t id = added.back();
      added.pop_back();
      auto report = server.RemovePoi(id);
      ASSERT_TRUE(report.ok()) << report.status();
    } else {
      const geo::BBox& extent = server.base_city().extent;
      double fx = static_cast<double>(mutate_rng() % 1000) / 1000.0;
      double fy = static_cast<double>(mutate_rng() % 1000) / 1000.0;
      auto report = server.AddPoi(
          synth::PoiCategory::kSchool,
          geo::Point{extent.min_x + fx * (extent.max_x - extent.min_x),
                     extent.min_y + fy * (extent.max_y - extent.min_y)});
      ASSERT_TRUE(report.ok()) << report.status();
      added.push_back(report.value().poi_id);
    }
    snapshots.push_back(server.Snapshot());
  }
  for (auto& client : clients) client.join();
  for (auto& per_client : tickets) {
    for (AqTicket& ticket : per_client) {
      auto result = ticket.Get();
      ASSERT_TRUE(result.ok()) << result.status();
    }
  }

  // Sequential oracle pass: every label state any epoch holds materialised
  // (epoch 0's cold builds, later epochs' incremental patches) is rebuilt
  // from scratch by engines owning nothing of the server's.
  for (const auto& snapshot : snapshots) {
    const synth::City& city = snapshot->base_city();
    const auto states = snapshot->MaterializedStates();
    ASSERT_FALSE(states.empty())
        << "epoch 0 materialised both mix states; patches must carry them";
    for (const auto& [key, state] : states) {
      // Null connections: the router builds its own array.
      router::Router csa_router(&city.feed, router::RouterOptions{});
      core::LabelingEngine csa_engine(&city, &csa_router);
      SerialZoneLoop csa_loop(csa_engine);
      auto csa_oracle = snapshot->BuildLabelState(key, csa_loop);
      ExpectSameLabels(state->labels, csa_oracle->labels, "fresh-array csa");

      testing::LabelCorrectingRouter lc_router(&city.feed,
                                               router::RouterOptions{});
      testing::LabelCorrectingLabeler lc_labeler(&city, &lc_router, key.gac);
      const std::vector<synth::Poi> pois = snapshot->PoisOf(key.category);
      const std::vector<core::ZoneLabel> lc_oracle = lc_labeler.LabelZones(
          snapshot->StableTodam(key, pois), AllZones(city.zones.size()), pois,
          key.cost, snapshot->interval().day);
      ExpectSameLabels(state->labels, lc_oracle, "label-correcting");
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SharedArrayMutationTest,
                         ::testing::Range<uint64_t>(0, 10));

}  // namespace
}  // namespace staq::serve
