// AqTcpServer + AqClient over loopback: handshake, remote queries equal
// the in-process golden bit for bit, mutations, role enforcement, the
// min_sequence freshness gate, and protocol-garbage handling.
#include "net/server.h"

#include <atomic>
#include <limits>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "net/client.h"
#include "net_testing.h"
#include "testing/test_city.h"

namespace staq::net {
namespace {

using net_testing::ExpectSameAnswer;
using net_testing::FastExactRequest;
using net_testing::FastSsrRequest;

class TcpServerTest : public ::testing::Test {
 protected:
  TcpServerTest() {
    serve::AqServer::Options options;
    options.num_threads = 4;
    server_ = std::make_unique<serve::AqServer>(testing::TinyCity(),
                                                gtfs::WeekdayAmPeak(), options);
    tcp_ = std::make_unique<AqTcpServer>(server_.get(), AqTcpServer::Options());
    auto started = tcp_->Start();
    EXPECT_TRUE(started.ok()) << started;
  }

  AqClient MustConnect() {
    auto client = AqClient::Connect("127.0.0.1", tcp_->port());
    EXPECT_TRUE(client.ok()) << client.status();
    return std::move(client).value();
  }

  std::unique_ptr<serve::AqServer> server_;
  std::unique_ptr<AqTcpServer> tcp_;
};

TEST_F(TcpServerTest, HandshakeReportsTheServersSequence) {
  AqClient client = MustConnect();
  EXPECT_EQ(client.hello_sequence(), 0u);

  auto info = client.Info();
  ASSERT_TRUE(info.ok()) << info.status();
  EXPECT_EQ(info.value().sequence, 0u);
  EXPECT_EQ(info.value().epoch, 0u);
  EXPECT_GE(tcp_->stats().connections, 1u);
}

TEST_F(TcpServerTest, RemoteQueryEqualsTheInProcessGolden) {
  AqClient client = MustConnect();
  auto remote = client.Query(FastExactRequest());
  ASSERT_TRUE(remote.ok()) << remote.status();
  EXPECT_EQ(remote.value().sequence, 0u);

  auto golden = server_->QueryUncached(FastExactRequest());
  ASSERT_TRUE(golden.ok());
  ExpectSameAnswer(remote.value().result, golden.value());

  // The SSR path crosses the wire bit-identically too.
  auto remote_ssr = client.Query(FastSsrRequest());
  ASSERT_TRUE(remote_ssr.ok()) << remote_ssr.status();
  auto golden_ssr = server_->QueryUncached(FastSsrRequest());
  ASSERT_TRUE(golden_ssr.ok());
  ExpectSameAnswer(remote_ssr.value().result, golden_ssr.value());
}

TEST_F(TcpServerTest, RemoteMutationsAdvanceTheSequence) {
  AqClient client = MustConnect();
  const geo::BBox& extent = server_->base_city().extent;
  auto before = client.Query(FastExactRequest());
  ASSERT_TRUE(before.ok());

  auto added = client.Mutate(wal::MutationRecord::AddPoi(
      0, synth::PoiCategory::kSchool, geo::Point{extent.min_x, extent.min_y},
      0));
  ASSERT_TRUE(added.ok()) << added.status();
  EXPECT_EQ(added.value().sequence, 1u);
  EXPECT_EQ(added.value().report.epoch, 1u);
  EXPECT_EQ(server_->sequence(), 1u);

  auto after = client.Query(FastExactRequest());
  ASSERT_TRUE(after.ok());
  EXPECT_EQ(after.value().sequence, 1u);
  EXPECT_GT(after.value().result.gravity_trips,
            before.value().result.gravity_trips);

  auto removed = client.Mutate(
      wal::MutationRecord::RemovePoi(0, added.value().report.poi_id));
  ASSERT_TRUE(removed.ok()) << removed.status();
  EXPECT_EQ(removed.value().sequence, 2u);

  auto switched =
      client.Mutate(wal::MutationRecord::SetInterval(0, gtfs::WeekdayPmPeak()));
  ASSERT_TRUE(switched.ok()) << switched.status();
  EXPECT_EQ(switched.value().sequence, 3u);
}

TEST_F(TcpServerTest, ReadOnlyReplicaRefusesMutations) {
  AqTcpServer::Options options;
  options.allow_mutations = false;
  AqTcpServer replica(server_.get(), options);
  ASSERT_TRUE(replica.Start().ok());

  auto client = AqClient::Connect("127.0.0.1", replica.port());
  ASSERT_TRUE(client.ok());
  auto refused = client.value().Mutate(wal::MutationRecord::AddPoi(
      0, synth::PoiCategory::kSchool, geo::Point{0, 0}, 0));
  ASSERT_FALSE(refused.ok());
  EXPECT_EQ(refused.status().code(), util::StatusCode::kFailedPrecondition);
  // The connection survives a refused mutation: reads still work.
  EXPECT_TRUE(client.value().Info().ok());
}

TEST_F(TcpServerTest, QueryBehindMinSequenceIsUnavailable) {
  AqClient client = MustConnect();
  auto behind = client.Query(FastExactRequest(), /*min_sequence=*/5);
  ASSERT_FALSE(behind.ok());
  EXPECT_EQ(behind.status().code(), util::StatusCode::kUnavailable);

  // At or below the server's sequence the gate opens.
  auto fresh = client.Query(FastExactRequest(), /*min_sequence=*/0);
  EXPECT_TRUE(fresh.ok()) << fresh.status();
}

TEST_F(TcpServerTest, RemoteErrorsCarryTheServersStatus) {
  AqClient client = MustConnect();
  auto missing = client.Mutate(wal::MutationRecord::RemovePoi(0, 9999999));
  ASSERT_FALSE(missing.ok());
  // The exact status an in-process RemovePoi would return, not a generic
  // "request failed".
  EXPECT_EQ(missing.status().code(), util::StatusCode::kNotFound);
  EXPECT_GE(tcp_->stats().errors, 1u);
}

TEST_F(TcpServerTest, InvalidGacWeightsAreRefusedOverTheWire) {
  AqClient client = MustConnect();
  serve::AqRequest zero_vot = FastExactRequest();
  zero_vot.options.cost = core::CostKind::kGeneralizedCost;
  zero_vot.options.gac.value_of_time = 0.0;
  auto refused = client.Query(zero_vot);
  ASSERT_FALSE(refused.ok());
  EXPECT_EQ(refused.status().code(), util::StatusCode::kInvalidArgument);
  EXPECT_EQ(server_->stats().failed, 1u);

  // Doubles cross the wire bit for bit, NaN included; admission refuses a
  // NaN SSR beta before it reaches the sampler.
  serve::AqRequest nan_beta = FastExactRequest();
  nan_beta.options.exact = false;
  nan_beta.options.model = ml::ModelKind::kOls;
  nan_beta.options.beta = std::numeric_limits<double>::quiet_NaN();
  auto refused_beta = client.Query(nan_beta);
  ASSERT_FALSE(refused_beta.ok());
  EXPECT_EQ(refused_beta.status().code(), util::StatusCode::kInvalidArgument);
  EXPECT_EQ(server_->stats().failed, 2u);

  // A journey-time query carrying the same weights never reads them.
  serve::AqRequest journey_time = FastExactRequest();
  journey_time.options.gac.value_of_time = 0.0;
  auto served = client.Query(journey_time);
  ASSERT_TRUE(served.ok()) << served.status();
  auto golden = server_->QueryUncached(FastExactRequest());
  ASSERT_TRUE(golden.ok());
  ExpectSameAnswer(served.value().result, golden.value());
}

TEST_F(TcpServerTest, VersionMismatchIsRejectedAtHandshake) {
  auto socket = Connect("127.0.0.1", tcp_->port(), 5.0);
  ASSERT_TRUE(socket.ok()) << socket.status();
  Hello hello;
  hello.protocol_version = 99;
  std::vector<uint8_t> payload;
  EncodeHello(hello, &payload);
  ASSERT_TRUE(socket.value().SendFrame(MsgType::kHello, 1, payload).ok());
  auto reply = socket.value().RecvFrame();
  ASSERT_TRUE(reply.ok()) << reply.status();
  ASSERT_EQ(reply.value().type, MsgType::kError);
  store::ByteReader in(reply.value().payload.data(),
                       reply.value().payload.size());
  util::Status remote;
  ASSERT_TRUE(DecodeErrorMsg(&in, &remote));
  EXPECT_EQ(remote.code(), util::StatusCode::kInvalidArgument);
}

TEST_F(TcpServerTest, GarbageBytesDropTheConnectionNotTheServer) {
  auto socket = Connect("127.0.0.1", tcp_->port(), 5.0);
  ASSERT_TRUE(socket.ok());
  const char garbage[] = "GET / HTTP/1.1\r\nHost: wrong-protocol\r\n\r\n";
  ASSERT_TRUE(socket.value().SendAll(garbage, sizeof(garbage)).ok());
  // The server hangs up without answering; the read fails cleanly.
  auto reply = socket.value().RecvFrame();
  EXPECT_FALSE(reply.ok());

  // Other clients are unaffected.
  AqClient client = MustConnect();
  EXPECT_TRUE(client.Info().ok());
  EXPECT_GE(tcp_->stats().protocol_errors, 1u);
}

TEST_F(TcpServerTest, ConcurrentClientsAllGetTheGoldenAnswer) {
  auto golden = server_->QueryUncached(FastExactRequest());
  ASSERT_TRUE(golden.ok());

  constexpr int kClients = 4;
  constexpr int kQueriesPerClient = 3;
  std::atomic<int> ok_count{0};
  std::vector<core::AccessQueryResult> answers(kClients);
  std::vector<std::thread> threads;
  for (int c = 0; c < kClients; ++c) {
    threads.emplace_back([&, c] {
      auto client = AqClient::Connect("127.0.0.1", tcp_->port());
      if (!client.ok()) return;
      for (int q = 0; q < kQueriesPerClient; ++q) {
        auto result = client.value().Query(FastExactRequest());
        if (result.ok()) {
          answers[c] = std::move(result).value().result;
          ok_count.fetch_add(1);
        }
      }
    });
  }
  for (auto& thread : threads) thread.join();
  EXPECT_EQ(ok_count.load(), kClients * kQueriesPerClient);
  for (int c = 0; c < kClients; ++c) {
    ExpectSameAnswer(answers[c], golden.value());
  }
}

TEST_F(TcpServerTest, StopJoinsEverythingAndRefusesNewCalls) {
  AqClient client = MustConnect();
  ASSERT_TRUE(client.Info().ok());
  tcp_->Stop();
  EXPECT_FALSE(tcp_->running());
  // In-flight connection is gone...
  EXPECT_FALSE(client.Info().ok());
  // ...and new dials are refused (or at best reset before the handshake).
  auto fresh = AqClient::Connect("127.0.0.1", tcp_->port(), 1.0);
  EXPECT_FALSE(fresh.ok());
  tcp_->Stop();  // idempotent
}

}  // namespace
}  // namespace staq::net
