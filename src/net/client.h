// AqClient — blocking client for one AqTcpServer connection.
//
// Connect() dials the backend, performs the Hello/HelloAck handshake
// (version check; the ack also reports the backend's sequence), and the
// client then issues synchronous request/response calls. Remote errors
// come back as the util::Status the server produced — calling through an
// AqClient is the same error surface as calling the AqServer directly,
// plus kUnavailable for transport failures.
//
// Not thread-safe: one connection, one outstanding request at a time
// (request_ids are a local monotonic counter and each response is matched
// against its request). The query router owns one client per backend and
// is itself per-thread.
#pragma once

#include <cstdint>
#include <optional>
#include <string>

#include "net/socket.h"
#include "net/wire.h"

namespace staq::net {

class AqClient {
 public:
  /// Dials host:port and shakes hands. kUnavailable when the backend is
  /// down, kInvalidArgument when it speaks a different protocol version.
  static util::Result<AqClient> Connect(const std::string& host, uint16_t port,
                                        double timeout_s = 30.0);

  AqClient() = default;
  AqClient(AqClient&&) = default;
  AqClient& operator=(AqClient&&) = default;

  bool connected() const { return socket_.valid(); }
  void Close() { socket_.Close(); }

  /// The backend's sequence reported in the handshake.
  uint64_t hello_sequence() const { return hello_sequence_; }

  /// Runs one access query. `min_sequence` > 0 demands the backend has
  /// applied at least that mutation (kUnavailable otherwise — retry a
  /// fresher backend).
  util::Result<QueryResultMsg> Query(const serve::AqRequest& request,
                                     uint64_t min_sequence = 0);

  /// Sends one mutation record — any of the eight kinds — to the backend,
  /// which assigns its sequence and (for kAddPoi) the POI id. Disruption
  /// targets are resolved route/stop ids in the backend's feed;
  /// wal::kAllTargets selects every route where the mutation allows it.
  util::Result<MutateResultMsg> Mutate(const wal::MutationRecord& record);

  /// Replication position probe.
  util::Result<InfoResultMsg> Info();

 private:
  /// Sends `payload` as `type` and reads the response frame, unwrapping
  /// kError payloads into their status and checking the echoed request id.
  util::Result<Frame> Call(MsgType type, const std::vector<uint8_t>& payload);

  Socket socket_;
  uint64_t next_request_id_ = 1;
  uint64_t hello_sequence_ = 0;
};

}  // namespace staq::net
