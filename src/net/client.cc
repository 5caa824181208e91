#include "net/client.h"

#include <utility>

namespace staq::net {

util::Result<AqClient> AqClient::Connect(const std::string& host,
                                         uint16_t port, double timeout_s) {
  auto socket = net::Connect(host, port, timeout_s);
  if (!socket.ok()) return socket.status();

  AqClient client;
  client.socket_ = std::move(socket).value();

  Hello hello;
  std::vector<uint8_t> payload;
  EncodeHello(hello, &payload);
  auto ack_frame = client.Call(MsgType::kHello, payload);
  if (!ack_frame.ok()) return ack_frame.status();
  if (ack_frame.value().type != MsgType::kHelloAck) {
    return util::Status::InvalidArgument("handshake answered with " +
                                         std::string(MsgTypeName(
                                             ack_frame.value().type)));
  }
  store::ByteReader in(ack_frame.value().payload.data(),
                       ack_frame.value().payload.size());
  HelloAck ack;
  if (!DecodeHelloAck(&in, &ack)) {
    return util::Status::InvalidArgument("malformed HelloAck");
  }
  client.hello_sequence_ = ack.sequence;
  return client;
}

util::Result<Frame> AqClient::Call(MsgType type,
                                   const std::vector<uint8_t>& payload) {
  if (!socket_.valid()) {
    return util::Status::Unavailable("client is not connected");
  }
  const uint64_t request_id = next_request_id_++;
  util::Status sent = socket_.SendFrame(type, request_id, payload);
  if (!sent.ok()) {
    // The connection's state is unknown after a half-written frame; drop
    // it so the next call fails fast instead of desynchronising.
    socket_.Close();
    return sent;
  }
  auto frame = socket_.RecvFrame();
  if (!frame.ok()) {
    socket_.Close();
    return frame.status();
  }
  if (frame.value().request_id != request_id) {
    socket_.Close();
    return util::Status::Internal("response for a different request id");
  }
  if (frame.value().type == MsgType::kError) {
    store::ByteReader in(frame.value().payload.data(),
                         frame.value().payload.size());
    util::Status remote;
    if (!DecodeErrorMsg(&in, &remote) || remote.ok()) {
      return util::Status::Internal("malformed Error frame");
    }
    return remote;
  }
  return frame;
}

util::Result<QueryResultMsg> AqClient::Query(const serve::AqRequest& request,
                                             uint64_t min_sequence) {
  QueryMsg msg;
  msg.request = request;
  msg.min_sequence = min_sequence;
  std::vector<uint8_t> payload;
  EncodeQueryMsg(msg, &payload);
  auto frame = Call(MsgType::kQuery, payload);
  if (!frame.ok()) return frame.status();
  if (frame.value().type != MsgType::kQueryResult) {
    return util::Status::InvalidArgument("query answered with " +
                                         std::string(MsgTypeName(
                                             frame.value().type)));
  }
  store::ByteReader in(frame.value().payload.data(),
                       frame.value().payload.size());
  QueryResultMsg result;
  if (!DecodeQueryResultMsg(&in, &result) || !in.exhausted()) {
    return util::Status::DataLoss("malformed QueryResult payload");
  }
  return result;
}

util::Result<MutateResultMsg> AqClient::Mutate(
    const wal::MutationRecord& record) {
  std::vector<uint8_t> payload;
  EncodeMutationRecord(record, &payload);
  auto frame = Call(MsgType::kMutate, payload);
  if (!frame.ok()) return frame.status();
  if (frame.value().type != MsgType::kMutateResult) {
    return util::Status::InvalidArgument("mutation answered with " +
                                         std::string(MsgTypeName(
                                             frame.value().type)));
  }
  store::ByteReader in(frame.value().payload.data(),
                       frame.value().payload.size());
  MutateResultMsg result;
  if (!DecodeMutateResultMsg(&in, &result) || !in.exhausted()) {
    return util::Status::DataLoss("malformed MutateResult payload");
  }
  return result;
}

util::Result<InfoResultMsg> AqClient::Info() {
  auto frame = Call(MsgType::kInfo, {});
  if (!frame.ok()) return frame.status();
  if (frame.value().type != MsgType::kInfoResult) {
    return util::Status::InvalidArgument("info answered with " +
                                         std::string(MsgTypeName(
                                             frame.value().type)));
  }
  store::ByteReader in(frame.value().payload.data(),
                       frame.value().payload.size());
  InfoResultMsg result;
  if (!DecodeInfoResultMsg(&in, &result) || !in.exhausted()) {
    return util::Status::DataLoss("malformed InfoResult payload");
  }
  return result;
}

}  // namespace staq::net
