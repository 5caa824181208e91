// AqTcpServer — the TCP front end of one AqServer.
//
// One accept thread plus one handler thread per connection (blocking I/O,
// see net/socket.h). Handlers speak the net/wire.h protocol: Hello is
// answered with HelloAck (version check), then Query / Mutate / Info
// requests run against the wrapped AqServer and answer with their result
// frame or an Error frame carrying the operation's util::Status verbatim —
// a remote caller sees exactly the status an in-process caller would.
//
// Roles: a primary serves mutations; a replica starts with
// `allow_mutations = false` and answers Mutate with kFailedPrecondition
// ("read-only replica") so a misrouted write can never fork history.
// Epoch-consistent reads: a Query carrying min_sequence > the server's
// current sequence() answers kUnavailable — the replica is behind, and the
// router retries a fresher backend instead of serving stale labels.
//
// Stop() is idempotent and joins everything: the listener wakes via its
// self-pipe, per-connection sockets are shut down, handler threads drain.
// A stopped server can NOT be restarted — construct a fresh one (the
// kill-and-recover e2e restarts a whole replica this way on purpose).
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "net/socket.h"
#include "serve/server.h"

namespace staq::net {

class AqTcpServer {
 public:
  struct Options {
    /// 127.0.0.1 port to listen on; 0 picks an ephemeral port (tests).
    uint16_t port = 0;
    /// false: answer every Mutate with kFailedPrecondition (replica role).
    bool allow_mutations = true;
    /// Per-connection I/O timeout, seconds (0 = unbounded).
    double io_timeout_s = 30.0;
  };

  struct Stats {
    uint64_t connections = 0;      // accepted
    uint64_t frames = 0;           // requests served (all types)
    uint64_t errors = 0;           // Error frames sent
    uint64_t protocol_errors = 0;  // connections dropped on garbage input
  };

  /// `server` must outlive this object. Call Start() to begin serving.
  AqTcpServer(serve::AqServer* server, Options options);
  ~AqTcpServer();

  AqTcpServer(const AqTcpServer&) = delete;
  AqTcpServer& operator=(const AqTcpServer&) = delete;

  /// Binds the port and spawns the accept loop. kUnavailable if the port
  /// cannot be bound.
  util::Status Start();

  /// Shuts the listener and every live connection down and joins all
  /// threads. Safe to call twice; called by the destructor.
  void Stop();

  /// The bound port (valid after a successful Start()).
  uint16_t port() const { return port_; }
  bool running() const { return running_.load(std::memory_order_acquire); }
  Stats stats() const;

 private:
  /// One live connection's socket, shared with Stop() so shutdown can
  /// interrupt a blocked read. `close_mu` serialises the handler's Close()
  /// with Stop()'s check-and-shutdown: without it Stop could read the
  /// descriptor mid-close, or shut down a number the OS already reused.
  struct Conn {
    std::mutex close_mu;
    Socket socket;
    std::thread thread;
  };

  void AcceptLoop();
  void HandleConnection(Socket socket);
  /// Serves one decoded request frame; returns false when the connection
  /// should close (protocol violation).
  bool ServeFrame(Socket& socket, const Frame& frame);
  util::Status SendError(Socket& socket, uint64_t request_id,
                         const util::Status& status);

  serve::AqServer* server_;
  Options options_;
  Listener listener_;
  uint16_t port_ = 0;
  std::atomic<bool> running_{false};

  std::thread accept_thread_;
  std::mutex conns_mu_;
  std::vector<std::unique_ptr<Conn>> conns_;

  std::atomic<uint64_t> connections_{0};
  std::atomic<uint64_t> frames_{0};
  std::atomic<uint64_t> errors_{0};
  std::atomic<uint64_t> protocol_errors_{0};
};

}  // namespace staq::net
