// serve::Listener — the TCP front end of the serving layer.
//
// Accepts loopback (or any bound-address) connections and runs one
// Session per peer: a reader thread feeding a BoundedLineReader, a
// mutex-serialized socket writer as the peer's Client sink, and the full
// multi-tenant submit pipeline behind it (serve::Client). All sessions
// multiplex onto the one Server — its SolverService pool, admission
// quotas, result cache and metrics are shared across connections, which
// is the whole point: N clients, one incumbent cache, one set of quotas.
//
// Lifecycle properties the tests pin:
//   * port 0 binds an ephemeral port; port() reports the real one.
//   * a peer disconnecting mid-solve (or exceeding the idle timeout) gets
//     its jobs canceled and its fd closed; the service drains in the
//     background and the server keeps answering other connections.
//   * connections beyond max_connections receive one structured error
//     line and are closed without a session thread.
//   * request_stop() (any thread) unwinds the accept loop and every
//     session within one poll tick; serve() returns with all threads
//     joined and all fds closed.
//
// A peer's {"op":"shutdown"} closes only its own session unless the
// server was started with allow_remote_shutdown (CI teardown), in which
// case it stops the whole listener.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/mutex.h"
#include "serve/server.h"

namespace fsbb::serve {

/// Per-connection socket setup, applied to every accepted fd before its
/// first write. Sets TCP_NODELAY: a submit answers with two small frames
/// (accepted, then result), and with Nagle on the kernel holds the second
/// until the peer's delayed ACK of the first arrives (~40 ms on Linux).
/// Returns false (errno set) if the option cannot be set.
bool configure_session_socket(int fd);

class Listener {
 public:
  struct Options {
    std::string bind_address = "127.0.0.1";
    /// 0 = ephemeral; the bound port is reported by port().
    std::uint16_t port = 0;
  };

  /// Binds and listens (throwing CheckFailure on failure); the accept
  /// loop does not run until serve().
  Listener(Server& server, Options options);
  ~Listener();

  Listener(const Listener&) = delete;
  Listener& operator=(const Listener&) = delete;

  /// The actually bound port (resolves port 0).
  std::uint16_t port() const { return port_; }

  /// Blocking accept loop; returns after request_stop() with every
  /// session joined and every fd closed.
  void serve();

  /// Thread- and signal-safe stop request; serve() unwinds within one
  /// poll tick (~200ms).
  void request_stop() { stop_.store(true, std::memory_order_relaxed); }

  bool stop_requested() const {
    return stop_.load(std::memory_order_relaxed);
  }

  /// Sessions whose thread is still running (joins finished ones).
  std::size_t active_sessions();

 private:
  struct Session;

  void run_session(Session* session, int fd);
  /// Joins sessions whose loop ended; under mu_.
  void reap_locked() FSBB_REQUIRES(mu_);

  Server& server_;
  const Options options_;
  int listen_fd_ = -1;
  std::uint16_t port_ = 0;
  std::atomic<bool> stop_{false};
  Mutex mu_;
  std::vector<std::unique_ptr<Session>> sessions_ FSBB_GUARDED_BY(mu_);
};

}  // namespace fsbb::serve
