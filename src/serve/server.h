// serve::Server / serve::Client — the multi-tenant serving core.
//
// One Server owns the shared machinery every front end multiplexes onto:
// the api::SolverService worker pool, the admission controller, the
// canonical-instance result cache and the metrics registry. One Client is
// the per-peer protocol endpoint — the stdio daemon holds exactly one,
// the TCP listener holds one per connection — carrying the peer's job-id
// namespace and its serialized output sink.
//
// The request protocol is the fsbb_serve NDJSON vocabulary (see
// tools/fsbb_serve.cpp) extended for multi-tenancy:
//
//   {"op":"submit","id":"j1","cli":"--jobs 10 ...",
//    "tenant":"acme","priority":"low","cache":"use"}
//   {"op":"metrics"}
//
// On submit the Client runs, in order: config parsing → instance size
// policy (kMaxLbDataCells, checked before any matrix is built) → result-cache
// consultation (exact hit answers immediately; a cached-but-unproven
// incumbent becomes the job's root bound = warm start) → admission
// control (per-tenant quota, priority-scaled queue ceiling; rejections
// carry a machine-readable reason and a retry-after hint) → service
// submission. Completion callbacks stream the result, feed the cache,
// release the tenant's quota and record latency — whatever order jobs
// finish in.
//
// A Client must be owned by std::shared_ptr (job callbacks keep it alive
// past a disconnect); close() makes the sink a no-op and cancels the
// peer's jobs, so tearing a connection down mid-solve leaves the service
// draining in the background and the server healthy.
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <thread>

#include "api/service.h"
#include "common/json.h"
#include "common/mutex.h"
#include "serve/admission.h"
#include "serve/metrics.h"
#include "serve/result_cache.h"

namespace fsbb::serve {

/// Largest instance a submit may ask for, in fsp::LowerBoundData cells:
/// n·m(m−1)/2, one per job and machine couple. 2^22 is 44× the 500×20
/// Taillard class; the int16 JobId range alone would let a 2×32767
/// request make a worker build ~6.4 GB of bound tables.
inline constexpr std::uint64_t kMaxLbDataCells = std::uint64_t{1} << 22;

struct ServerOptions {
  /// Concurrent solve jobs (the SolverService worker pool).
  std::size_t workers = 8;
  /// Suppress progress events (results still flow).
  bool quiet_progress = false;
  /// Request-line cap, both transports; longer lines are discarded and
  /// answered with a structured error.
  std::size_t max_line_bytes = 1 << 20;
  AdmissionController::Options admission;
  ResultCache::Options cache;
  /// Socket sessions only: close a connection after this long without a
  /// complete request line (0 = never).
  std::uint64_t idle_timeout_ms = 0;
  /// Socket mode: concurrent connections accepted; extras are turned
  /// away with an error line.
  std::size_t max_connections = 64;
  /// Log a compact metrics line to stderr this often (0 = never).
  std::uint64_t metrics_interval_ms = 0;
  /// Socket mode: whether a client's "shutdown" op stops the whole
  /// server (CI teardown) instead of just its own session.
  bool allow_remote_shutdown = false;
};

/// Shared serving state. Construction starts the service workers (and the
/// metrics logger when configured); destruction cancels in-flight jobs
/// and drains them.
class Server {
 public:
  explicit Server(ServerOptions options);
  ~Server();

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  const ServerOptions& options() const { return options_; }
  api::SolverService& service() { return service_; }
  AdmissionController& admission() { return admission_; }
  ResultCache& cache() { return cache_; }
  Metrics& metrics() { return metrics_; }

  /// The full metrics registry + live queue snapshot as one JSON object.
  std::string metrics_json();

 private:
  const ServerOptions options_;
  Metrics metrics_;
  AdmissionController admission_;
  ResultCache cache_;
  std::atomic<bool> stop_logger_{false};
  std::thread logger_;
  api::SolverService service_;  // last member: jobs drain first on teardown
};

/// One protocol endpoint. The sink receives complete single-line JSON
/// events, already serialized (never concurrently) and never after
/// close() returned.
class Client : public std::enable_shared_from_this<Client> {
 public:
  using Sink = std::function<void(const std::string&)>;

  enum class Action {
    kContinue,  ///< keep reading
    kShutdown,  ///< the peer asked to shut down (transport decides scope)
  };

  Client(Server& server, Sink sink);

  /// Handles one normalized request line.
  Action handle_line(const std::string& line);

  /// Answers an over-long request line with a structured error.
  void handle_oversized_line();

  /// Stops all output to the sink, then cancels this peer's jobs. Safe to
  /// call twice; after it returns the sink is never invoked again.
  void close();

  /// Cancels this peer's jobs without muting the sink (stdio shutdown:
  /// the canceled results still stream before the process exits).
  void cancel_all();

  /// Blocks until every job submitted by this peer reached a terminal
  /// state (results still stream unless close() ran first).
  void drain();

  /// Jobs of this peer not yet forgotten (terminal results evict).
  std::size_t jobs_open() const;

 private:
  void submit(const JsonValue& request);
  void cancel(const JsonValue& request);
  void status(const JsonValue& request);
  void metrics_request();
  void reject(const std::string& id, const std::string& error);
  void protocol_error(const std::string& error);
  /// Serialized, close-gated write to the sink.
  void emit(const std::string& json);

  Server& server_;
  const Sink sink_;
  Mutex out_mu_;
  bool closed_ FSBB_GUARDED_BY(out_mu_) = false;
  mutable Mutex mu_;
  std::map<std::string, api::SolveHandle> jobs_ FSBB_GUARDED_BY(mu_);
};

}  // namespace fsbb::serve
