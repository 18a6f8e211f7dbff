// fsbb_serve — the long-running NDJSON solve server (stdio or TCP).
//
// Front door of the library as a process: requests are one JSON object
// per line, events are one JSON object per line (NDJSON both ways). The
// protocol and all multi-tenant behavior — per-tenant admission quotas,
// the canonical-instance result cache with incumbent warm starts, the
// metrics registry — live in src/serve/; this file only wires a
// transport to it:
//
//   fsbb_serve                 stdio daemon: one peer over stdin/stdout
//   fsbb_serve --listen 5555   TCP server on 127.0.0.1:5555, any number
//                              of concurrent connections multiplexed
//                              onto one solver pool + one result cache
//   fsbb_serve --listen 0      ephemeral port; the first stdout line is
//                              {"event":"listening","port":N}
//
// Flags:
//   --workers N               concurrent jobs (default 8)
//   --quiet-progress          suppress progress events (results still flow)
//   --listen PORT             TCP mode on 127.0.0.1 (0 = ephemeral)
//   --max-line-bytes N        request-line cap, both modes (default 1 MiB);
//                             longer lines answer {"event":"error",...}
//   --max-tenant-jobs N       per-tenant concurrent job quota (default 4,
//                             0 = unlimited)
//   --max-queue-depth N       service backlog ceiling (default 256, 0 =
//                             unlimited; low-priority sheds at 50%,
//                             normal at 85%)
//   --idle-timeout-ms N       TCP: drop connections idle this long (0 = off)
//   --max-connections N       TCP: concurrent connections (default 64)
//   --cache-capacity N        canonical result-cache entries (default 1024)
//   --metrics-interval-ms N   log a metrics line to stderr this often
//   --allow-remote-shutdown   TCP: {"op":"shutdown"} stops the whole
//                             server instead of one session (CI teardown)
//   --worker                  distributed worker mode (dist/ shard
//                             protocol; see src/dist/worker.h)
//
// Requests:
//   {"op":"submit","id":"j1","cli":"--jobs 12 --machines 8 --backend cpu-steal",
//    "tenant":"acme","priority":"low","cache":"use"}
//   {"op":"submit","id":"j2","cli":"--backend cpu-steal",
//    "instance":{"name":"acme-1","ptm":[[5,3,2],[1,4,4]]}}   explicit matrix
//   {"op":"cancel","id":"j1"}
//   {"op":"status"}            one status event per known job
//   {"op":"metrics"}           full serve::Metrics registry + queue snapshot
//   {"op":"shutdown"}          stdio: cancel everything, drain, exit;
//                              TCP: close this session (see above)
//   (stdio EOF waits for in-flight jobs, then exits.)
//
// The "cli" payload is the exact flag language of fsbb_solve /
// SolverConfig::from_argv — one config surface for every front end; the
// top-level "tenant"/"priority" fields override their cli equivalents.
//
// Events: accepted (with tenant/priority/cache disposition), rejected
// (admission rejects carry "reason" + "retry_after_ms"), progress,
// result, status, metrics, error. Job ids are forgotten once their
// result event streamed, so an id may be reused afterwards.
#include <csignal>
#include <iostream>
#include <memory>
#include <string>

#include "common/cli.h"
#include "common/json.h"
#include "dist/worker.h"
#include "serve/line_io.h"
#include "serve/listener.h"
#include "serve/server.h"

namespace {

using namespace fsbb;

serve::Listener* g_listener = nullptr;

void handle_signal(int) {
  if (g_listener != nullptr) g_listener->request_stop();
}

std::size_t size_flag(const CliArgs& args, const std::string& name,
                      std::int64_t fallback, std::int64_t min_value) {
  const std::int64_t v = args.get_int_or(name, fallback);
  if (v < min_value) {
    throw CheckFailure("--" + name + " must be >= " +
                       std::to_string(min_value));
  }
  return static_cast<std::size_t>(v);
}

int run_stdio(serve::Server& server) {
  auto client = std::make_shared<serve::Client>(
      server, [](const std::string& json) {
        // The Client serializes sink calls; this just writes.
        std::cout << json << "\n" << std::flush;
      });

  std::string line;
  bool shutdown = false;
  while (!shutdown) {
    const serve::LineStatus status = serve::read_line_bounded(
        std::cin, line, server.options().max_line_bytes);
    if (status == serve::LineStatus::kEof) break;
    if (status == serve::LineStatus::kOversized) {
      client->handle_oversized_line();
      continue;
    }
    if (!serve::normalize_transport_line(line)) continue;
    shutdown = client->handle_line(line) == serve::Client::Action::kShutdown;
  }
  if (shutdown) client->cancel_all();  // explicit shutdown: stop everything
  client->drain();  // EOF: let in-flight jobs finish, results still stream
  return 0;
}

int run_listener(serve::Server& server, std::uint16_t port) {
  serve::Listener listener(server, {.port = port});
  g_listener = &listener;
  std::signal(SIGINT, handle_signal);
  std::signal(SIGTERM, handle_signal);

  JsonWriter o;
  o.str("event", "listening");
  o.integer("port", listener.port());
  std::cout << o.done() << "\n" << std::flush;

  listener.serve();
  g_listener = nullptr;
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  serve::ServerOptions options;
  bool listen = false;
  std::uint16_t port = 0;
  try {
    const CliArgs args = CliArgs::parse(
        argc, argv,
        {"workers", "listen", "max-line-bytes", "max-tenant-jobs",
         "max-queue-depth", "idle-timeout-ms", "max-connections",
         "cache-capacity", "metrics-interval-ms"},
        {"quiet-progress", "worker", "allow-remote-shutdown"});
    if (args.has("worker")) {
      return dist::run_worker(std::cin, std::cout);
    }
    options.workers = size_flag(args, "workers", 8, 1);
    options.quiet_progress = args.has("quiet-progress");
    options.max_line_bytes = size_flag(args, "max-line-bytes", 1 << 20, 2);
    options.admission.max_tenant_jobs =
        size_flag(args, "max-tenant-jobs", 4, 0);
    options.admission.max_queue_depth =
        size_flag(args, "max-queue-depth", 256, 0);
    options.idle_timeout_ms = static_cast<std::uint64_t>(
        size_flag(args, "idle-timeout-ms", 0, 0));
    options.max_connections = size_flag(args, "max-connections", 64, 1);
    options.cache.capacity = size_flag(args, "cache-capacity", 1024, 1);
    options.metrics_interval_ms = static_cast<std::uint64_t>(
        size_flag(args, "metrics-interval-ms", 0, 0));
    options.allow_remote_shutdown = args.has("allow-remote-shutdown");
    if (args.has("listen")) {
      const std::int64_t p = args.get_int_or("listen", 0);
      if (p < 0 || p > 65535) {
        throw CheckFailure("--listen must be a port in [0, 65535]");
      }
      listen = true;
      port = static_cast<std::uint16_t>(p);
    }
  } catch (const std::exception& e) {
    std::cerr << e.what()
              << "\nusage: fsbb_serve [--workers N] [--quiet-progress]"
                 " [--listen PORT] [--max-line-bytes N]"
                 " [--max-tenant-jobs N] [--max-queue-depth N]"
                 " [--idle-timeout-ms N] [--max-connections N]"
                 " [--cache-capacity N] [--metrics-interval-ms N]"
                 " [--allow-remote-shutdown] [--worker]"
                 "  (NDJSON requests on stdin or the socket)\n";
    return 1;
  }

  serve::Server server(options);
  return listen ? run_listener(server, port) : run_stdio(server);
}
