// dist::Coordinator — multi-process sharded solving over fsbb_serve.
//
// The coordinator grows a root frontier (dist/frontier.h), deals it into
// one frozen sub-pool per worker, and drives N `fsbb_serve --worker`
// child processes over stdin/stdout NDJSON pipes:
//
//            ┌────────────┐  solve/inject/recall   ┌──────────────────┐
//            │            │ ─────────────────────→ │ fsbb_serve       │
//            │ Coordinator│ ←───────────────────── │   --worker  (×N) │
//            │  (1 proc)  │  incumbent/checkpoint/ └──────────────────┘
//            └────────────┘  recalled/done
//
// Three control loops run over the same poll(2) event pump:
//   * incumbent bus: every worker-discovered schedule is offered to the
//     monotone IncumbentBus and, when it improves, broadcast to every
//     other busy worker as an inject_incumbent — shards prune against the
//     fleet-wide best without sharing memory.
//   * rebalancing: when the shard queue is empty and a worker sits idle,
//     the busiest live shard (most nodes at its last checkpoint) is
//     recalled, split in two, and both halves re-dispatched.
//   * supervision: a worker that dies (crash, SIGKILL) is respawned with
//     backoff and its shard re-dispatched from the last acked checkpoint
//     (or its original sub-pool when it never checkpointed) — the final
//     optimum is exact either way, because checkpoints carry the complete
//     remaining sub-pool.
//
// The run returns an aggregate api::SolveReport: per-worker EngineStats
// merged (api::accumulate_engine_stats), stop reasons combined, the best
// schedule from the bus.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <string>
#include <vector>

#include "api/report.h"
#include "api/solver_config.h"
#include "dist/incumbent_bus.h"
#include "dist/process.h"
#include "fsp/instance.h"
#include "serve/line_io.h"

namespace fsbb::dist {

struct CoordinatorOptions {
  std::size_t workers = 2;          ///< worker processes to spawn
  std::size_t frontier_nodes = 64;  ///< root frontier target size
  std::uint64_t slice_nodes = 2000; ///< worker checkpoint granularity
  /// Worker argv; empty → `<dir of this binary>/fsbb_serve --worker`.
  std::vector<std::string> worker_command;
  /// Respawns tolerated across the whole run before a dead worker slot is
  /// abandoned (the run still completes on the surviving workers).
  std::size_t max_respawns = 3;
  double respawn_backoff_seconds = 0.05;
  /// Fault injection for tests/CI: SIGKILL worker index `kill_worker`
  /// once it has acked `kill_after_checkpoints` checkpoints (-1 = off).
  int kill_worker = -1;
  std::size_t kill_after_checkpoints = 1;
  /// Optional human-readable progress log (one line per call).
  std::function<void(const std::string&)> on_log;
};

/// Run counters, for logs and the CLI summary.
struct DistSummary {
  std::size_t shards_dispatched = 0;
  std::size_t shards_completed = 0;
  std::size_t broadcasts = 0;  ///< inject_incumbent fan-outs
  std::size_t rebalances = 0;  ///< recall → split → re-dispatch cycles
  std::size_t respawns = 0;    ///< workers restarted after death
};

class Coordinator {
 public:
  /// `config` is the per-shard solve configuration (backend, bound, …);
  /// its instance spec must describe exactly one instance and its backend
  /// must be able to checkpoint (engine backends; not multicore/cpu-steal
  /// — the worker enforces this too).
  Coordinator(fsp::Instance instance, api::SolverConfig config,
              CoordinatorOptions options);

  /// Runs the distributed solve to completion and returns the aggregate
  /// report. Throws CheckFailure when every worker is gone while shards
  /// remain. Call once.
  api::SolveReport run();

  const DistSummary& summary() const { return summary_; }

 private:
  /// Worker stdout is trusted and a checkpoint line carries a whole
  /// sub-pool, so the coordinator reads it without a length cap: no line
  /// is ever dropped as oversized.
  static constexpr std::size_t kUncappedLine = SIZE_MAX;

  struct Slot {
    Subprocess proc;
    serve::BoundedLineReader reader{kUncappedLine};
    bool alive = false;
    bool eof = false;
    bool busy = false;
    bool recall_pending = false;
    std::string shard_id;
    /// The text (core/pool_io) that restarts this worker's shard: the
    /// dispatched sub-pool, advanced by every acked checkpoint.
    std::string pool_text;
    std::size_t pool_nodes = 0;
    std::size_t checkpoints_acked = 0;
    bool kill_injected = false;
  };

  void log(const std::string& message) const;
  void spawn(std::size_t index);
  void dispatch(std::size_t index, std::string pool_text);
  void dispatch_pending();
  void maybe_rebalance();
  void broadcast_incumbent(fsp::Time value, std::size_t source);
  void handle_event(std::size_t index, const std::string& line);
  void handle_death(std::size_t index);
  void pump_events();
  bool any_busy() const;
  std::size_t alive_workers() const;
  api::SolveReport make_report(double wall_seconds) const;

  fsp::Instance instance_;
  api::SolverConfig config_;
  CoordinatorOptions options_;

  std::vector<Slot> slots_;
  std::deque<std::string> pending_;  ///< queued shard pool texts
  IncumbentBus bus_;
  core::EngineStats stats_;
  bool proven_ = true;
  core::StopReason stop_reason_ = core::StopReason::kOptimal;
  std::uint64_t next_shard_ = 0;
  DistSummary summary_;
  bool ran_ = false;
};

}  // namespace fsbb::dist
