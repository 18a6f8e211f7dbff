// SolveReport — the structured outcome of one facade solve.
//
// Replaces ad-hoc stdout printing: the config echo makes the run
// reproducible (config.to_cli() is a working command line), the engine
// stats and evaluator ledger make it comparable, and to_json() makes it
// machine-readable for harnesses that aggregate many runs.
#pragma once

#include <iosfwd>
#include <optional>
#include <string>
#include <vector>

#include "api/solver_config.h"
#include "common/json.h"
#include "core/engine.h"
#include "core/evaluator.h"

namespace fsbb::api {

/// The JSON string-literal escaper (common/json.h), re-exported from its
/// original home so api::json_escape keeps working.
using fsbb::json_escape;

struct SolveReport {
  SolverConfig config;  ///< echo of the requesting configuration

  std::string instance_name;
  int jobs = 0;
  int machines = 0;

  std::string backend;    ///< registry key that ran the solve
  std::string evaluator;  ///< bounding operator detail ("" when n/a)

  fsp::Time best_makespan = 0;
  std::vector<fsp::JobId> best_permutation;  ///< empty if nothing beat the UB
  bool proven_optimal = false;
  /// Why the solve returned (optimal | canceled | deadline | budget |
  /// frozen); anything but optimal is an early stop whose incumbent is
  /// still a valid schedule bound.
  core::StopReason stop_reason = core::StopReason::kOptimal;

  core::EngineStats stats;
  /// Bounding-operator totals; unset for backends without an evaluator
  /// seam (cpu-steal).
  std::optional<core::EvalLedger> eval;
  /// Work-stealing traffic; set only by sharded-pool backends (cpu-steal).
  std::optional<core::StealStats> steal;
  /// Per-shard occupancy of a device-resident pool; set only by backends
  /// that ran resident offload iterations (gpu-sim/adaptive).
  std::optional<core::ResidentPoolStats> pool;

  /// Single-line-per-field JSON object, deterministic key order.
  std::string to_json() const;

  /// Human-readable multi-line summary (what the examples print).
  void print_text(std::ostream& os) const;
};

std::ostream& operator<<(std::ostream& os, const SolveReport& report);

/// EngineStats ⇄ JSON (the exact "stats" object SolveReport::to_json
/// emits). The distributed transport ships per-worker stats through
/// NDJSON and the coordinator parses them back to aggregate.
std::string engine_stats_to_json(const core::EngineStats& stats);
core::EngineStats engine_stats_from_json(const JsonValue& value);

/// ResidentPoolStats ⇄ JSON (the exact "pool" object SolveReport::to_json
/// emits). The multi-device dimension is additive: single-device emitters
/// write devices = 1, rebalanced = 0 and shard device = 0, and from_json
/// defaults the same way, so the pre-multi-device flat shape (no "devices",
/// no per-shard "device") still parses.
std::string pool_stats_to_json(const core::ResidentPoolStats& stats);
core::ResidentPoolStats pool_stats_from_json(const JsonValue& value);

/// Folds one worker's stats into an aggregate: operator counters and
/// bounding time sum; wall time takes the max (the workers ran
/// concurrently); initial_ub keeps `into`'s value unless it is unset (0).
void accumulate_engine_stats(core::EngineStats& into,
                             const core::EngineStats& more);

/// Merges stop reasons for an aggregate report: optimal only when both
/// sides finished optimal, otherwise the more severe early-stop wins
/// (canceled > deadline > budget > frozen > optimal).
core::StopReason combine_stop_reasons(core::StopReason a, core::StopReason b);

}  // namespace fsbb::api
