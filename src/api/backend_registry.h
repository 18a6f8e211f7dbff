// String-keyed backend registry — the pluggable seam of the facade.
//
// A Backend owns everything one solve needs beyond the shared instance +
// LB data: the bounding evaluator (core/, gpubb/) or the whole search
// (mtbb/), plus any device state. New execution modes register a factory
// under a key; the engine, the Solver facade, the CLI and every bench pick
// them up without code changes — the paper's "one search, interchangeable
// bounding operators" made concrete.
//
// Built-in keys (all deterministic given the config):
//
//   cpu-serial   serial host bounding (LB0/LB1/LB2 per config.bound)
//   cpu-threads  LB1 fanned over a host thread pool (config.threads)
//   callback     serial CallbackEvaluator around the configured bound —
//                the template for out-of-tree bounds
//   gpu-sim      the paper's hybrid CPU + simulated-GPU B&B
//   adaptive     batch-size routed CPU-threads / GPU hybrid (§VI outlook)
//   cpu-steal    work-stealing sharded-pool B&B (one deque per worker,
//                round-robin oldest-first steals; ignores strategy, batch
//                and time limit; node counts vary across runs, results do
//                not; steal statistics in the result)
#pragma once

#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "api/solver_config.h"
#include "common/mutex.h"
#include "core/engine.h"
#include "core/evaluator.h"
#include "fsp/instance.h"
#include "fsp/lb_data.h"

namespace fsbb::api {

/// Everything a factory may capture. All pointers outlive the Backend.
struct BackendContext {
  const fsp::Instance* instance = nullptr;
  const fsp::LowerBoundData* data = nullptr;
  const SolverConfig* config = nullptr;
  /// Cooperative cancellation / deadline / progress block for this solve
  /// (may be null — solves are then uninterruptible but fully valid).
  core::SearchControl* control = nullptr;
  /// Ask engine-driven backends to keep the unexplored pool in the result
  /// when stopping early (SolveResult::remaining_pool) — the distributed
  /// worker checkpoints from it. Backends without a serial pool
  /// (cpu-steal) ignore this; probe collects_remaining_pool().
  bool collect_pool_on_stop = false;
};

/// One ready-to-run execution mode bound to a specific instance + config.
class Backend {
 public:
  virtual ~Backend() = default;

  /// The registry key this backend was created under (machine-stable).
  virtual std::string name() const = 0;
  /// Human detail: the bounding operator's self-description ("" if n/a).
  virtual std::string detail() const { return {}; }

  /// Solves from the root, honoring the config's limits.
  virtual core::SolveResult solve() = 0;
  /// Explores a frozen node list with a given incumbent (§IV protocol).
  virtual core::SolveResult solve_from(std::vector<core::Subproblem> initial,
                                       fsp::Time initial_ub) = 0;

  /// The evaluator's ledger, if this backend drives one (else nullptr).
  virtual const core::EvalLedger* eval_ledger() const { return nullptr; }

  /// True when an early stop can hand back the unexplored pool
  /// (BackendContext::collect_pool_on_stop → SolveResult::remaining_pool).
  /// The distributed worker requires this to checkpoint; the mtbb engine
  /// (cpu-steal) scatters its pool across threads and cannot.
  virtual bool collects_remaining_pool() const { return false; }
};

/// Process-wide key → factory map. Thread-safe; keys list deterministically.
class BackendRegistry {
 public:
  using Factory =
      std::function<std::unique_ptr<Backend>(const BackendContext&)>;

  /// The global registry, with the built-in backends pre-registered.
  static BackendRegistry& global();

  /// Registers a backend; throws CheckFailure on duplicate keys.
  void add(std::string key, std::string description, Factory factory);

  bool contains(const std::string& key) const;
  std::vector<std::string> keys() const;  ///< sorted, machine-independent
  std::string description(const std::string& key) const;

  /// Throws CheckFailure naming the registered keys unless `key` exists.
  void require(const std::string& key) const;

  /// Instantiates `key` for the context. Throws CheckFailure naming the
  /// registered keys when the key is unknown.
  std::unique_ptr<Backend> create(const std::string& key,
                                  const BackendContext& ctx) const;

 private:
  struct Entry {
    std::string description;
    Factory factory;
  };

  mutable Mutex mu_;
  std::map<std::string, Entry> entries_ FSBB_GUARDED_BY(mu_);
};

}  // namespace fsbb::api
