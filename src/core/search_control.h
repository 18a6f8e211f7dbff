// SearchControl — the cooperative cancellation / deadline / progress block
// shared by every engine.
//
// A long-running B&B must be observable and stoppable without being torn
// down: the service layer (api/service.h) hands each job one SearchControl,
// and every backend — the serial BBEngine, the shared-pool mt engine and
// the work-stealing engine — polls it at its natural batch boundary (one
// bounding batch for BBEngine, one node expansion for the mtbb engines).
// Three concerns, all thread-safe:
//
//   * cancellation: request_cancel() from any thread; the search observes
//     it at the next should_stop() poll and unwinds with a consistent
//     partial result (StopReason::kCanceled).
//   * deadline: a steady-clock instant; should_stop() samples the clock
//     and latches StopReason::kDeadline once passed. It is the one
//     time-based stop (api::SolverConfig::deadline_ms).
//   * progress events: an optional sink receives SearchEvents — incumbent
//     improvements (gated so streamed incumbents are strictly improving
//     even when parallel workers race) and rate-limited periodic ticks.
//
// should_stop() latches: once it returns a reason it keeps returning that
// same reason, so every worker of a parallel engine agrees on why the
// search ended.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <limits>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "common/mutex.h"
#include "fsp/instance.h"

namespace fsbb::core {

namespace audit {
class IncumbentAudit;
}  // namespace audit

/// Why a solve returned. kOptimal means the search space was exhausted;
/// everything else is an early stop with a valid partial incumbent.
enum class StopReason {
  kOptimal,   ///< pool drained, incumbent proven optimal
  kCanceled,  ///< SearchControl::request_cancel observed
  kDeadline,  ///< deadline or engine time limit passed
  kBudget,    ///< node budget exhausted
  kFrozen,    ///< pool reached freeze_pool_size (§IV protocol snapshot)
};

const char* to_string(StopReason reason);

/// Inverse of to_string; throws CheckFailure on unknown spellings. The
/// distributed transport (dist/) round-trips stop reasons through NDJSON.
StopReason parse_stop_reason(const std::string& text);

/// One observation of a running search, pushed through the event sink.
struct SearchEvent {
  enum class Kind {
    kIncumbent,  ///< the incumbent improved (permutation attached)
    kTick,       ///< periodic counters heartbeat (rate limited)
  };

  Kind kind = Kind::kTick;
  /// Best makespan known when the event was emitted.
  fsp::Time incumbent = std::numeric_limits<fsp::Time>::max();
  /// The improving schedule (kIncumbent only; empty for ticks).
  std::vector<fsp::JobId> permutation;
  std::uint64_t branched = 0;
  std::uint64_t evaluated = 0;
  std::uint64_t pruned = 0;
  /// Seconds since the SearchControl was armed (construction).
  double elapsed_seconds = 0;
};

/// Shared control block for one solve. Engines only read atomics on the
/// hot path; the sink mutex is touched on improvements and ticks only.
class SearchControl {
 public:
  using Clock = std::chrono::steady_clock;
  using EventSink = std::function<void(const SearchEvent&)>;

  SearchControl();
  ~SearchControl();
  SearchControl(const SearchControl&) = delete;
  SearchControl& operator=(const SearchControl&) = delete;

  /// Asks the search to stop at its next poll. Idempotent, any thread.
  void request_cancel() { cancel_.store(true, std::memory_order_release); }
  bool cancel_requested() const {
    return cancel_.load(std::memory_order_acquire);
  }

  /// Hard wall-clock deadline. A deadline in the past (including
  /// set_deadline_after(0)) stops the search before it branches anything.
  void set_deadline(Clock::time_point when) {
    deadline_ns_.store(when.time_since_epoch().count(),
                       std::memory_order_release);
  }
  void set_deadline_after(double seconds) {
    set_deadline(Clock::now() +
                 std::chrono::duration_cast<Clock::duration>(
                     std::chrono::duration<double>(seconds)));
  }
  bool has_deadline() const {
    return deadline_ns_.load(std::memory_order_acquire) != kNoDeadline;
  }

  /// Installs the event sink. Call before the search starts; the sink may
  /// be invoked from any engine worker thread (invocations are serialized).
  /// min_tick_seconds rate-limits kTick events; incumbents always pass.
  void set_sink(EventSink sink, double min_tick_seconds = 0.2);

  /// The cooperative poll. Returns the reason to stop, or nullopt to keep
  /// searching. Latches the first reason observed.
  std::optional<StopReason> should_stop();

  /// Offers an upper bound discovered OUTSIDE this search — another
  /// process's incumbent, broadcast by a distributed coordinator. Atomic
  /// min, any thread, idempotent. Engines fold the offered bound into
  /// their incumbent at the next batch/expansion boundary, so a shard
  /// starts pruning against a sibling's schedule without ever seeing the
  /// permutation (the bound is valid globally; the schedule lives
  /// elsewhere). Does NOT stop the search and does NOT touch the event
  /// stream: only locally-discovered schedules are emitted.
  void offer_incumbent(fsp::Time upper_bound);

  /// The tightest externally offered bound, or Time max when none was
  /// offered. Cheap (one relaxed-ish atomic load) — engines may poll it
  /// every batch.
  fsp::Time external_incumbent() const {
    return external_ub_.load(std::memory_order_acquire);
  }

  /// Emits a kIncumbent event if `makespan` improves on every incumbent
  /// already streamed — the gate that keeps the event stream strictly
  /// improving even when parallel workers discover schedules out of order.
  void emit_incumbent(fsp::Time makespan, std::span<const fsp::JobId> perm,
                      std::uint64_t branched, std::uint64_t evaluated,
                      std::uint64_t pruned);

  /// Emits a kTick heartbeat unless one was emitted less than
  /// min_tick_seconds ago (or no sink is installed). Cheap when throttled:
  /// one relaxed atomic load + one clock read.
  void maybe_emit_tick(fsp::Time incumbent, std::uint64_t branched,
                       std::uint64_t evaluated, std::uint64_t pruned);

  double elapsed_seconds() const {
    return std::chrono::duration<double>(Clock::now() - start_).count();
  }

 private:
  static constexpr std::int64_t kNoDeadline =
      std::numeric_limits<std::int64_t>::min();

  /// First writer wins; everyone afterwards sees the same reason.
  StopReason latch(StopReason reason);
  void dispatch(const SearchEvent& event) FSBB_REQUIRES(sink_mu_);

  const Clock::time_point start_;
  std::atomic<bool> cancel_{false};
  std::atomic<std::int64_t> deadline_ns_{kNoDeadline};
  std::atomic<int> latched_{-1};
  std::atomic<fsp::Time> external_ub_{std::numeric_limits<fsp::Time>::max()};

  std::atomic<bool> has_sink_{false};
  std::atomic<std::int64_t> last_tick_ns_{kNoDeadline};
  /// Atomic: written by set_sink under sink_mu_, but read by the throttle
  /// fast path in maybe_emit_tick without taking the lock.
  std::atomic<std::int64_t> min_tick_ns_{0};

  Mutex sink_mu_;  // serializes sink calls + guards the fields below
  EventSink sink_ FSBB_GUARDED_BY(sink_mu_);
  fsp::Time best_emitted_ FSBB_GUARDED_BY(sink_mu_) =
      std::numeric_limits<fsp::Time>::max();
  /// Monotonicity auditor over the emitted stream (core/audit.h); attached
  /// by set_sink when auditing is enabled at that moment.
  std::unique_ptr<audit::IncumbentAudit> stream_audit_
      FSBB_GUARDED_BY(sink_mu_);
};

}  // namespace fsbb::core
