// SolverService — the asynchronous job front door of the library.
//
//   api::SolverService service({.workers = 8});
//   api::SolveHandle job = service.submit(instance, config,
//                                         [](const api::ProgressEvent& e) {
//                                           std::cerr << e.to_json() << "\n";
//                                         });
//   ...
//   job.cancel();                        // cooperative, any thread
//   const api::SolveOutcome& out = job.wait();
//
// The paper's B&B is a long-running, irregular search; the service turns
// it into a managed job: submit() validates the config and returns a
// SolveHandle future immediately, a fixed pool of service workers
// multiplexes the queued jobs, and each job carries its own
// core::SearchControl so it can be canceled, bounded by a hard deadline
// (SolverConfig::deadline_ms, measured from submission) and observed
// through streaming ProgressEvents. Every backend stops cooperatively at
// a bounding-batch boundary and reports why in SolveReport::stop_reason.
//
// The synchronous api::Solver facade is a thin wrapper over this service,
// so both paths run the exact same code.
#pragma once

#include <cstdint>
#include <deque>
#include <exception>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "api/events.h"
#include "common/mutex.h"
#include "api/report.h"
#include "api/solver_config.h"
#include "core/protocol.h"
#include "core/search_control.h"
#include "fsp/instance.h"

namespace fsbb::api {

/// Terminal outcome of one job: a report, or the error that ended it.
/// The exception pointer preserves the original type for synchronous
/// rethrow; `error` is its message, for transports (NDJSON) and logs.
struct SolveOutcome {
  std::optional<SolveReport> report;
  /// The failure's client-facing text (fsbb::user_message: no failed
  /// expression or source location); `exception` keeps the full what().
  std::string error;
  std::exception_ptr exception;

  bool ok() const { return report.has_value(); }
};

namespace detail {
struct JobBlock;

/// The one execution path every solve goes through (service workers and
/// the synchronous facade alike): builds the LB data and the backend,
/// arms the deadline, runs the search, fills the report.
SolveReport execute_solve(const fsp::Instance& inst,
                          const SolverConfig& config,
                          core::SearchControl* control,
                          const core::FrozenPool* frozen = nullptr);
}  // namespace detail

/// Future for one submitted job. Cheap to copy (shared state); an empty
/// handle (default-constructed) is invalid until assigned from submit().
class SolveHandle {
 public:
  SolveHandle() = default;

  bool valid() const { return block_ != nullptr; }
  std::uint64_t id() const;
  JobState state() const;
  /// True once the job reached a terminal state (done/canceled/failed).
  bool done() const;

  /// Requests cooperative cancellation; idempotent, returns immediately.
  /// The job still produces an outcome: a partial report whose stop
  /// reason is canceled (or its natural outcome if it won the race).
  void cancel();

  /// Blocks until the job is terminal; never throws on job failure (the
  /// outcome carries the error instead).
  const SolveOutcome& wait();

  /// wait(), then returns the report or rethrows the job's exception with
  /// its original type — the synchronous facade's error semantics.
  SolveReport wait_report();

  /// Non-blocking: the outcome if terminal, nullopt while queued/running.
  std::optional<SolveOutcome> try_get() const;

  /// Offers an externally known upper bound to this job's search (see
  /// core::SearchControl::offer_incumbent): the engine folds it in at its
  /// next batch boundary and prunes against it from then on. Safe before
  /// the job starts (the bound is read at engine start) and while it
  /// runs; a no-op once the job is terminal. The serving layer's result
  /// cache uses this to warm-start repeated instances from cached
  /// incumbents.
  void offer_incumbent(fsp::Time upper_bound);

 private:
  friend class SolverService;
  explicit SolveHandle(std::shared_ptr<detail::JobBlock> block)
      : block_(std::move(block)) {}

  std::shared_ptr<detail::JobBlock> block_;
};

/// Point-in-time view of the service queue — what admission control and
/// the metrics exporter need without reaching into the job table.
struct QueueSnapshot {
  std::size_t queued = 0;    ///< accepted, waiting for a worker
  std::size_t running = 0;   ///< currently on a worker
  std::uint64_t submitted = 0;  ///< accepted over the service's lifetime
  std::uint64_t completed = 0;  ///< reached a terminal state
  /// Seconds since the oldest non-terminal job was submitted (queue wait
  /// included); 0 when the service is idle.
  double oldest_age_seconds = 0;

  std::string to_json() const;
};

/// Fixed worker pool multiplexing asynchronous solve jobs.
class SolverService {
 public:
  struct Options {
    /// Jobs running concurrently (each backend may add its own threads).
    std::size_t workers = 4;
  };

  using EventCallback = std::function<void(const ProgressEvent&)>;
  using CompletionCallback = std::function<void(const SolveOutcome&)>;

  SolverService() : SolverService(Options{}) {}
  explicit SolverService(Options options);

  /// Cancels every queued and running job, then joins the workers. Jobs
  /// still reach a terminal state (canceled), so held handles stay valid.
  ~SolverService();

  SolverService(const SolverService&) = delete;
  SolverService& operator=(const SolverService&) = delete;

  /// Validates the config (throwing CheckFailure on misconfiguration
  /// before anything runs) and enqueues the job. `on_event` streams
  /// progress (from service worker threads; incumbents arrive in strictly
  /// improving order, ticks rate-limited per config.progress_interval_ms,
  /// one terminal kFinished event last). `on_complete` fires once with
  /// the outcome, after the terminal event, before wait() unblocks.
  /// If config.deadline_ms is set the deadline clock starts now — queue
  /// wait counts against it.
  SolveHandle submit(fsp::Instance instance, SolverConfig config,
                     EventCallback on_event = nullptr,
                     CompletionCallback on_complete = nullptr);

  std::size_t workers() const { return workers_.size(); }
  /// Jobs accepted over the service's lifetime.
  std::uint64_t jobs_submitted() const;
  /// Jobs not yet terminal (queued + running).
  std::size_t jobs_active() const;
  /// Consistent point-in-time queue counts + oldest-job age.
  QueueSnapshot snapshot() const;

 private:
  void worker_loop();
  void run_job(const std::shared_ptr<detail::JobBlock>& job);

  mutable Mutex mu_;
  CondVar cv_;
  std::deque<std::shared_ptr<detail::JobBlock>> queue_ FSBB_GUARDED_BY(mu_);
  std::vector<std::shared_ptr<detail::JobBlock>> live_ FSBB_GUARDED_BY(mu_);
  std::uint64_t next_id_ FSBB_GUARDED_BY(mu_) = 1;
  std::uint64_t submitted_ FSBB_GUARDED_BY(mu_) = 0;
  bool stop_ FSBB_GUARDED_BY(mu_) = false;

  std::vector<std::thread> workers_;
};

}  // namespace fsbb::api
