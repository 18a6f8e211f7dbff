#include "api/service.h"

#include <algorithm>
#include <utility>

#include "api/backend_registry.h"
#include "common/check.h"

namespace fsbb::api {

namespace detail {

/// Shared state of one job. The control block lives here so cancel() and
/// the deadline outlive the running engine; `mu` guards the state machine
/// and the outcome, `cv` wakes wait()ers on the terminal transition.
struct JobBlock {
  JobBlock(std::uint64_t job_id, fsp::Instance inst, SolverConfig cfg)
      : id(job_id), instance(std::move(inst)), config(std::move(cfg)) {}

  const std::uint64_t id;
  const fsp::Instance instance;
  const SolverConfig config;
  core::SearchControl control;
  SolverService::EventCallback on_event;
  SolverService::CompletionCallback on_complete;

  Mutex mu;
  CondVar cv;
  JobState state FSBB_GUARDED_BY(mu) = JobState::kQueued;
  SolveOutcome outcome FSBB_GUARDED_BY(mu);  // set once, terminal
};

namespace {

bool is_terminal(JobState state) {
  return state == JobState::kDone || state == JobState::kCanceled ||
         state == JobState::kFailed;
}

}  // namespace

SolveReport execute_solve(const fsp::Instance& inst,
                          const SolverConfig& config,
                          core::SearchControl* control,
                          const core::FrozenPool* frozen) {
  const fsp::LowerBoundData data = fsp::LowerBoundData::build(inst);
  const BackendContext ctx{&inst, &data, &config, control};
  const std::unique_ptr<Backend> backend =
      BackendRegistry::global().create(config.backend, ctx);

  const core::SolveResult result =
      frozen ? backend->solve_from(frozen->nodes, frozen->incumbent)
             : backend->solve();

  SolveReport report;
  report.config = config;
  report.instance_name = inst.name();
  report.jobs = inst.jobs();
  report.machines = inst.machines();
  report.backend = backend->name();
  report.evaluator = backend->detail();
  report.best_makespan = result.best_makespan;
  report.best_permutation = result.best_permutation;
  report.proven_optimal = result.proven_optimal;
  report.stop_reason = result.stop_reason;
  report.stats = result.stats;
  report.steal = result.steal;
  report.pool = result.pool;
  if (const core::EvalLedger* ledger = backend->eval_ledger()) {
    report.eval = *ledger;
  }
  return report;
}

}  // namespace detail

// ---------------------------------------------------------- SolveHandle --

std::uint64_t SolveHandle::id() const {
  FSBB_CHECK_MSG(valid(), "empty SolveHandle");
  return block_->id;
}

JobState SolveHandle::state() const {
  FSBB_CHECK_MSG(valid(), "empty SolveHandle");
  const LockGuard lock(block_->mu);
  return block_->state;
}

bool SolveHandle::done() const { return detail::is_terminal(state()); }

void SolveHandle::cancel() {
  FSBB_CHECK_MSG(valid(), "empty SolveHandle");
  block_->control.request_cancel();
}

const SolveOutcome& SolveHandle::wait() {
  FSBB_CHECK_MSG(valid(), "empty SolveHandle");
  UniqueLock lock(block_->mu);
  while (!detail::is_terminal(block_->state)) block_->cv.wait(lock);
  return block_->outcome;
}

SolveReport SolveHandle::wait_report() {
  const SolveOutcome& outcome = wait();
  if (!outcome.ok()) std::rethrow_exception(outcome.exception);
  return *outcome.report;
}

std::optional<SolveOutcome> SolveHandle::try_get() const {
  FSBB_CHECK_MSG(valid(), "empty SolveHandle");
  const LockGuard lock(block_->mu);
  if (!detail::is_terminal(block_->state)) return std::nullopt;
  return block_->outcome;
}

void SolveHandle::offer_incumbent(fsp::Time upper_bound) {
  FSBB_CHECK_MSG(valid(), "empty SolveHandle");
  block_->control.offer_incumbent(upper_bound);
}

// -------------------------------------------------------- SolverService --

SolverService::SolverService(Options options) {
  FSBB_CHECK_MSG(options.workers >= 1, "service needs at least one worker");
  workers_.reserve(options.workers);
  for (std::size_t i = 0; i < options.workers; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

SolverService::~SolverService() {
  {
    const LockGuard lock(mu_);
    stop_ = true;
    // Every held handle still reaches a terminal state: queued jobs run
    // with cancel pre-set (stopping before they branch), running jobs
    // unwind at their next poll.
    for (const auto& job : queue_) job->control.request_cancel();
    for (const auto& job : live_) job->control.request_cancel();
    cv_.notify_all();
  }
  for (std::thread& worker : workers_) worker.join();
}

SolveHandle SolverService::submit(fsp::Instance instance, SolverConfig config,
                                  EventCallback on_event,
                                  CompletionCallback on_complete) {
  config.validate();
  BackendRegistry::global().require(config.backend);

  std::shared_ptr<detail::JobBlock> job;
  {
    const LockGuard lock(mu_);
    FSBB_CHECK_MSG(!stop_, "SolverService is shutting down");
    job = std::make_shared<detail::JobBlock>(next_id_++, std::move(instance),
                                             std::move(config));
    ++submitted_;
  }
  job->on_event = std::move(on_event);
  job->on_complete = std::move(on_complete);
  // The deadline clock starts at submission: queue wait counts against it.
  if (job->config.deadline_ms) {
    job->control.set_deadline_after(
        static_cast<double>(*job->config.deadline_ms) / 1e3);
  }
  if (job->on_event) {
    // The sink outlives nothing: it is owned by the control, which is
    // owned by the block — a raw pointer avoids a shared_ptr cycle.
    detail::JobBlock* raw = job.get();
    job->control.set_sink(
        [raw](const core::SearchEvent& event) {
          raw->on_event(from_search_event(event, raw->id));
        },
        static_cast<double>(job->config.progress_interval_ms) / 1e3);
  }
  {
    const LockGuard lock(mu_);
    queue_.push_back(job);
  }
  cv_.notify_one();
  return SolveHandle(job);
}

std::uint64_t SolverService::jobs_submitted() const {
  const LockGuard lock(mu_);
  return submitted_;
}

std::size_t SolverService::jobs_active() const {
  const LockGuard lock(mu_);
  return queue_.size() + live_.size();
}

QueueSnapshot SolverService::snapshot() const {
  QueueSnapshot snap;
  const LockGuard lock(mu_);
  snap.queued = queue_.size();
  snap.running = live_.size();
  snap.submitted = submitted_;
  snap.completed = submitted_ - snap.queued - snap.running;
  // Each job's SearchControl is armed at submission, so its elapsed clock
  // IS the job's age — queue wait included. The oldest queued job is the
  // queue front, but a long-running live job can be older still.
  double oldest = 0;
  if (!queue_.empty()) {
    oldest = queue_.front()->control.elapsed_seconds();
  }
  for (const auto& job : live_) {
    oldest = std::max(oldest, job->control.elapsed_seconds());
  }
  snap.oldest_age_seconds = oldest;
  return snap;
}

std::string QueueSnapshot::to_json() const {
  JsonWriter o;
  o.integer("queued", queued);
  o.integer("running", running);
  o.integer("submitted", submitted);
  o.integer("completed", completed);
  o.real("oldest_age_seconds", oldest_age_seconds);
  return o.done();
}

void SolverService::worker_loop() {
  for (;;) {
    std::shared_ptr<detail::JobBlock> job;
    {
      UniqueLock lock(mu_);
      while (!stop_ && queue_.empty()) cv_.wait(lock);
      // Drain the queue even when stopping: every accepted job must reach
      // a terminal state (they were all canceled, so they unwind fast).
      if (queue_.empty()) {
        if (stop_) return;
        continue;
      }
      job = queue_.front();
      queue_.pop_front();
      live_.push_back(job);
    }
    run_job(job);
  }
}

void SolverService::run_job(const std::shared_ptr<detail::JobBlock>& job) {
  {
    const LockGuard lock(job->mu);
    job->state = JobState::kRunning;
  }

  SolveOutcome outcome;
  try {
    outcome.report =
        detail::execute_solve(job->instance, job->config, &job->control);
  } catch (const std::exception& e) {
    outcome.error = user_message(e);
    outcome.exception = std::current_exception();
  } catch (...) {
    outcome.error = "unknown error";
    outcome.exception = std::current_exception();
  }

  const JobState terminal =
      !outcome.ok() ? JobState::kFailed
      : outcome.report->stop_reason == core::StopReason::kCanceled
          ? JobState::kCanceled
          : JobState::kDone;

  // Callbacks fire from this worker thread, before wait() unblocks; they
  // must not throw (anything thrown here is swallowed, not propagated).
  if (job->on_event) {
    ProgressEvent event;
    event.kind = ProgressEvent::Kind::kFinished;
    event.job = job->id;
    event.elapsed_seconds = job->control.elapsed_seconds();
    if (outcome.ok()) {
      event.incumbent = outcome.report->best_makespan;
      event.branched = outcome.report->stats.branched;
      event.evaluated = outcome.report->stats.evaluated;
      event.pruned = outcome.report->stats.pruned;
      event.stop_reason = outcome.report->stop_reason;
    } else {
      event.error = outcome.error;
    }
    try {
      job->on_event(event);
    } catch (...) {
    }
  }
  if (job->on_complete) {
    try {
      job->on_complete(outcome);
    } catch (...) {
    }
  }

  // Drop the job from the live set before waking waiters, so a returned
  // wait() (almost always) observes jobs_active() without this job.
  {
    const LockGuard lock(mu_);
    live_.erase(std::find(live_.begin(), live_.end(), job));
  }
  {
    const LockGuard lock(job->mu);
    job->outcome = std::move(outcome);
    job->state = terminal;
  }
  job->cv.notify_all();
}

}  // namespace fsbb::api
