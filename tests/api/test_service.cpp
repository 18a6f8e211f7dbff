// SolverService + SolveHandle: futures resolve with the same results the
// synchronous facade produces, try_get/wait/state behave, cancellation and
// deadlines produce consistent partial reports, failed jobs carry their
// error (and rethrow with the original type), progress events stream with
// strictly improving incumbents and a terminal event, and ≥ 8 concurrent
// jobs multiplex over the worker pool correctly.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <mutex>
#include <thread>
#include <vector>

#include "api/service.h"
#include "api/solver.h"
#include "fsp/taillard.h"

namespace fsbb::api {
namespace {

fsp::Instance small_instance(std::int32_t seed = 123456789) {
  return fsp::make_taillard_instance(9, 5, seed,
                                     "svc-9x5-" + std::to_string(seed));
}

/// An instance big enough (with a weak incumbent) that it cannot finish
/// before a cancel lands, on any backend.
fsp::Instance big_instance() {
  return fsp::make_taillard_instance(14, 10, 777, "svc-big-14x10");
}

SolverConfig weak_ub_config(const std::string& backend,
                            const fsp::Instance& inst) {
  SolverConfig config;
  config.backend = backend;
  config.threads = 2;
  config.initial_ub = inst.total_work();  // weak: long search
  return config;
}

TEST(SolverService, SubmitWaitMatchesSynchronousSolve) {
  const fsp::Instance inst = small_instance();
  SolverConfig config;
  config.backend = "cpu-serial";

  SolverService service(SolverService::Options{2});
  SolveHandle handle = service.submit(inst, config);
  EXPECT_TRUE(handle.valid());
  EXPECT_GT(handle.id(), 0u);
  const SolveReport async_report = handle.wait_report();
  EXPECT_TRUE(handle.done());
  EXPECT_EQ(handle.state(), JobState::kDone);

  const SolveReport sync_report = Solver(config).solve(inst);
  EXPECT_EQ(async_report.best_makespan, sync_report.best_makespan);
  EXPECT_EQ(async_report.proven_optimal, sync_report.proven_optimal);
  EXPECT_EQ(async_report.stop_reason, core::StopReason::kOptimal);
  EXPECT_EQ(async_report.stats.branched, sync_report.stats.branched);
  EXPECT_EQ(service.jobs_submitted(), 1u);
  while (service.jobs_active() != 0) std::this_thread::yield();
  EXPECT_EQ(service.jobs_active(), 0u);
}

TEST(SolverService, TryGetIsNonBlockingAndWaitIdempotent) {
  SolverService service(SolverService::Options{1});
  // Park a long job so the second one is observably queued.
  SolveHandle blocker =
      service.submit(big_instance(),
                     weak_ub_config("cpu-serial", big_instance()));
  SolveHandle queued = service.submit(small_instance(),
                                      SolverConfig{});  // cpu-serial default
  EXPECT_EQ(queued.state(), JobState::kQueued);
  EXPECT_FALSE(queued.try_get().has_value());
  blocker.cancel();
  const SolveOutcome& outcome = queued.wait();
  ASSERT_TRUE(outcome.ok());
  ASSERT_TRUE(queued.try_get().has_value());
  EXPECT_EQ(queued.try_get()->report->best_makespan,
            outcome.report->best_makespan);
  // wait() again returns the same terminal outcome.
  EXPECT_EQ(queued.wait().report->best_makespan,
            outcome.report->best_makespan);
  blocker.wait();
}

TEST(SolverService, EmptyHandleThrows) {
  SolveHandle handle;
  EXPECT_FALSE(handle.valid());
  EXPECT_THROW(handle.id(), CheckFailure);
  EXPECT_THROW(handle.state(), CheckFailure);
  EXPECT_THROW(handle.cancel(), CheckFailure);
  EXPECT_THROW(handle.wait(), CheckFailure);
  EXPECT_THROW(handle.try_get(), CheckFailure);
}

TEST(SolverService, SubmitRejectsMisconfigurationSynchronously) {
  SolverService service(SolverService::Options{1});
  SolverConfig config;
  config.backend = "quantum";
  EXPECT_THROW(service.submit(small_instance(), config), CheckFailure);
  config.backend = "cpu-serial";
  config.threads = 0;
  EXPECT_THROW(service.submit(small_instance(), config), CheckFailure);
}

TEST(SolverService, FailedJobCarriesErrorAndRethrowsOriginalType) {
  SolverService service(SolverService::Options{1});
  SolverConfig config;
  config.backend = "cpu-steal";
  config.bound = Bound::kLb0;  // lb1|lb2-only backend: fails at execution
  SolveHandle handle = service.submit(small_instance(), config);
  const SolveOutcome& outcome = handle.wait();
  EXPECT_FALSE(outcome.ok());
  EXPECT_EQ(handle.state(), JobState::kFailed);
  EXPECT_NE(outcome.error.find("lb1"), std::string::npos) << outcome.error;
  EXPECT_THROW(handle.wait_report(), CheckFailure);
}

TEST(SolverService, ZeroDeadlineStopsBeforeBranching) {
  SolverService service(SolverService::Options{2});
  const fsp::Instance inst = small_instance();
  SolverConfig config;
  config.backend = "cpu-serial";
  config.deadline_ms = 0;  // already expired at submission
  const SolveReport report =
      service.submit(inst, config).wait_report();
  EXPECT_EQ(report.stop_reason, core::StopReason::kDeadline);
  EXPECT_FALSE(report.proven_optimal);
  EXPECT_EQ(report.stats.branched, 0u);
  // The incumbent is still the NEH seed — a valid schedule bound.
  EXPECT_EQ(report.best_makespan, report.stats.initial_ub);
  EXPECT_EQ(report.best_permutation.size(),
            static_cast<std::size_t>(inst.jobs()));
}

TEST(SolverService, DeadlineMidSearchReturnsPartialReport) {
  SolverService service(SolverService::Options{1});
  const fsp::Instance inst = big_instance();
  SolverConfig config = weak_ub_config("cpu-serial", inst);
  config.deadline_ms = 30;
  const SolveReport report = service.submit(inst, config).wait_report();
  EXPECT_EQ(report.stop_reason, core::StopReason::kDeadline);
  EXPECT_FALSE(report.proven_optimal);
  EXPECT_LE(report.best_makespan, inst.total_work());
  EXPECT_LT(report.stats.wall_seconds, 10.0);  // stopped long before optimal
}

TEST(SolverService, CancelWhileQueuedStillYieldsCanceledOutcome) {
  SolverService service(SolverService::Options{1});
  SolveHandle blocker =
      service.submit(big_instance(),
                     weak_ub_config("cpu-serial", big_instance()));
  SolveHandle queued = service.submit(small_instance(), SolverConfig{});
  queued.cancel();  // latched while still queued
  blocker.cancel();  // unblock the single worker
  const SolveOutcome& outcome = queued.wait();
  ASSERT_TRUE(outcome.ok());
  EXPECT_EQ(outcome.report->stop_reason, core::StopReason::kCanceled);
  EXPECT_EQ(outcome.report->stats.branched, 0u);
  EXPECT_EQ(queued.state(), JobState::kCanceled);
  blocker.wait();
}

TEST(SolverService, IncumbentEventsStreamInStrictlyImprovingOrder) {
  SolverService service(SolverService::Options{1});
  const fsp::Instance inst = small_instance();
  SolverConfig config = weak_ub_config("cpu-serial", inst);
  config.progress_interval_ms = 0;  // every tick passes

  std::mutex mu;
  std::vector<ProgressEvent> events;
  SolveHandle handle = service.submit(
      inst, config, [&mu, &events](const ProgressEvent& event) {
        const std::lock_guard<std::mutex> lock(mu);
        events.push_back(event);
      });
  const SolveReport report = handle.wait_report();

  const std::lock_guard<std::mutex> lock(mu);
  ASSERT_FALSE(events.empty());
  // Terminal event arrives exactly once, last.
  EXPECT_EQ(events.back().kind, ProgressEvent::Kind::kFinished);
  EXPECT_EQ(events.back().stop_reason, core::StopReason::kOptimal);
  fsp::Time last = std::numeric_limits<fsp::Time>::max();
  std::size_t incumbents = 0;
  for (std::size_t i = 0; i + 1 < events.size(); ++i) {
    EXPECT_NE(events[i].kind, ProgressEvent::Kind::kFinished) << i;
    EXPECT_EQ(events[i].job, handle.id());
    if (events[i].kind == ProgressEvent::Kind::kIncumbent) {
      EXPECT_LT(events[i].incumbent, last) << "quality must improve";
      EXPECT_EQ(events[i].permutation.size(),
                static_cast<std::size_t>(inst.jobs()));
      last = events[i].incumbent;
      ++incumbents;
    }
  }
  EXPECT_GT(incumbents, 0u);
  // The last streamed incumbent is the final answer.
  EXPECT_EQ(last, report.best_makespan);
}

TEST(SolverService, CompletionCallbackFiresBeforeWaitUnblocks) {
  SolverService service(SolverService::Options{1});
  std::atomic<bool> completed{false};
  SolveHandle handle = service.submit(
      small_instance(), SolverConfig{}, nullptr,
      [&completed](const SolveOutcome& outcome) {
        EXPECT_TRUE(outcome.ok());
        completed.store(true);
      });
  handle.wait();
  EXPECT_TRUE(completed.load());
}

TEST(SolverService, EightConcurrentJobsMultiplexAndAllAgree) {
  SolverService service(SolverService::Options{8});
  const fsp::Instance inst = small_instance();
  const fsp::Time expected =
      Solver(SolverConfig{}).solve(inst).best_makespan;

  // Mixed backends on the same instance, all in flight together.
  const std::vector<std::string> backends = {
      "cpu-serial", "cpu-threads", "cpu-steal",  "callback",
      "gpu-sim",    "adaptive",    "cpu-serial", "cpu-steal"};
  std::vector<SolveHandle> handles;
  for (const std::string& backend : backends) {
    SolverConfig config;
    config.backend = backend;
    config.threads = 2;
    handles.push_back(service.submit(inst, config));
  }
  ASSERT_EQ(handles.size(), 8u);
  for (std::size_t i = 0; i < handles.size(); ++i) {
    const SolveReport report = handles[i].wait_report();
    EXPECT_TRUE(report.proven_optimal) << backends[i];
    EXPECT_EQ(report.best_makespan, expected) << backends[i];
    EXPECT_EQ(report.backend, backends[i]);
  }
  EXPECT_EQ(service.jobs_submitted(), 8u);
  // wait() can return a hair before the worker drops the job from the
  // live set; settle briefly instead of racing it.
  while (service.jobs_active() != 0) std::this_thread::yield();
  EXPECT_EQ(service.jobs_active(), 0u);
}

TEST(SolverService, SnapshotTracksQueuedRunningAndCompleted) {
  SolverService service(SolverService::Options{1});
  const QueueSnapshot idle = service.snapshot();
  EXPECT_EQ(idle.queued, 0u);
  EXPECT_EQ(idle.running, 0u);
  EXPECT_EQ(idle.submitted, 0u);
  EXPECT_EQ(idle.completed, 0u);
  EXPECT_EQ(idle.oldest_age_seconds, 0.0);

  // One worker: the blocker runs, the second job is observably queued.
  SolveHandle blocker =
      service.submit(big_instance(),
                     weak_ub_config("cpu-serial", big_instance()));
  SolveHandle queued = service.submit(small_instance(), SolverConfig{});
  while (service.snapshot().running == 0) std::this_thread::yield();
  const QueueSnapshot busy = service.snapshot();
  EXPECT_EQ(busy.running, 1u);
  EXPECT_EQ(busy.queued, 1u);
  EXPECT_EQ(busy.submitted, 2u);
  EXPECT_EQ(busy.completed, 0u);
  EXPECT_GE(busy.oldest_age_seconds, 0.0);

  blocker.cancel();
  blocker.wait();
  queued.wait();
  while (service.jobs_active() != 0) std::this_thread::yield();
  const QueueSnapshot done = service.snapshot();
  EXPECT_EQ(done.queued, 0u);
  EXPECT_EQ(done.running, 0u);
  EXPECT_EQ(done.submitted, 2u);
  EXPECT_EQ(done.completed, 2u);
  EXPECT_EQ(done.oldest_age_seconds, 0.0);
}

TEST(SolverService, SnapshotAgeGrowsWhileAJobWaits) {
  SolverService service(SolverService::Options{1});
  SolveHandle blocker =
      service.submit(big_instance(),
                     weak_ub_config("cpu-serial", big_instance()));
  while (service.snapshot().running == 0) std::this_thread::yield();
  std::this_thread::sleep_for(std::chrono::milliseconds(30));
  EXPECT_GT(service.snapshot().oldest_age_seconds, 0.0);
  blocker.cancel();
  blocker.wait();
}

TEST(SolverService, SnapshotSerializesToJson) {
  QueueSnapshot snap;
  snap.queued = 3;
  snap.running = 2;
  snap.submitted = 9;
  snap.completed = 4;
  snap.oldest_age_seconds = 1.5;
  const JsonValue parsed = JsonValue::parse(snap.to_json());
  EXPECT_EQ(parsed.int_or("queued", -1), 3);
  EXPECT_EQ(parsed.int_or("running", -1), 2);
  EXPECT_EQ(parsed.int_or("submitted", -1), 9);
  EXPECT_EQ(parsed.int_or("completed", -1), 4);
  EXPECT_EQ(parsed.find("oldest_age_seconds")->as_number(), 1.5);
}

TEST(SolverService, DestructorCancelsOutstandingJobs) {
  SolveHandle held;
  {
    SolverService service(SolverService::Options{1});
    held = service.submit(big_instance(),
                          weak_ub_config("cpu-serial", big_instance()));
    // Destroy the service while the job runs (or is queued).
  }
  ASSERT_TRUE(held.done());
  const SolveOutcome& outcome = held.wait();
  ASSERT_TRUE(outcome.ok());
  EXPECT_EQ(outcome.report->stop_reason, core::StopReason::kCanceled);
  EXPECT_FALSE(outcome.report->proven_optimal);
}

TEST(SolverService, DestructorDrainsEveryQueuedJobToATerminalState) {
  // More jobs than workers, all slow, then immediate teardown: every held
  // handle must still resolve (canceled), queued and running alike.
  std::vector<SolveHandle> handles;
  {
    SolverService service(SolverService::Options{2});
    for (int i = 0; i < 4; ++i) {
      handles.push_back(
          service.submit(big_instance(),
                         weak_ub_config("cpu-steal", big_instance())));
    }
  }
  for (SolveHandle& handle : handles) {
    const SolveOutcome& outcome = handle.wait();
    ASSERT_TRUE(outcome.ok());
    EXPECT_EQ(outcome.report->stop_reason, core::StopReason::kCanceled);
  }
}

}  // namespace
}  // namespace fsbb::api
