// Cancellation and deadline semantics across EVERY registered backend —
// the acceptance guarantee of the asynchronous API: cancel mid-search
// returns a consistent partial SolveReport (valid incumbent, not proven,
// stop reason canceled), an already-expired deadline stops before any
// branching, and both unwind promptly on serial and concurrent engines
// alike. Runs under the integration label, which CI also executes under
// ThreadSanitizer — covering the SearchControl path in both concurrent
// engines.
#include <gtest/gtest.h>

#include <atomic>
#include <string>
#include <thread>
#include <vector>

#include "api/service.h"
#include "api/solver.h"
#include "core/audit.h"
#include "fsp/makespan.h"
#include "fsp/taillard.h"

namespace fsbb::api {
namespace {

/// Big enough (with the weak incumbent below) that no backend can finish
/// before a cancel or a short deadline lands — this seed takes minutes to
/// solve serially — while root setup stays cheap.
fsp::Instance big_instance() {
  return fsp::make_taillard_instance(14, 10, 777, "cancel-14x10");
}

SolverConfig config_for(const std::string& backend,
                        const fsp::Instance& inst) {
  SolverConfig config;
  config.backend = backend;
  config.threads = 2;
  config.initial_ub = inst.total_work();  // weak: the search runs long
  config.progress_interval_ms = 0;
  return config;
}

/// A report from an early stop must still be internally consistent.
void expect_consistent_partial(const SolveReport& report,
                               const fsp::Instance& inst,
                               core::StopReason reason,
                               const std::string& backend) {
  EXPECT_EQ(report.stop_reason, reason) << backend;
  EXPECT_FALSE(report.proven_optimal) << backend;
  // The incumbent never exceeds the starting bound...
  EXPECT_LE(report.best_makespan, inst.total_work()) << backend;
  // ...and when a schedule was found, its makespan must check out exactly.
  if (!report.best_permutation.empty()) {
    EXPECT_EQ(static_cast<int>(report.best_permutation.size()), inst.jobs())
        << backend;
    EXPECT_EQ(fsp::makespan(inst, report.best_permutation),
              report.best_makespan)
        << backend;
  }
}

TEST(Cancellation, MidSearchCancelYieldsConsistentPartialReportAllBackends) {
  const fsp::Instance inst = big_instance();
  SolverService service(SolverService::Options{1});
  for (const std::string& backend : BackendRegistry::global().keys()) {
    const SolverConfig config = config_for(backend, inst);

    // Cancel only after the search demonstrably made progress.
    std::atomic<bool> progressed{false};
    SolveHandle handle = service.submit(
        inst, config, [&progressed](const ProgressEvent& event) {
          if (event.kind != ProgressEvent::Kind::kFinished &&
              event.branched > 0) {
            progressed.store(true);
          }
        });
    while (!progressed.load() && !handle.done()) {
      std::this_thread::yield();
    }
    handle.cancel();
    const SolveReport report = handle.wait_report();
    expect_consistent_partial(report, inst, core::StopReason::kCanceled,
                              backend);
    EXPECT_EQ(handle.state(), JobState::kCanceled) << backend;
  }
}

TEST(Cancellation, ZeroDeadlineStopsBeforeBranchingAllBackends) {
  const fsp::Instance inst = big_instance();
  SolverService service(SolverService::Options{1});
  for (const std::string& backend : BackendRegistry::global().keys()) {
    SolverConfig config = config_for(backend, inst);
    config.deadline_ms = 0;  // expired at submission
    const SolveReport report = service.submit(inst, config).wait_report();
    expect_consistent_partial(report, inst, core::StopReason::kDeadline,
                              backend);
    EXPECT_EQ(report.stats.branched, 0u) << backend;
  }
}

TEST(Cancellation, ShortDeadlineStopsMidSearchAllBackends) {
  const fsp::Instance inst = big_instance();
  SolverService service(SolverService::Options{1});
  for (const std::string& backend : BackendRegistry::global().keys()) {
    SolverConfig config = config_for(backend, inst);
    config.deadline_ms = 40;
    const SolveReport report = service.submit(inst, config).wait_report();
    expect_consistent_partial(report, inst, core::StopReason::kDeadline,
                              backend);
    // Stopped within one bounding batch of the deadline — far below the
    // (effectively unbounded) full solve time.
    EXPECT_LT(report.stats.wall_seconds, 10.0) << backend;
  }
}

// Every simulated-device pool organization — per-offload repack, resident
// shards, and the per-thread DFS pool — must drain cleanly out of a
// mid-kernel stop. The DFS pool is the interesting one: a cancel or
// deadline lands between whole-subtree launches and the budget clamps the
// launch's expansion quota, so surviving lanes must resurface their
// subtree state without losing or duplicating nodes. Runs with the
// invariant auditors live so a leaked arena slot or non-monotone
// incumbent fails loudly.
TEST(Cancellation, GpuPoolModesStopCleanlyOnCancelDeadlineAndBudget) {
  const core::audit::ScopedEnable audited;
  const fsp::Instance inst = big_instance();
  SolverService service(SolverService::Options{1});

  for (const gpubb::GpuPoolMode mode :
       {gpubb::GpuPoolMode::kRepack, gpubb::GpuPoolMode::kResident,
        gpubb::GpuPoolMode::kDfs}) {
    const std::string label =
        std::string("gpu-sim/") + gpubb::to_string(mode);
    SolverConfig base = config_for("gpu-sim", inst);
    base.gpu_pool = mode;
    if (mode == gpubb::GpuPoolMode::kDfs) {
      base.strategy = core::SelectionStrategy::kDepthFirst;
    }

    // Cancel after the search demonstrably made progress.
    {
      std::atomic<bool> progressed{false};
      SolveHandle handle = service.submit(
          inst, base, [&progressed](const ProgressEvent& event) {
            if (event.kind != ProgressEvent::Kind::kFinished &&
                event.branched > 0) {
              progressed.store(true);
            }
          });
      while (!progressed.load() && !handle.done()) {
        std::this_thread::yield();
      }
      handle.cancel();
      const SolveReport report = handle.wait_report();
      expect_consistent_partial(report, inst, core::StopReason::kCanceled,
                                label);
    }

    // A short deadline lands between kernel launches.
    {
      SolverConfig config = base;
      config.deadline_ms = 40;
      const SolveReport report = service.submit(inst, config).wait_report();
      expect_consistent_partial(report, inst, core::StopReason::kDeadline,
                                label);
      EXPECT_LT(report.stats.wall_seconds, 10.0) << label;
    }

    // A node budget stop. The batch engines (repack/resident) may finish
    // the batch in flight, so allow up to one batch of overshoot; the DFS
    // launch clamps its expansion quota to the remaining budget, so the
    // kernel cannot overshoot at all.
    {
      SolverConfig config = base;
      config.batch_size = 64;
      config.node_budget = 500;
      const SolveReport report = service.submit(inst, config).wait_report();
      expect_consistent_partial(report, inst, core::StopReason::kBudget,
                                label);
      EXPECT_GE(report.stats.branched, 500u) << label;
      if (mode == gpubb::GpuPoolMode::kDfs) {
        EXPECT_EQ(report.stats.branched, 500u) << label;
      } else {
        EXPECT_LE(report.stats.branched, 564u) << label;
      }
    }
  }
}

TEST(Cancellation, CanceledConcurrentEnginesAgreeOnTheReason) {
  // The work-stealing engine propagates one latched reason to every
  // worker: run it with 4 workers, cancel mid-flight, and check the
  // single reason.
  const fsp::Instance inst = big_instance();
  SolverService service(SolverService::Options{2});
  SolverConfig config = config_for("cpu-steal", inst);
  config.threads = 4;
  std::atomic<bool> progressed{false};
  SolveHandle handle = service.submit(
      inst, config, [&progressed](const ProgressEvent& event) {
        if (event.kind != ProgressEvent::Kind::kFinished) {
          progressed.store(true);
        }
      });
  while (!progressed.load() && !handle.done()) {
    std::this_thread::yield();
  }
  handle.cancel();
  const SolveReport report = handle.wait_report();
  EXPECT_EQ(report.stop_reason, core::StopReason::kCanceled);
  EXPECT_NE(report.to_json().find("\"stop_reason\":\"canceled\""),
            std::string::npos);
}

}  // namespace
}  // namespace fsbb::api
