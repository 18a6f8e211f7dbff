#include "api/solver.h"

#include <algorithm>
#include <utility>

#include "common/check.h"

namespace fsbb::api {
namespace {

/// Reports in input order, or the first (input-order) error rethrown with
/// its original type — after the whole batch already finished.
std::vector<SolveReport> reports_or_first_error(
    std::vector<SolveOutcome> outcomes) {
  for (const SolveOutcome& outcome : outcomes) {
    if (!outcome.ok()) std::rethrow_exception(outcome.exception);
  }
  std::vector<SolveReport> reports;
  reports.reserve(outcomes.size());
  for (SolveOutcome& outcome : outcomes) {
    reports.push_back(std::move(*outcome.report));
  }
  return reports;
}

}  // namespace

Solver::Solver(SolverConfig config) : config_(std::move(config)) {
  config_.validate();
  BackendRegistry::global().require(config_.backend);
}

SolverService& Solver::service() const {
  const LockGuard lock(service_mu_);
  if (!service_) {
    SolverService::Options options;
    options.workers = config_.batch_workers != 0
                          ? config_.batch_workers
                          : std::max<std::size_t>(config_.threads, 1);
    service_ = std::make_unique<SolverService>(options);
  }
  return *service_;
}

void Solver::arm(core::SearchControl& control) const {
  if (config_.deadline_ms) {
    control.set_deadline_after(static_cast<double>(*config_.deadline_ms) /
                               1e3);
  }
}

SolveReport Solver::solve(const fsp::Instance& inst) const {
  return service().submit(inst, config_).wait_report();
}

SolveReport Solver::solve_frozen(const fsp::Instance& inst,
                                 const core::FrozenPool& frozen) const {
  core::SearchControl control;
  arm(control);
  return detail::execute_solve(inst, config_, &control, &frozen);
}

std::vector<SolveOutcome> Solver::solve_many_outcomes(
    std::span<const fsp::Instance> instances) const {
  std::vector<SolveHandle> handles;
  handles.reserve(instances.size());
  for (const fsp::Instance& inst : instances) {
    handles.push_back(service().submit(inst, config_));
  }
  std::vector<SolveOutcome> outcomes;
  outcomes.reserve(handles.size());
  for (SolveHandle& handle : handles) {
    outcomes.push_back(handle.wait());
  }
  return outcomes;
}

std::vector<SolveReport> Solver::solve_many(
    std::span<const fsp::Instance> instances) const {
  return reports_or_first_error(solve_many_outcomes(instances));
}

std::vector<SolveReport> Solver::solve_many(
    std::span<const fsp::Instance> instances, ThreadPool& pool) const {
  std::vector<SolveOutcome> outcomes(instances.size());
  if (instances.empty()) return {};
  // One chunk per instance: whichever worker frees up takes the next one.
  pool.parallel_for(
      0, instances.size(),
      [&](std::size_t lo, std::size_t hi, std::size_t /*worker*/) {
        for (std::size_t i = lo; i < hi; ++i) {
          try {
            core::SearchControl control;
            arm(control);
            outcomes[i].report =
                detail::execute_solve(instances[i], config_, &control);
          } catch (const std::exception& e) {
            outcomes[i].error = user_message(e);
            outcomes[i].exception = std::current_exception();
          } catch (...) {
            outcomes[i].error = "unknown error";
            outcomes[i].exception = std::current_exception();
          }
        }
      },
      instances.size());
  return reports_or_first_error(std::move(outcomes));
}

}  // namespace fsbb::api
