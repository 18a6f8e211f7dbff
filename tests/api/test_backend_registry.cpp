// The backend registry: deterministic keys, useful errors, out-of-tree
// registration, and — the acceptance guarantee of the facade — every
// registered backend proves the same optimum on the same instance purely
// via SolverConfig, both from the root and on a frozen §IV pool.
#include <gtest/gtest.h>

#include <algorithm>

#include "api/scenario.h"
#include "api/solver.h"
#include "fsp/brute_force.h"
#include "fsp/taillard.h"

namespace fsbb::api {
namespace {

TEST(BackendRegistry, BuiltinsArePresentAndSorted) {
  const std::vector<std::string> keys = BackendRegistry::global().keys();
  for (const char* expected : {"adaptive", "callback", "cpu-serial",
                               "cpu-steal", "cpu-threads", "gpu-sim"}) {
    EXPECT_NE(std::find(keys.begin(), keys.end(), expected), keys.end())
        << expected;
  }
  EXPECT_TRUE(std::is_sorted(keys.begin(), keys.end()));
  for (const std::string& key : keys) {
    EXPECT_FALSE(BackendRegistry::global().description(key).empty()) << key;
  }
}

TEST(BackendRegistry, CreateRejectsUnknownKeysNamingTheRegistered) {
  const fsp::Instance inst = fsp::make_taillard_instance(5, 3, 7, "tiny");
  const auto data = fsp::LowerBoundData::build(inst);
  const SolverConfig config;
  const BackendContext ctx{&inst, &data, &config};
  try {
    BackendRegistry::global().create("fpga", ctx);
    FAIL() << "expected CheckFailure";
  } catch (const CheckFailure& e) {
    EXPECT_NE(std::string(e.what()).find("registered:"), std::string::npos);
  }
}

TEST(BackendRegistry, CreateValidatesTheContext) {
  const SolverConfig config;
  const BackendContext incomplete{nullptr, nullptr, &config};
  EXPECT_THROW(BackendRegistry::global().create("cpu-serial", incomplete),
               CheckFailure);
}

TEST(BackendRegistry, OutOfTreeBackendsPlugIn) {
  // New execution modes register a factory; no engine or caller changes.
  BackendRegistry local;
  local.add("echo", "test backend",
            [](const BackendContext& ctx) -> std::unique_ptr<Backend> {
              class EchoBackend final : public Backend {
               public:
                explicit EchoBackend(const BackendContext& ctx) : ctx_(ctx) {}
                std::string name() const override { return "echo"; }
                core::SolveResult solve() override {
                  core::SolveResult r;
                  r.best_makespan = ctx_.instance->total_work();
                  return r;
                }
                core::SolveResult solve_from(std::vector<core::Subproblem>,
                                             fsp::Time ub) override {
                  core::SolveResult r;
                  r.best_makespan = ub;
                  return r;
                }

               private:
                BackendContext ctx_;
              };
              return std::make_unique<EchoBackend>(ctx);
            });
  EXPECT_TRUE(local.contains("echo"));
  EXPECT_THROW(local.add("echo", "dup", nullptr), CheckFailure);

  const fsp::Instance inst = fsp::make_taillard_instance(5, 3, 7, "tiny");
  const auto data = fsp::LowerBoundData::build(inst);
  const SolverConfig config;
  const BackendContext ctx{&inst, &data, &config};
  const auto backend = local.create("echo", ctx);
  EXPECT_EQ(backend->solve().best_makespan, inst.total_work());
}

TEST(BackendRegistry, NamesAreMachineStable) {
  // Registry keys and backend names must not embed detected hardware
  // concurrency — golden reports diff cleanly across machines.
  const fsp::Instance inst = fsp::make_taillard_instance(6, 3, 11, "stable");
  const auto data = fsp::LowerBoundData::build(inst);
  SolverConfig four;
  four.threads = 4;
  SolverConfig one = four;
  one.threads = 1;
  for (const std::string& key : BackendRegistry::global().keys()) {
    const BackendContext a{&inst, &data, &four};
    const BackendContext b{&inst, &data, &one};
    EXPECT_EQ(BackendRegistry::global().create(key, a)->name(),
              BackendRegistry::global().create(key, b)->name())
        << key;
    EXPECT_EQ(BackendRegistry::global().create(key, a)->name(), key);
  }
}

// The facade-level acceptance guarantee: every registered backend, selected
// purely by SolverConfig, proves the same optimum on a small Taillard
// instance — the makespan brute force certifies.
TEST(BackendAgreement, AllRegisteredBackendsProveTheBruteForceOptimum) {
  const fsp::Instance inst =
      fsp::make_taillard_instance(8, 5, 123456789, "agreement-8x5");
  const fsp::Time expected = fsp::brute_force(inst).makespan;

  for (const std::string& key : BackendRegistry::global().keys()) {
    SolverConfig config;
    config.backend = key;  // the only thing that varies
    config.threads = 2;
    const SolveReport report = Solver(config).solve(inst);
    EXPECT_TRUE(report.proven_optimal) << key;
    EXPECT_EQ(report.best_makespan, expected) << key;
  }
}

TEST(BackendAgreement, AllRegisteredBackendsAgreeOnAFrozenPool) {
  // §IV protocol through the facade: one frozen list, every backend.
  InstanceSpec spec;
  spec.jobs = 11;
  spec.machines = 6;
  spec.seed = 99;
  // Weak incumbent: NEH nearly solves 11x6, the pool would never fill.
  const Workload workload = api::make_workload(spec, 40, 1000000);

  std::optional<fsp::Time> reference;
  for (const std::string& key : BackendRegistry::global().keys()) {
    SolverConfig config;
    config.backend = key;
    config.threads = 2;
    const SolveReport report =
        Solver(config).solve_frozen(workload.inst(), workload.frozen);
    EXPECT_TRUE(report.proven_optimal) << key;
    if (!reference) {
      reference = report.best_makespan;
    } else {
      EXPECT_EQ(report.best_makespan, *reference) << key;
    }
  }
}

TEST(BackendAgreement, EveryBoundProvesTheSameOptimum) {
  const fsp::Instance inst =
      fsp::make_taillard_instance(8, 4, 31337, "bounds-8x4");
  const fsp::Time expected = fsp::brute_force(inst).makespan;
  for (const Bound bound : {Bound::kLb0, Bound::kLb1, Bound::kLb2}) {
    for (const std::string backend : {"cpu-serial", "callback"}) {
      SolverConfig config;
      config.backend = backend;
      config.bound = bound;
      const SolveReport report = Solver(config).solve(inst);
      EXPECT_TRUE(report.proven_optimal)
          << backend << "/" << to_string(bound);
      EXPECT_EQ(report.best_makespan, expected)
          << backend << "/" << to_string(bound);
    }
  }
}

TEST(BackendAgreement, Lb1OnlyBackendsRejectOtherBounds) {
  const fsp::Instance inst = fsp::make_taillard_instance(6, 3, 5, "lb1only");
  for (const std::string backend :
       {"cpu-threads", "gpu-sim", "adaptive", "cpu-steal"}) {
    SolverConfig config;
    config.backend = backend;
    config.bound = Bound::kLb0;
    EXPECT_THROW(Solver(config).solve(inst), CheckFailure) << backend;
  }
}

TEST(BackendAgreement, StealRunsLb2AndMatchesTheSerialLb2Optimum) {
  const fsp::Instance inst =
      fsp::make_taillard_instance(9, 5, 424242, "steal-lb2-9x5");
  SolverConfig serial;
  serial.backend = "cpu-serial";
  serial.bound = Bound::kLb2;
  const SolveReport reference = Solver(serial).solve(inst);
  ASSERT_TRUE(reference.proven_optimal);

  SolverConfig steal;
  steal.backend = "cpu-steal";
  steal.bound = Bound::kLb2;
  steal.threads = 4;
  const SolveReport report = Solver(steal).solve(inst);
  EXPECT_TRUE(report.proven_optimal);
  EXPECT_EQ(report.best_makespan, reference.best_makespan);
}

TEST(BackendAgreement, UnsupportedBoundErrorNamesTheSupportedSet) {
  const fsp::Instance inst = fsp::make_taillard_instance(6, 3, 7, "rej-6x3");
  SolverConfig config;
  config.backend = "gpu-sim";
  config.bound = Bound::kLb2;
  try {
    Solver(config).solve(inst);
    FAIL() << "lb2 on gpu-sim should be rejected";
  } catch (const CheckFailure& e) {
    const std::string what = e.what();
    // The reject-or-run decision is explicit: the message names the
    // backend, its supported bounds, and where the requested bound runs.
    EXPECT_NE(what.find("gpu-sim"), std::string::npos) << what;
    EXPECT_NE(what.find("lb1"), std::string::npos) << what;
    EXPECT_NE(what.find("cpu-steal"), std::string::npos) << what;
  }
}

}  // namespace
}  // namespace fsbb::api
