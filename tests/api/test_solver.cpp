// The Solver facade: config parsing round-trips, misconfiguration fails
// fast with useful errors, reports are structured (text + JSON), and the
// batch API solves independent instances concurrently with identical
// results to one-at-a-time solves.
#include <gtest/gtest.h>

#include <algorithm>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "api/solver.h"
#include "common/threadpool.h"
#include "fsp/taillard.h"

namespace fsbb::api {
namespace {

fsp::Instance small_instance(std::int32_t seed = 123456789) {
  return fsp::make_taillard_instance(9, 5, seed,
                                     "api-9x5-" + std::to_string(seed));
}

CliArgs parse_tokens(const std::vector<std::string>& tokens) {
  std::vector<const char*> argv{"solver-test"};
  for (const std::string& t : tokens) argv.push_back(t.c_str());
  return CliArgs::parse(static_cast<int>(argv.size()), argv.data(),
                        SolverConfig::cli_flags());
}

TEST(SolverConfig, DefaultsRoundTripThroughCli) {
  const SolverConfig original;
  const SolverConfig reparsed = SolverConfig::from_cli(
      parse_tokens(original.to_cli()));
  EXPECT_EQ(reparsed, original);
}

TEST(SolverConfig, EveryFieldRoundTripsThroughCli) {
  SolverConfig original;
  original.backend = "gpu-sim";
  original.bound = Bound::kLb2;
  original.strategy = core::SelectionStrategy::kDepthFirst;
  original.batch_size = 512;
  original.threads = 3;
  original.batch_workers = 2;
  original.block_threads = 128;
  original.placement = gpubb::PlacementPolicy::kSharedJm;
  original.device = "c1060";
  original.initial_ub = 4321;
  original.node_budget = 99999;
  original.deadline_ms = 1500;
  original.instance.ta_id = 0;
  original.instance.jobs = 12;
  original.instance.machines = 7;
  original.instance.seed = 424242;
  original.instance.count = 5;

  const SolverConfig reparsed = SolverConfig::from_cli(
      parse_tokens(original.to_cli()));
  EXPECT_EQ(reparsed, original);
}

TEST(SolverConfig, RetiredTimeLimitFlagNamesTheDeadline) {
  try {
    SolverConfig::from_cli(parse_tokens({"--time-limit", "30"}));
    FAIL() << "expected CheckFailure";
  } catch (const CheckFailure& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("--time-limit"), std::string::npos) << what;
    EXPECT_NE(what.find("--deadline-ms"), std::string::npos) << what;
  }
}

TEST(SolverConfig, FromCliParsesIndividualFlags) {
  const SolverConfig c = SolverConfig::from_cli(parse_tokens(
      {"--backend", "cpu-steal", "--bound=lb0", "--strategy", "depth-first",
       "--placement", "shared-JM+PTM", "--ub", "777", "--ta", "3"}));
  EXPECT_EQ(c.backend, "cpu-steal");
  EXPECT_EQ(c.bound, Bound::kLb0);
  EXPECT_EQ(c.strategy, core::SelectionStrategy::kDepthFirst);
  EXPECT_EQ(c.placement, gpubb::PlacementPolicy::kSharedJmPtm);
  ASSERT_TRUE(c.initial_ub.has_value());
  EXPECT_EQ(*c.initial_ub, 777);
  EXPECT_EQ(c.instance.ta_id, 3);
}

TEST(SolverConfig, RejectsBadEnumsAndDevices) {
  EXPECT_THROW(SolverConfig::from_cli(parse_tokens({"--bound", "lb9"})),
               CheckFailure);
  EXPECT_THROW(SolverConfig::from_cli(parse_tokens({"--strategy", "random"})),
               CheckFailure);
  EXPECT_THROW(SolverConfig::from_cli(parse_tokens({"--placement", "what"})),
               CheckFailure);
  EXPECT_THROW(SolverConfig::from_cli(parse_tokens({"--device", "h100"})),
               CheckFailure);

  // Out-of-range counts fail in validate(), naming the flag, before any
  // thread or device exists. The block limit is the smallest card's
  // max_threads_per_block: 1024 fits a c2050 but not a c1060 (512).
  const std::vector<std::pair<std::vector<std::string>, std::string>>
      out_of_range = {
          {{"--threads", "257"}, "--threads must be in [1, 256]"},
          {{"--batch-workers", "257"}, "--batch-workers must be in [0, 256]"},
          {{"--block-threads", "-5"}, "--block-threads must be >= 0"},
          {{"--block-threads", "5000"}, "--block-threads must be 0 (auto)"},
          {{"--block-threads", "1024", "--gpu-devices", "2:c2050,c1060"},
           "in [1, 512], got 1024"},
      };
  for (const auto& [tokens, message] : out_of_range) {
    try {
      SolverConfig::from_cli(parse_tokens(tokens));
      ADD_FAILURE() << "accepted " << message;
    } catch (const CheckFailure& e) {
      EXPECT_NE(std::string(e.what()).find(message), std::string::npos)
          << e.what();
    }
  }
  EXPECT_NO_THROW(SolverConfig::from_cli(
      parse_tokens({"--threads", "256", "--batch-workers", "256",
                    "--block-threads", "1024"})));
}

TEST(SolverConfig, MakeInstancesHonorsCountAndSeeds) {
  InstanceSpec spec;
  spec.jobs = 6;
  spec.machines = 3;
  spec.seed = 1000;
  spec.count = 3;
  const std::vector<fsp::Instance> instances = make_instances(spec);
  ASSERT_EQ(instances.size(), 3u);
  for (const fsp::Instance& inst : instances) {
    EXPECT_EQ(inst.jobs(), 6);
    EXPECT_EQ(inst.machines(), 3);
  }
  // Distinct seeds produce distinct processing-time matrices.
  const auto first = instances[0].ptm().flat();
  const auto second = instances[1].ptm().flat();
  EXPECT_FALSE(std::equal(first.begin(), first.end(), second.begin(),
                          second.end()));
  // ta_id takes precedence and yields the published instance.
  spec.ta_id = 1;
  const std::vector<fsp::Instance> ta = make_instances(spec);
  ASSERT_EQ(ta.size(), 1u);
  EXPECT_EQ(ta[0].jobs(), 20);
  EXPECT_EQ(ta[0].machines(), 5);
}

TEST(Solver, UnknownBackendFailsAtConstructionNamingTheRegistry) {
  // "multicore" was the retired shared-pool engine; it is unknown now.
  for (const std::string key : {"quantum", "multicore"}) {
    SolverConfig config;
    config.backend = key;
    try {
      const Solver solver(config);
      FAIL() << "expected CheckFailure for " << key;
    } catch (const CheckFailure& e) {
      const std::string what = e.what();
      EXPECT_NE(what.find("unknown backend '" + key + "'"), std::string::npos)
          << what;
      EXPECT_NE(what.find("cpu-serial"), std::string::npos)
          << "error should list registered keys: " << what;
    }
  }
}

TEST(Solver, ReportEchoesConfigAndInstance) {
  SolverConfig config;
  config.backend = "cpu-serial";
  const fsp::Instance inst = small_instance();
  const SolveReport report = Solver(config).solve(inst);

  EXPECT_EQ(report.config, config);
  EXPECT_EQ(report.instance_name, inst.name());
  EXPECT_EQ(report.jobs, 9);
  EXPECT_EQ(report.machines, 5);
  EXPECT_EQ(report.backend, "cpu-serial");
  EXPECT_EQ(report.evaluator, "cpu-serial");
  EXPECT_TRUE(report.proven_optimal);
  EXPECT_EQ(report.best_permutation.size(), 9u);
  EXPECT_GT(report.stats.branched, 0u);
  ASSERT_TRUE(report.eval.has_value());
  // The ledger also counts the root evaluation the engine does not.
  EXPECT_GE(report.eval->nodes, report.stats.evaluated);
  EXPECT_LE(report.eval->nodes, report.stats.evaluated + 1);
}

TEST(Solver, ReportJsonCarriesTheStructuredFields) {
  SolverConfig config;
  config.backend = "gpu-sim";
  const SolveReport report = Solver(config).solve(small_instance());
  const std::string json = report.to_json();

  // Spot-check the deterministic shape (full parsing needs no dependency).
  EXPECT_EQ(json.front(), '{');
  EXPECT_EQ(json.back(), '}');
  EXPECT_NE(json.find("\"config\":{\"backend\":\"gpu-sim\""),
            std::string::npos)
      << json;
  EXPECT_NE(json.find("\"bound\":\"lb1\""), std::string::npos);
  EXPECT_NE(json.find("\"instance\":{\"name\":\"api-9x5-123456789\""),
            std::string::npos);
  EXPECT_NE(json.find("\"best_makespan\":" +
                      std::to_string(report.best_makespan)),
            std::string::npos);
  EXPECT_NE(json.find("\"proven_optimal\":true"), std::string::npos);
  EXPECT_NE(json.find("\"evaluated\":" +
                      std::to_string(report.stats.evaluated)),
            std::string::npos);
  EXPECT_NE(json.find("\"eval\":{\"batches\":"), std::string::npos);
  EXPECT_NE(json.find("\"initial_ub\":null"), std::string::npos);
}

TEST(Solver, StealReportHasNoEvaluatorLedger) {
  SolverConfig config;
  config.backend = "cpu-steal";
  config.threads = 2;
  const SolveReport report = Solver(config).solve(small_instance());
  EXPECT_FALSE(report.eval.has_value());
  EXPECT_NE(report.to_json().find("\"eval\":null"), std::string::npos);
}

TEST(Solver, SolveManyMatchesIndividualSolves) {
  SolverConfig config;
  config.backend = "cpu-serial";
  config.batch_workers = 3;
  const Solver solver(config);

  std::vector<fsp::Instance> instances;
  for (int i = 0; i < 6; ++i) {
    instances.push_back(small_instance(1000 + i));
  }

  const std::vector<SolveReport> batch = solver.solve_many(instances);
  ASSERT_EQ(batch.size(), instances.size());
  for (std::size_t i = 0; i < instances.size(); ++i) {
    const SolveReport one = solver.solve(instances[i]);
    EXPECT_EQ(batch[i].instance_name, instances[i].name());
    EXPECT_EQ(batch[i].best_makespan, one.best_makespan) << i;
    EXPECT_EQ(batch[i].proven_optimal, one.proven_optimal) << i;
    EXPECT_EQ(batch[i].stats.branched, one.stats.branched) << i;
  }
}

TEST(Solver, SolveManyOverExternalSharedPool) {
  SolverConfig config;
  config.backend = "cpu-threads";
  config.threads = 2;
  const Solver solver(config);

  std::vector<fsp::Instance> instances;
  for (int i = 0; i < 4; ++i) instances.push_back(small_instance(2000 + i));

  ThreadPool pool(2);  // shared across the whole batch
  const std::vector<SolveReport> reports = solver.solve_many(instances, pool);
  ASSERT_EQ(reports.size(), 4u);
  for (const SolveReport& r : reports) {
    EXPECT_TRUE(r.proven_optimal);
    EXPECT_EQ(r.backend, "cpu-threads");
  }
  EXPECT_TRUE(solver.solve_many({}).empty());
}

TEST(Solver, HonorsNodeBudgetAcrossBackends) {
  for (const std::string backend : {"cpu-serial", "gpu-sim"}) {
    SolverConfig config;
    config.backend = backend;
    config.node_budget = 5;
    const SolveReport report = Solver(config).solve(small_instance());
    EXPECT_FALSE(report.proven_optimal) << backend;
    EXPECT_LE(report.stats.branched, 6u) << backend;
    EXPECT_EQ(report.stop_reason, core::StopReason::kBudget) << backend;
  }
}

// An instance only the GPU path rejects (it packs processing times as u8):
// with backend gpu-sim, this fails while ordinary Taillard instances
// succeed — a genuinely per-instance failure under one config.
fsp::Instance gpu_poison_instance() {
  Matrix<fsp::Time> pt(4, 3, 10);
  pt(1, 1) = 300;  // > 255: DeviceLbData::build throws
  return fsp::Instance("poison-4x3", std::move(pt));
}

TEST(Solver, SolveManyOutcomesKeepsPerInstanceResultsOnMixedFailure) {
  SolverConfig config;
  config.backend = "gpu-sim";
  config.batch_workers = 2;
  const Solver solver(config);

  std::vector<fsp::Instance> instances;
  instances.push_back(small_instance(3000));
  instances.push_back(gpu_poison_instance());
  instances.push_back(small_instance(3001));

  const std::vector<SolveOutcome> outcomes =
      solver.solve_many_outcomes(instances);
  ASSERT_EQ(outcomes.size(), 3u);
  // Completed work survives the failing sibling, in input order.
  ASSERT_TRUE(outcomes[0].ok());
  EXPECT_TRUE(outcomes[0].report->proven_optimal);
  EXPECT_EQ(outcomes[0].report->instance_name, instances[0].name());
  ASSERT_FALSE(outcomes[1].ok());
  EXPECT_NE(outcomes[1].error.find("u8"), std::string::npos)
      << outcomes[1].error;
  ASSERT_TRUE(outcomes[2].ok());
  EXPECT_TRUE(outcomes[2].report->proven_optimal);
  EXPECT_EQ(outcomes[2].report->instance_name, instances[2].name());
}

TEST(Solver, SolveManyRethrowsTheFirstErrorOnlyAfterTheBatchDrains) {
  SolverConfig config;
  config.backend = "gpu-sim";
  config.batch_workers = 2;
  const Solver solver(config);

  std::vector<fsp::Instance> instances;
  instances.push_back(gpu_poison_instance());
  instances.push_back(small_instance(3002));

  // The compat shim still throws — with the original exception type — but
  // only once every instance finished.
  EXPECT_THROW(solver.solve_many(instances), CheckFailure);

  // The same batch through the ThreadPool overload behaves identically.
  ThreadPool pool(2);
  EXPECT_THROW(solver.solve_many(instances, pool), CheckFailure);
}

TEST(Solver, DeadlineFlowsThroughTheSynchronousFacade) {
  SolverConfig config;
  config.backend = "cpu-steal";
  config.threads = 2;
  config.deadline_ms = 0;  // expired before the search starts
  const fsp::Instance inst = small_instance();
  const SolveReport report = Solver(config).solve(inst);
  EXPECT_EQ(report.stop_reason, core::StopReason::kDeadline);
  EXPECT_FALSE(report.proven_optimal);
  EXPECT_EQ(report.stats.branched, 0u);
  // JSON and text both surface the stop reason.
  EXPECT_NE(report.to_json().find("\"stop_reason\":\"deadline\""),
            std::string::npos);
  std::ostringstream text;
  text << report;
  EXPECT_NE(text.str().find("stopped: deadline"), std::string::npos);
}

TEST(SolverConfig, DeadlineAndProgressFlagsRoundTripThroughCli) {
  SolverConfig original;
  original.deadline_ms = 1500;
  original.progress_interval_ms = 50;
  const SolverConfig reparsed =
      SolverConfig::from_cli(parse_tokens(original.to_cli()));
  EXPECT_EQ(reparsed, original);
  ASSERT_TRUE(reparsed.deadline_ms.has_value());
  EXPECT_EQ(*reparsed.deadline_ms, 1500u);

  // Absent flag stays unset; --deadline-ms 0 parses as "already expired".
  EXPECT_FALSE(SolverConfig().deadline_ms.has_value());
  const SolverConfig zero = SolverConfig::from_cli(
      parse_tokens({"--deadline-ms", "0"}));
  ASSERT_TRUE(zero.deadline_ms.has_value());
  EXPECT_EQ(*zero.deadline_ms, 0u);
}

}  // namespace
}  // namespace fsbb::api
