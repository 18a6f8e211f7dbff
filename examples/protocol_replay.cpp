// The paper's §IV experimental protocol as a reusable workflow: freeze a
// pool of live sub-problems once, archive it to a file, then replay the
// exact same workload against different backends — the way the paper makes
// "parallel efficiency" well-defined on instances nobody can solve.
//
//   $ ./protocol_replay --jobs 20 --nodes 512 --file /tmp/ta021.pool
#include <iostream>

#include "common/cli.h"
#include "common/table.h"
#include "core/pool_io.h"
#include "core/protocol.h"
#include "fsp/taillard.h"
#include "gpubb/gpu_evaluator.h"

int main(int argc, char** argv) {
  using namespace fsbb;

  const CliArgs args = CliArgs::parse(argc, argv, {"jobs", "nodes", "file"});
  const int jobs = static_cast<int>(args.get_int_or("jobs", 20));
  const auto nodes = static_cast<std::size_t>(args.get_int_or("nodes", 512));
  const std::string path =
      args.get_or("file", std::string("/tmp/fsbb_replay.pool"));

  const fsp::Instance inst = fsp::taillard_class_representative(jobs, 20);
  const auto data = fsp::LowerBoundData::build(inst);

  // Phase 1: generate and archive the frozen workload.
  std::cout << "freezing " << nodes << " live nodes of " << inst.name()
            << "...\n";
  const core::FrozenPool frozen = core::freeze_pool(inst, data, nodes);
  core::write_frozen_pool_file(path, frozen);
  std::cout << "archived to " << path << " (incumbent " << frozen.incumbent
            << ")\n\n";

  // Phase 2: reload and replay with a node budget on every backend.
  const core::FrozenPool loaded = core::read_frozen_pool_file(path);
  constexpr std::uint64_t kBudget = 2000;

  AsciiTable table("replaying the archived workload (budget 2000 branchings)");
  table.set_header({"backend", "branched", "bounded", "best makespan"});

  core::SerialCpuEvaluator serial(inst, data);
  const auto serial_result =
      core::explore_frozen(inst, data, loaded, serial,
                           core::SelectionStrategy::kBestFirst, 1, kBudget);
  table.add_row({serial.name(),
                 AsciiTable::num(static_cast<std::int64_t>(
                     serial_result.stats.branched)),
                 AsciiTable::num(static_cast<std::int64_t>(
                     serial_result.stats.evaluated)),
                 AsciiTable::num(static_cast<std::int64_t>(
                     serial_result.best_makespan))});

  core::ThreadedCpuEvaluator threaded(inst, data, 4);
  const auto threaded_result =
      core::explore_frozen(inst, data, loaded, threaded,
                           core::SelectionStrategy::kBestFirst, 1024, kBudget);
  table.add_row({threaded.name(),
                 AsciiTable::num(static_cast<std::int64_t>(
                     threaded_result.stats.branched)),
                 AsciiTable::num(static_cast<std::int64_t>(
                     threaded_result.stats.evaluated)),
                 AsciiTable::num(static_cast<std::int64_t>(
                     threaded_result.best_makespan))});

  gpusim::SimDevice device(gpusim::DeviceSpec::tesla_c2050());
  gpubb::GpuBoundEvaluator gpu(device, inst, data,
                               gpubb::PlacementPolicy::kSharedJmPtm);
  const auto gpu_result =
      core::explore_frozen(inst, data, loaded, gpu,
                           core::SelectionStrategy::kBestFirst, 4096, kBudget);
  table.add_row({gpu.name(),
                 AsciiTable::num(static_cast<std::int64_t>(
                     gpu_result.stats.branched)),
                 AsciiTable::num(static_cast<std::int64_t>(
                     gpu_result.stats.evaluated)),
                 AsciiTable::num(static_cast<std::int64_t>(
                     gpu_result.best_makespan))});

  table.render(std::cout);
  std::cout << "\nall backends saw the identical frozen node list; different "
               "batch sizes legitimately explore slightly different frontiers "
               "under a budget\n";
  return 0;
}
