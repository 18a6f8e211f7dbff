// fsbb_solve — the configuration-driven solver CLI.
//
// Everything is selected by SolverConfig flags; no backend, bound or engine
// is named in code. Root solves run as jobs on api::SolverService — the
// same asynchronous path fsbb_serve exposes — so --deadline-ms and
// --progress work uniformly across every backend. Extra switches on top of
// the config:
//
//   --help              print usage and the accepted flags, then exit
//   --list-backends     print the registry and exit
//   --all               run every registered backend on the same instance(s)
//   --json              emit one JSON report per line instead of text
//   --progress          stream incumbent/tick progress lines on stderr
//   --frozen N          freeze a pool of N nodes first, then explore it
//                       (the paper's §IV protocol) instead of root solves
//
// Examples:
//   $ fsbb_solve --jobs 10 --machines 5 --seed 123456789 --all
//   $ fsbb_solve --ta 1 --backend gpu-sim --placement shared-JM+PTM --json
//   $ fsbb_solve --ta 1 --backend gpu-sim --gpu-pool repack      # paper shape
//   $ fsbb_solve --jobs 9 --count 8 --backend cpu-serial --batch-workers 4
//   $ fsbb_solve --ta 4 --backend cpu-steal --deadline-ms 2000 --progress
//   $ fsbb_solve --ta 4 --backend cpu-steal --bound lb2 --threads 4
#include <algorithm>
#include <iomanip>
#include <iostream>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "api/backend_registry.h"
#include "api/scenario.h"
#include "api/service.h"
#include "api/solver.h"
#include "common/table.h"

namespace {

int list_backends() {
  using namespace fsbb;
  const api::BackendRegistry& registry = api::BackendRegistry::global();
  AsciiTable table("registered backends");
  table.set_header({"key", "description"});
  for (const std::string& key : registry.keys()) {
    table.add_row({key, registry.description(key)});
  }
  table.render(std::cout);
  return 0;
}

/// Progress lines on stderr, one per event, tagged with the job id.
void print_progress(const fsbb::api::ProgressEvent& event) {
  using Kind = fsbb::api::ProgressEvent::Kind;
  std::ostringstream line;
  line << "# job " << event.job << " t=" << std::fixed << std::setprecision(2)
       << event.elapsed_seconds << "s ";
  switch (event.kind) {
    case Kind::kIncumbent:
      line << "incumbent " << event.incumbent << " after " << event.branched
           << " branched";
      break;
    case Kind::kTick:
      line << "searching: " << event.branched << " branched, incumbent "
           << event.incumbent;
      break;
    case Kind::kFinished:
      if (event.error.empty()) {
        line << "finished: " << fsbb::core::to_string(event.stop_reason);
      } else {
        line << "failed: " << event.error;
      }
      break;
  }
  std::cerr << line.str() << "\n";
}

/// Usage and the accepted flags (on stdout for --help, stderr on errors).
void print_usage(std::ostream& out) {
  out << "usage: fsbb_solve [flags]\n\nflags: ";
  for (const std::string& f : fsbb::api::SolverConfig::cli_flags()) {
    out << "--" << f << " ";
  }
  out << "--list-backends --all --json --progress --frozen --help\n";
}

}  // namespace

int main(int argc, char** argv) {
  using namespace fsbb;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--help" || arg == "-h") {
      print_usage(std::cout);
      return 0;
    }
  }

  api::SolverConfig config;
  CliArgs args;
  try {
    std::vector<std::string> known = api::SolverConfig::cli_flags();
    known.push_back("frozen");
    args = CliArgs::parse(argc, argv, known,
                          {"list-backends", "all", "json", "progress"});
    config = api::SolverConfig::from_cli(args);
  } catch (const std::exception& e) {
    std::cerr << e.what() << "\n\n";
    print_usage(std::cerr);
    return 1;
  }

  if (args.has("list-backends")) return list_backends();

  const bool json = args.has("json");
  const auto freeze_target =
      static_cast<std::size_t>(args.get_int_or("frozen", 0));

  api::SolverService::EventCallback progress;
  if (args.has("progress")) progress = print_progress;

  std::vector<std::string> backends;
  if (args.has("all")) {
    backends = api::BackendRegistry::global().keys();
  } else {
    backends.push_back(config.backend);
  }

  const auto print = [&](const api::SolveReport& report) {
    if (json) {
      std::cout << report.to_json() << "\n";
    } else {
      std::cout << report << "\n";
    }
  };

  try {
    if (freeze_target > 0) {
      // §IV protocol: every backend explores the same frozen list, so it
      // is built once, outside the backend loop. On instances NEH nearly
      // solves, pass a weak --ub (e.g. the total work) so the pool can
      // actually reach the target.
      if (progress) {
        std::cerr << "# --progress only streams root solves; frozen-pool "
                     "runs execute directly\n";
      }
      const api::Workload workload =
          api::make_workload(config.instance, freeze_target, config.initial_ub);
      for (const std::string& backend : backends) {
        config.backend = backend;
        print(api::Solver(config).solve_frozen(workload.inst(),
                                               workload.frozen));
      }
      return 0;
    }

    // Root solves run as service jobs: one shared worker pool multiplexes
    // every (backend, instance) pair, exactly like fsbb_serve would.
    const std::vector<fsp::Instance> instances =
        api::make_instances(config.instance);
    std::size_t workers = config.batch_workers;
    if (workers == 0) {
      workers = std::min<std::size_t>(
          std::max<std::size_t>(instances.size() * backends.size(), 1),
          config.threads);
    }
    api::SolverService service(api::SolverService::Options{workers});
    std::vector<api::SolveHandle> handles;
    for (const std::string& backend : backends) {
      config.backend = backend;
      for (const fsp::Instance& inst : instances) {
        handles.push_back(service.submit(inst, config, progress));
      }
    }
    for (api::SolveHandle& handle : handles) {
      print(handle.wait_report());
    }
  } catch (const std::exception& e) {
    std::cerr << e.what() << "\n";
    return 1;
  }
  return 0;
}
