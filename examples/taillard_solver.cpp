// Solve (or partially explore) a Taillard benchmark instance with any
// registered backend — a thin wrapper over the Solver facade, showing that
// a complete CLI needs no evaluator or engine wiring at all.
//
//   $ ./taillard_solver --ta 1 --backend cpu-steal --threads 8
//   $ ./taillard_solver --ta 21 --backend gpu-sim --batch 8192 --node-budget 20000
//   $ ./taillard_solver --jobs 12 --machines 10 --seed 4242
//
// Backends: whatever the registry holds (cpu-serial, cpu-threads, callback,
// gpu-sim, adaptive, cpu-steal, ...). For the hard m = 20 classes use
// --node-budget to cap the exploration (they are open research problems!).
#include <iostream>

#include "api/solver.h"
#include "fsp/neh.h"

int main(int argc, char** argv) {
  using namespace fsbb;

  api::SolverConfig config;
  try {
    config = api::SolverConfig::from_argv(argc, argv);
  } catch (const std::exception& e) {
    std::cerr << e.what() << "\n";
    return 1;
  }

  const std::vector<fsp::Instance> instances =
      api::make_instances(config.instance);
  const fsp::Instance& inst = instances.front();

  std::cout << "instance " << inst.name() << " (" << inst.jobs() << "x"
            << inst.machines() << "), backend " << config.backend << "\n"
            << "NEH seed UB: " << fsp::neh(inst).makespan << "\n\n";

  const api::Solver solver(config);
  std::cout << solver.solve(inst);
  return 0;
}
