// fsbb — GPU-accelerated Branch-and-Bound for the permutation Flow-Shop.
//
// Umbrella header: pulls in the whole public API. Fine for applications;
// library code should include the specific headers it uses.
//
// Layering (each layer only depends on the ones above it):
//
//   common/   matrices, RNG, stats, tables, CLI, thread pool
//   fsp/      the problem domain: instances, Taillard + synthetic
//             generators, makespans, Johnson's rule, the LB data
//             structures and the LB0/LB1/LB2 bounds, NEH, brute force, I/O
//   core/     the B&B machinery: nodes, pools, the engine, evaluators,
//             the frozen-pool protocol (+ serialization), cost model
//   gpusim/   the simulated CUDA device: specs, memory spaces, occupancy,
//             kernel runtime, timing and transfer models, calibration
//   gpubb/    the paper's contribution: placement policies, packed device
//             tables, the LB1 kernel, GPU/adaptive evaluators, the offload
//             cost model, the pool-size auto-tuner
//   mtbb/     the multi-core engines: shared-pool baseline, work-stealing
//             sharded-pool engine, i7-970 model
//   api/      the facade: SolverConfig, the string-keyed backend registry,
//             the asynchronous SolverService (SolveHandle futures,
//             cooperative cancellation, deadlines, streaming
//             ProgressEvents), the synchronous Solver front door (single +
//             batch solves), structured SolveReports with JSON export, and
//             the §IV scenario helpers
//
// Applications should start at api/ — everything below it is reachable
// through SolverConfig without hand-wiring evaluators and engines.
//
// Quickstart: see examples/quickstart.cpp and README.md.
#pragma once

#include "common/check.h"      // IWYU pragma: export
#include "common/cli.h"        // IWYU pragma: export
#include "common/json.h"       // IWYU pragma: export
#include "common/matrix.h"     // IWYU pragma: export
#include "common/rng.h"        // IWYU pragma: export
#include "common/stats.h"      // IWYU pragma: export
#include "common/table.h"      // IWYU pragma: export
#include "common/threadpool.h" // IWYU pragma: export
#include "common/timer.h"      // IWYU pragma: export

#include "fsp/brute_force.h"   // IWYU pragma: export
#include "fsp/generators.h"    // IWYU pragma: export
#include "fsp/instance.h"      // IWYU pragma: export
#include "fsp/io.h"            // IWYU pragma: export
#include "fsp/johnson.h"       // IWYU pragma: export
#include "fsp/lb1.h"           // IWYU pragma: export
#include "fsp/lb2.h"           // IWYU pragma: export
#include "fsp/lb_data.h"       // IWYU pragma: export
#include "fsp/lb_one_machine.h" // IWYU pragma: export
#include "fsp/makespan.h"      // IWYU pragma: export
#include "fsp/neh.h"           // IWYU pragma: export
#include "fsp/taillard.h"      // IWYU pragma: export

#include "core/cost_model.h"   // IWYU pragma: export
#include "core/engine.h"       // IWYU pragma: export
#include "core/evaluator.h"    // IWYU pragma: export
#include "core/pool.h"         // IWYU pragma: export
#include "core/pool_io.h"      // IWYU pragma: export
#include "core/protocol.h"     // IWYU pragma: export
#include "core/search_control.h" // IWYU pragma: export
#include "core/steal_stats.h"  // IWYU pragma: export
#include "core/subproblem.h"   // IWYU pragma: export
#include "core/work_steal.h"   // IWYU pragma: export

#include "gpusim/calibration.h" // IWYU pragma: export
#include "gpusim/counters.h"    // IWYU pragma: export
#include "gpusim/device_spec.h" // IWYU pragma: export
#include "gpusim/kernel.h"      // IWYU pragma: export
#include "gpusim/memory.h"      // IWYU pragma: export
#include "gpusim/occupancy.h"   // IWYU pragma: export
#include "gpusim/timing.h"      // IWYU pragma: export
#include "gpusim/transfer.h"    // IWYU pragma: export

#include "gpubb/adaptive_evaluator.h" // IWYU pragma: export
#include "gpubb/autotuner.h"          // IWYU pragma: export
#include "gpubb/device_lb_data.h"     // IWYU pragma: export
#include "gpubb/gpu_evaluator.h"      // IWYU pragma: export
#include "gpubb/lb_kernel.h"          // IWYU pragma: export
#include "gpubb/offload_model.h"      // IWYU pragma: export
#include "gpubb/placement.h"          // IWYU pragma: export

#include "mtbb/multicore_model.h" // IWYU pragma: export
#include "mtbb/steal_engine.h"    // IWYU pragma: export

#include "api/backend_registry.h" // IWYU pragma: export
#include "api/events.h"           // IWYU pragma: export
#include "api/report.h"           // IWYU pragma: export
#include "api/scenario.h"         // IWYU pragma: export
#include "api/service.h"          // IWYU pragma: export
#include "api/solver.h"           // IWYU pragma: export
#include "api/solver_config.h"    // IWYU pragma: export
