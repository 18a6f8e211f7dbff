// Shared-pool vs work-stealing multicore scaling — the Fig. 5-style
// companion for the cpu-steal engine.
//
// Both engines prove the same five Taillard 20x5 instances (ta002, ta003,
// ta004, ta007, ta009) from the root, starting at their published optima.
// With the incumbent already optimal nothing ever improves it, so every
// run explores the same tree (every node whose bound is below the
// optimum) whatever the thread count and the thread interleaving, and the
// wall-clock ratio is a pure engine-overhead comparison: the shared pool
// serializes every pop/push through one mutex, the sharded pool only pays
// for the occasional steal. A root start puts the whole tree on one
// worker's deque, so every other worker must steal its first node: the
// steal columns are nonzero from 2 threads on.
//
//   $ bench_steal_scaling
#include <cstdint>
#include <iostream>
#include <string>

#include "common/table.h"
#include "common/timer.h"
#include "fsp/lb_data.h"
#include "fsp/taillard.h"
#include "mtbb/mt_engine.h"
#include "mtbb/steal_engine.h"

namespace {

struct Proof {
  int ta;
  fsbb::fsp::Time optimum;  ///< published (Taillard 1993)
};

constexpr Proof kProofs[] = {
    {2, 1359}, {3, 1081}, {4, 1293}, {7, 1234}, {9, 1230}};

}  // namespace

int main() {
  using namespace fsbb;

  std::cout << "work-stealing vs shared-pool multicore B&B\n"
            << "ta002/3/4/7/9 (20x5) proved from the root at their published "
               "optima; seconds summed over the five proofs\n\n";

  AsciiTable table("same trees, same lb1 bounding — engine overhead only");
  table.set_header({"threads", "shared-pool s", "work-steal s", "branched",
                    "steals (ok/try)", "nodes stolen"});

  double shared_base = 0, shared_last = 0;
  double steal_base = 0, steal_last = 0;
  for (const std::size_t threads : {1u, 2u, 4u, 8u}) {
    double shared_s = 0, steal_s = 0;
    std::uint64_t branched = 0;
    core::StealStats steals;
    for (const Proof& proof : kProofs) {
      const fsp::Instance inst = fsp::taillard_instance(proof.ta);
      const fsp::LowerBoundData data = fsp::LowerBoundData::build(inst);
      mtbb::MtOptions options;
      options.threads = threads;
      options.initial_ub = proof.optimum;

      const WallTimer shared_timer;
      mtbb::mt_solve(inst, data, options);
      shared_s += shared_timer.seconds();

      const WallTimer steal_timer;
      const core::SolveResult stolen = mtbb::steal_solve(inst, data, options);
      steal_s += steal_timer.seconds();
      branched += stolen.stats.branched;
      if (stolen.steal) {
        steals.steal_attempts += stolen.steal->steal_attempts;
        steals.steal_successes += stolen.steal->steal_successes;
        steals.nodes_stolen += stolen.steal->nodes_stolen;
      }
    }

    if (threads == 1) {
      shared_base = shared_s;
      steal_base = steal_s;
    }
    shared_last = shared_s;
    steal_last = steal_s;
    table.add_row({std::to_string(threads), AsciiTable::num(shared_s),
                   AsciiTable::num(steal_s), std::to_string(branched),
                   std::to_string(steals.steal_successes) + "/" +
                       std::to_string(steals.steal_attempts),
                   std::to_string(steals.nodes_stolen)});
  }
  table.render(std::cout);

  std::cout << "\nself-speedup at 8 threads: shared-pool x"
            << AsciiTable::num(shared_base / shared_last) << ", work-steal x"
            << AsciiTable::num(steal_base / steal_last)
            << " (identical lb1 bounding kernel in every cell)\n";
  return 0;
}
