// Work-stealing self-scaling — the Fig. 5-style companion for the
// cpu-steal engine.
//
// The engine proves four Taillard instances (ta005 from the 20x5 class,
// ta014, ta015 and ta016 from the 20x10 class) from the root at 1, 2, 4
// and 8 threads, starting at their published optima, with the
// bidirectional branching cpu-steal runs under LB1. With the incumbent
// already optimal nothing ever improves it, and the end choice at a node
// depends only on the node and the incumbent, so every run explores the
// same tree whatever the thread count and the thread interleaving: 33,144
// branched nodes per cell, checked, and the wall-clock ratio is a pure
// engine-scaling measurement. A root start puts the whole tree on one
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
#include "mtbb/steal_engine.h"

namespace {

struct Proof {
  int ta;
  fsbb::fsp::Time optimum;  ///< published (Taillard 1993)
};

constexpr Proof kProofs[] = {{5, 1235}, {14, 1377}, {15, 1419}, {16, 1397}};

/// Branched nodes of the four proofs: 1,926 + 8,539 + 21,388 + 1,291.
constexpr std::uint64_t kTreeNodes = 33144;

}  // namespace

int main() {
  using namespace fsbb;

  std::cout << "work-stealing multicore B&B self-scaling\n"
            << "ta005 (20x5), ta014/15/16 (20x10) proved from the root at "
               "their published optima; seconds summed over the four "
               "proofs\n\n";

  AsciiTable table(
      "same trees, same two-sided lb1 bounding — engine scaling only");
  table.set_header({"threads", "work-steal s", "branched", "steals (ok/try)",
                    "nodes stolen"});

  double base = 0, last = 0;
  bool trees_match = true;
  for (const std::size_t threads : {1u, 2u, 4u, 8u}) {
    double seconds = 0;
    std::uint64_t branched = 0;
    core::StealStats steals;
    for (const Proof& proof : kProofs) {
      const fsp::Instance inst = fsp::taillard_instance(proof.ta);
      const fsp::LowerBoundData data = fsp::LowerBoundData::build(inst);
      mtbb::MtOptions options;
      options.threads = threads;
      options.initial_ub = proof.optimum;

      const WallTimer timer;
      const core::SolveResult result = mtbb::steal_solve(inst, data, options);
      seconds += timer.seconds();
      branched += result.stats.branched;
      if (result.steal) {
        steals.steal_attempts += result.steal->steal_attempts;
        steals.steal_successes += result.steal->steal_successes;
        steals.nodes_stolen += result.steal->nodes_stolen;
      }
    }
    trees_match = trees_match && branched == kTreeNodes;

    if (threads == 1) base = seconds;
    last = seconds;
    table.add_row({std::to_string(threads), AsciiTable::num(seconds),
                   std::to_string(branched),
                   std::to_string(steals.steal_successes) + "/" +
                       std::to_string(steals.steal_attempts),
                   std::to_string(steals.nodes_stolen)});
  }
  table.render(std::cout);

  std::cout << "\nself-speedup at 8 threads: work-steal x"
            << AsciiTable::num(base / last)
            << " (identical lb1 bounding kernel in every cell)\n";
  if (!trees_match) {
    std::cerr << "error: a cell did not branch the " << kTreeNodes
              << "-node tree\n";
    return 1;
  }
  return 0;
}
