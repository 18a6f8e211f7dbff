// Work-stealing counters — the lightweight slice of core/work_steal.h
// that results (SolveResult, SolveReport) need without pulling in the
// deque machinery.
#pragma once

#include <cstdint>
#include <vector>

namespace fsbb::core {

/// Work-stealing traffic counters, merged across workers.
struct StealStats {
  std::uint64_t steal_attempts = 0;   ///< victim probes (incl. empty ones)
  std::uint64_t steal_successes = 0;  ///< probes that returned >= 1 node
  std::uint64_t nodes_stolen = 0;     ///< total nodes that changed shard

  double success_rate() const {
    return steal_attempts > 0
               ? static_cast<double>(steal_successes) / steal_attempts
               : 0.0;
  }
};

/// Occupancy and traffic counters of one shard of a resident pool (one
/// simulated SM's slice of device memory, or one worker's slab).
struct ShardOccupancy {
  /// Device the shard lives on (multi-device pools concatenate the shard
  /// groups of every card; single-device pools leave this 0).
  std::uint64_t device = 0;
  std::uint64_t live = 0;       ///< slots currently allocated
  std::uint64_t peak_live = 0;  ///< high-water mark of `live`
  std::uint64_t allocated = 0;  ///< slots ever handed out from this shard
  std::uint64_t released = 0;   ///< slots returned to this shard
  std::uint64_t spills = 0;     ///< allocs that wanted this shard but had to
                                ///< borrow a slot elsewhere (shard full)
  std::uint64_t steals = 0;     ///< slots this shard lent to a full sibling
  std::uint64_t refills = 0;    ///< non-resident parents uploaded here
};

/// Shard-level view of a resident pool, surfaced in SolveReport next to
/// StealStats. Shard i is simulated SM i on the device backends; the
/// multi-device pool concatenates the per-card shard groups (the `device`
/// field of each ShardOccupancy namespaces them).
struct ResidentPoolStats {
  std::uint64_t capacity = 0;    ///< total node slots across all shards
  std::uint64_t slot_bytes = 0;  ///< resident bytes per node slot
  std::uint64_t overflow = 0;    ///< children bounded in scratch because
                                 ///< every shard was full (never resident)
  std::uint64_t refills = 0;     ///< total non-resident parents uploaded
  std::uint64_t devices = 1;     ///< cards the shard groups span
  /// Payloads moved card-to-card by the starvation rebalancer (each move
  /// is one extra allocate/release pair the engine's tickets never see —
  /// the audit's conservation check accounts for them explicitly).
  std::uint64_t rebalanced = 0;
  std::vector<ShardOccupancy> shards;

  std::uint64_t live() const {
    std::uint64_t total = 0;
    for (const ShardOccupancy& s : shards) total += s.live;
    return total;
  }
  std::uint64_t peak_live() const {
    std::uint64_t total = 0;
    for (const ShardOccupancy& s : shards) total += s.peak_live;
    return total;
  }
};

}  // namespace fsbb::core
