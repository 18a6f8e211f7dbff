// Frozen-pool serialization: save the §IV experimental workload (node list
// + incumbent) to a text file and reload it bit-identically, so the exact
// node set of a benchmark run can be archived and replayed across
// processes and machines — the reproducibility backbone of the protocol.
// The same text format is the distributed wire format: dist/ ships
// sub-pools to worker processes and checkpoints them back as one escaped
// JSON string each (see write_frozen_pool_string).
//
// Format (line-oriented, whitespace-separated):
//   fsbb-frozen-pool 2          header + version
//   <jobs> <node_count> <incumbent>
//   <depth> <tail> <perm[0]> ... <perm[n-1]> <lb>   one line per node
// `depth` and `tail` count the jobs fixed at the front and at the back of
// the permutation (core/subproblem.h). Version 1 files (no tail column,
// written before bidirectional branching) still load, as tail 0.
//
// Read errors throw CheckFailure naming the source and the 1-based line,
// e.g. `read_frozen_pool("pool.txt", line 37): corrupt permutation`, so a
// corrupt checkpoint is diagnosable from the message alone.
#pragma once

#include <iosfwd>
#include <string>

#include "core/protocol.h"

namespace fsbb::core {

/// Writes a frozen pool. `jobs` is taken from the first node (the pool
/// must be non-empty and homogeneous); an empty pool throws CheckFailure.
void write_frozen_pool(std::ostream& out, const FrozenPool& pool);
void write_frozen_pool_file(const std::string& path, const FrozenPool& pool);

/// The pool as one in-memory string — the distributed transport embeds it
/// in NDJSON messages (newlines survive JSON string escaping).
std::string write_frozen_pool_string(const FrozenPool& pool);

/// Reads a frozen pool; validates the header, permutation integrity and
/// bounds. Throws CheckFailure naming `source` and the offending 1-based
/// line on malformed input. Tolerates CRLF line endings.
FrozenPool read_frozen_pool(std::istream& in,
                            const std::string& source = "<stream>");
FrozenPool read_frozen_pool_file(const std::string& path);
FrozenPool read_frozen_pool_string(const std::string& text,
                                   const std::string& source = "<string>");

}  // namespace fsbb::core
