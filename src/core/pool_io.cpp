#include "core/pool_io.h"

#include <fstream>
#include <sstream>
#include <vector>

#include "common/check.h"

namespace fsbb::core {

namespace {
constexpr const char* kMagic = "fsbb-frozen-pool";
constexpr int kVersion = 2;
/// The last version without the tail column; still readable.
constexpr int kForwardOnlyVersion = 1;

/// Line-oriented reader over the stream: every parse error names the
/// source and the 1-based line it happened on.
class PoolReader {
 public:
  PoolReader(std::istream& in, const std::string& source)
      : in_(in), source_(source) {}

  /// Advances to the next line (stripping a trailing CR so checkpoint
  /// files written on Windows still load); fails with `what` at EOF.
  std::istringstream next_line(const std::string& what) {
    std::string line;
    if (!std::getline(in_, line)) fail("unexpected end of input — " + what);
    ++line_number_;
    if (!line.empty() && line.back() == '\r') line.pop_back();
    return std::istringstream(line);
  }

  [[noreturn]] void fail(const std::string& what) const {
    throw CheckFailure("read_frozen_pool(\"" + source_ + "\", line " +
                       std::to_string(line_number_ == 0 ? 1 : line_number_) +
                       "): " + what);
  }

  /// Reads one whitespace-separated value from the current line.
  template <typename T>
  T read(std::istringstream& line, const std::string& what) {
    T value{};
    if (!(line >> value)) fail("truncated or malformed " + what);
    return value;
  }

  /// Fails if the current line still carries unparsed tokens.
  void expect_line_end(std::istringstream& line) {
    std::string extra;
    if (line >> extra) fail("unexpected trailing token '" + extra + "'");
  }

 private:
  std::istream& in_;
  const std::string source_;
  std::size_t line_number_ = 0;
};

}  // namespace

void write_frozen_pool(std::ostream& out, const FrozenPool& pool) {
  if (pool.nodes.empty()) {
    throw CheckFailure(
        "write_frozen_pool: refusing to serialize an empty pool (a frozen "
        "pool must hold at least one node; a drained search has nothing to "
        "checkpoint)");
  }
  const int jobs = pool.nodes.front().jobs();
  out << kMagic << " " << kVersion << "\n";
  out << jobs << " " << pool.nodes.size() << " " << pool.incumbent << "\n";
  for (const Subproblem& sp : pool.nodes) {
    FSBB_CHECK_MSG(sp.jobs() == jobs, "heterogeneous pool");
    FSBB_CHECK_MSG(sp.lb != Subproblem::kUnevaluated, "unevaluated node");
    out << sp.depth << " " << sp.tail;
    for (const JobId j : sp.perm) out << " " << j;
    out << " " << sp.lb << "\n";
  }
}

void write_frozen_pool_file(const std::string& path, const FrozenPool& pool) {
  std::ofstream out(path);
  FSBB_CHECK_MSG(out.good(), "cannot open for writing: " + path);
  write_frozen_pool(out, pool);
}

std::string write_frozen_pool_string(const FrozenPool& pool) {
  std::ostringstream out;
  write_frozen_pool(out, pool);
  return out.str();
}

FrozenPool read_frozen_pool(std::istream& in, const std::string& source) {
  PoolReader reader(in, source);

  std::istringstream header = reader.next_line("missing frozen-pool header");
  const auto magic = reader.read<std::string>(header, "frozen-pool magic");
  if (magic != kMagic) reader.fail("not a frozen-pool file");
  const int version = reader.read<int>(header, "frozen-pool version");
  if (version != kVersion && version != kForwardOnlyVersion) {
    reader.fail("unsupported frozen-pool version " + std::to_string(version));
  }
  reader.expect_line_end(header);

  std::istringstream counts = reader.next_line("missing pool header line");
  const int jobs = reader.read<int>(counts, "job count");
  const auto count = reader.read<long long>(counts, "node count");
  FrozenPool pool;
  pool.incumbent = reader.read<Time>(counts, "incumbent");
  reader.expect_line_end(counts);
  if (jobs < 1 || count < 1) reader.fail("empty frozen pool");

  pool.nodes.reserve(static_cast<std::size_t>(count));
  for (long long i = 0; i < count; ++i) {
    std::istringstream node_line = reader.next_line(
        "node " + std::to_string(i + 1) + " of " + std::to_string(count));
    Subproblem sp;
    sp.perm.resize(static_cast<std::size_t>(jobs));
    sp.depth = reader.read<std::int32_t>(node_line, "node depth");
    if (sp.depth < 0 || sp.depth > jobs) reader.fail("depth out of range");
    if (version != kForwardOnlyVersion) {
      sp.tail = reader.read<std::int32_t>(node_line, "node tail");
      if (sp.tail < 0 || sp.tail > jobs - sp.depth) {
        reader.fail("tail out of range");
      }
    }
    std::vector<bool> seen(static_cast<std::size_t>(jobs), false);
    for (int j = 0; j < jobs; ++j) {
      const int v = reader.read<int>(node_line, "permutation");
      if (v < 0 || v >= jobs || seen[static_cast<std::size_t>(v)]) {
        reader.fail("corrupt permutation");
      }
      seen[static_cast<std::size_t>(v)] = true;
      sp.perm[static_cast<std::size_t>(j)] = static_cast<JobId>(v);
    }
    sp.lb = reader.read<Time>(node_line, "lower bound");
    if (sp.lb < 0) reader.fail("negative lower bound");
    reader.expect_line_end(node_line);
    pool.nodes.push_back(std::move(sp));
  }
  return pool;
}

FrozenPool read_frozen_pool_file(const std::string& path) {
  std::ifstream in(path);
  FSBB_CHECK_MSG(in.good(), "cannot open frozen-pool file: " + path);
  return read_frozen_pool(in, path);
}

FrozenPool read_frozen_pool_string(const std::string& text,
                                   const std::string& source) {
  std::istringstream in(text);
  return read_frozen_pool(in, source);
}

}  // namespace fsbb::core
