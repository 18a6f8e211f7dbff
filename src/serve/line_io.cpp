#include "serve/line_io.h"

#include <cstring>
#include <limits>

#include "common/check.h"

namespace fsbb::serve {

bool normalize_transport_line(std::string& line) {
  if (!line.empty() && line.back() == '\r') line.pop_back();
  return line.find_first_not_of(" \t") != std::string::npos;
}

BoundedLineReader::BoundedLineReader(std::size_t max_line_bytes)
    : max_(max_line_bytes) {
  FSBB_CHECK_MSG(max_ >= 2, "line cap must be at least 2 bytes");
}

std::vector<BoundedLineReader::Line> BoundedLineReader::feed(
    const char* data, std::size_t size) {
  std::vector<Line> out;
  std::size_t offset = 0;
  while (offset < size) {
    const char* nl = static_cast<const char*>(
        std::memchr(data + offset, '\n', size - offset));
    const std::size_t take = nl == nullptr
                                 ? size - offset
                                 : static_cast<std::size_t>(nl - data) - offset;
    if (discarding_) {
      // Skipping the tail of a line that already blew the cap; the
      // marker for it was emitted when the cap was crossed.
      if (nl != nullptr) discarding_ = false;
    } else if (buffer_.size() + take > max_) {
      buffer_.clear();
      buffer_.shrink_to_fit();
      discarding_ = nl == nullptr;
      out.push_back(Line{"", true});
    } else {
      buffer_.append(data + offset, take);
      if (nl != nullptr) {
        std::string line = std::move(buffer_);
        buffer_.clear();
        if (normalize_transport_line(line)) {
          out.push_back(Line{std::move(line), false});
        }
      }
    }
    offset += take + (nl != nullptr ? 1 : 0);
  }
  return out;
}

LineStatus read_line_bounded(std::istream& in, std::string& out,
                             std::size_t max_line_bytes) {
  out.clear();
  // istream::getline with a fixed buffer is the bounded primitive: it
  // stops at '\n' (consumed, not stored) or when the buffer fills
  // (failbit, '\n' still pending) — so the line grows chunk by chunk and
  // the cap is checked between chunks.
  char chunk[4096];
  for (;;) {
    in.getline(chunk, sizeof chunk);
    const auto got = static_cast<std::size_t>(in.gcount());
    if (in.bad()) return LineStatus::kEof;
    if (in.fail() && !in.eof()) {
      if (got == 0 && out.empty()) return LineStatus::kEof;  // zero-size read
      // Buffer filled before '\n': part of a longer line.
      out.append(chunk, got);
      if (out.size() > max_line_bytes) {
        out.clear();
        in.clear();
        in.ignore(std::numeric_limits<std::streamsize>::max(), '\n');
        return in.bad() ? LineStatus::kEof : LineStatus::kOversized;
      }
      in.clear();
      continue;
    }
    if (in.eof() && got == 0 && out.empty()) return LineStatus::kEof;
    // getline consumed the '\n' (gcount includes it, the buffer doesn't).
    const std::size_t text = in.eof() ? got : (got > 0 ? got - 1 : 0);
    out.append(chunk, text);
    if (out.size() > max_line_bytes) return LineStatus::kOversized;
    return LineStatus::kLine;
  }
}

}  // namespace fsbb::serve
