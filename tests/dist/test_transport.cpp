// NDJSON transport line handling as the dist layer uses it: CRLF
// stripping, blank-line skipping and the incremental line reader the
// coordinator runs per worker stdout (BoundedLineReader without a
// cap).
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "serve/line_io.h"

namespace fsbb::serve {
namespace {

TEST(DistTransport, NormalizeStripsOneTrailingCarriageReturn) {
  std::string line = "{\"op\":\"status\"}\r";
  EXPECT_TRUE(normalize_transport_line(line));
  EXPECT_EQ(line, "{\"op\":\"status\"}");

  // Only the CRLF framing '\r' goes; an embedded one is payload.
  line = "a\rb\r";
  EXPECT_TRUE(normalize_transport_line(line));
  EXPECT_EQ(line, "a\rb");
}

TEST(DistTransport, NormalizeRejectsBlankLines) {
  for (const char* blank : {"", "\r", " ", "   ", "\t", " \t ", " \t\r"}) {
    std::string line = blank;
    EXPECT_FALSE(normalize_transport_line(line)) << '"' << blank << '"';
  }
}

TEST(DistTransport, NormalizeKeepsPayloadLinesIntact) {
  std::string line = "{}";
  EXPECT_TRUE(normalize_transport_line(line));
  EXPECT_EQ(line, "{}");

  // Leading/inner whitespace is the JSON parser's business, not ours.
  line = "  {\"a\": 1}";
  EXPECT_TRUE(normalize_transport_line(line));
  EXPECT_EQ(line, "  {\"a\": 1}");
}

/// The coordinator's configuration: no cap, so no line is ever dropped.
/// Returns the completed lines' text; none may be an oversized marker.
std::vector<std::string> feed(BoundedLineReader& reader,
                              const std::string& bytes) {
  std::vector<std::string> lines;
  for (BoundedLineReader::Line& line :
       reader.feed(bytes.data(), bytes.size())) {
    EXPECT_FALSE(line.oversized);
    lines.push_back(std::move(line.text));
  }
  return lines;
}

TEST(DistTransport, LineReaderReassemblesSplitChunks) {
  BoundedLineReader reader(SIZE_MAX);
  const std::string stream = "{\"event\":\"ready\"}\n{\"event\":\"done\"}\n";
  std::vector<std::string> lines;
  // Feed one byte at a time — the worst poll(2) can do.
  for (const char c : stream) {
    for (std::string& line : feed(reader, std::string(1, c))) {
      lines.push_back(std::move(line));
    }
  }
  ASSERT_EQ(lines.size(), 2u);
  EXPECT_EQ(lines[0], "{\"event\":\"ready\"}");
  EXPECT_EQ(lines[1], "{\"event\":\"done\"}");
  EXPECT_EQ(reader.pending(), 0u);
}

TEST(DistTransport, LineReaderDropsBlankAndNormalizesCrlf) {
  BoundedLineReader reader(SIZE_MAX);
  const std::vector<std::string> lines = feed(reader, "a\r\n\r\n\n  \nb\n");
  ASSERT_EQ(lines.size(), 2u);
  EXPECT_EQ(lines[0], "a");
  EXPECT_EQ(lines[1], "b");
}

TEST(DistTransport, LineReaderBuffersUnterminatedTail) {
  BoundedLineReader reader(SIZE_MAX);
  const std::string head = "{\"half\":";
  EXPECT_TRUE(feed(reader, head).empty());
  EXPECT_EQ(reader.pending(), head.size());

  const std::vector<std::string> lines = feed(reader, "1}\n");
  ASSERT_EQ(lines.size(), 1u);
  EXPECT_EQ(lines[0], "{\"half\":1}");
  EXPECT_EQ(reader.pending(), 0u);
}

TEST(DistTransport, LineReaderKeepsLargeCheckpointLines) {
  // A checkpoint carries a whole sub-pool; 4 MiB is four times the
  // socket sessions' default cap and must still arrive intact.
  BoundedLineReader reader(SIZE_MAX);
  const std::string payload(4u << 20, 'x');
  std::vector<std::string> lines;
  const std::string stream = payload + "\nnext\n";
  for (std::size_t at = 0; at < stream.size(); at += 4096) {
    for (std::string& line : feed(reader, stream.substr(at, 4096))) {
      lines.push_back(std::move(line));
    }
  }
  ASSERT_EQ(lines.size(), 2u);
  EXPECT_EQ(lines[0], payload);
  EXPECT_EQ(lines[1], "next");
}

}  // namespace
}  // namespace fsbb::serve
