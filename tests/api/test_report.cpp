// SolveReport serialization: json_escape must emit RFC 8259-valid string
// bodies for any byte sequence (control characters included), and the
// report JSON must carry the steal statistics of sharded-pool backends.
#include "api/report.h"

#include <gtest/gtest.h>

#include <sstream>
#include <string>

namespace fsbb::api {
namespace {

TEST(JsonEscape, PassesPlainTextThrough) {
  EXPECT_EQ(json_escape("cpu-steal"), "cpu-steal");
  EXPECT_EQ(json_escape(""), "");
  EXPECT_EQ(json_escape("ta-like-10x5-s42"), "ta-like-10x5-s42");
}

TEST(JsonEscape, EscapesQuotesAndBackslashes) {
  EXPECT_EQ(json_escape("a\"b"), "a\\\"b");
  EXPECT_EQ(json_escape("a\\b"), "a\\\\b");
}

TEST(JsonEscape, EscapesNamedControlCharacters) {
  EXPECT_EQ(json_escape("a\nb"), "a\\nb");
  EXPECT_EQ(json_escape("a\tb"), "a\\tb");
  EXPECT_EQ(json_escape("a\rb"), "a\\rb");
  EXPECT_EQ(json_escape("a\bb"), "a\\bb");
  EXPECT_EQ(json_escape("a\fb"), "a\\fb");
}

TEST(JsonEscape, EscapesEveryRemainingControlCharacterAsUXxxx) {
  // U+0000..U+001F must never appear raw inside a JSON string (RFC 8259
  // §7) — a backend name or error string with a stray byte would
  // otherwise emit invalid JSON.
  EXPECT_EQ(json_escape(std::string(1, '\x01')), "\\u0001");
  EXPECT_EQ(json_escape(std::string(1, '\x1f')), "\\u001f");
  EXPECT_EQ(json_escape(std::string("a") + '\0' + "b"),
            std::string("a\\u0000b"));
  for (int c = 0; c < 0x20; ++c) {
    const std::string escaped = json_escape(std::string(1, static_cast<char>(c)));
    EXPECT_GE(escaped.size(), 2u) << "control char " << c << " left raw";
    EXPECT_EQ(escaped[0], '\\') << "control char " << c << " left raw";
  }
}

TEST(JsonEscape, LeavesHighBytesAlone) {
  // Non-ASCII (UTF-8 continuation) bytes are not control characters and
  // must pass through — the signed-char cast bug would send them through
  // the \u path with a wild sign-extended value.
  const std::string utf8 = "\xc3\xa9";  // é
  EXPECT_EQ(json_escape(utf8), utf8);
}

SolveReport sample_report() {
  SolveReport r;
  r.instance_name = "sample-5x3";
  r.jobs = 5;
  r.machines = 3;
  r.backend = "cpu-steal";
  r.best_makespan = 123;
  r.best_permutation = {2, 0, 1, 4, 3};
  r.proven_optimal = true;
  return r;
}

TEST(SolveReport, JsonSurvivesControlCharactersInStrings) {
  SolveReport r = sample_report();
  r.instance_name = std::string("bad\tname\nwith") + '\x01' + "controls";
  r.evaluator = "eval\r\"quoted\"";
  const std::string json = r.to_json();
  EXPECT_EQ(json.find('\t'), std::string::npos);
  EXPECT_EQ(json.find('\n'), std::string::npos);
  EXPECT_EQ(json.find('\r'), std::string::npos);
  EXPECT_EQ(json.find('\x01'), std::string::npos);
  EXPECT_NE(json.find("bad\\tname\\nwith\\u0001controls"), std::string::npos);
}

TEST(SolveReport, JsonCarriesStealStatsWhenPresent) {
  SolveReport r = sample_report();
  EXPECT_NE(r.to_json().find("\"steal\":null"), std::string::npos);

  core::StealStats steals;
  steals.steal_attempts = 10;
  steals.steal_successes = 4;
  steals.nodes_stolen = 9;
  r.steal = steals;
  const std::string json = r.to_json();
  EXPECT_NE(json.find("\"steal\":{\"attempts\":10,\"successes\":4,"
                      "\"nodes_stolen\":9,\"success_rate\":0.4}"),
            std::string::npos);
}

TEST(SolveReport, TextSummaryMentionsStealsOnlyWhenPresent) {
  SolveReport r = sample_report();
  std::ostringstream plain;
  plain << r;
  EXPECT_EQ(plain.str().find("stolen"), std::string::npos);

  core::StealStats steals;
  steals.steal_attempts = 3;
  steals.steal_successes = 2;
  steals.nodes_stolen = 5;
  r.steal = steals;
  std::ostringstream with;
  with << r;
  EXPECT_NE(with.str().find("5 nodes stolen in 2/3 successful steals"),
            std::string::npos);
}

TEST(SolveReport, ConfigEchoCarriesStealKnobs) {
  // cpu-steal's only knob is its worker count: no deque, victim-order or
  // steal-batch field is echoed.
  SolveReport r = sample_report();
  r.config.backend = "cpu-steal";
  r.config.threads = 7;
  const std::string json = r.to_json();
  EXPECT_NE(json.find("\"threads\":7"), std::string::npos);
  EXPECT_EQ(json.find("victim_order"), std::string::npos);
  EXPECT_EQ(json.find("steal_batch"), std::string::npos);
  EXPECT_EQ(json.find("\"deque\""), std::string::npos);
}

TEST(SolveReport, ConfigEchoCarriesGpuDevices) {
  SolveReport r = sample_report();
  r.config.gpu_devices = "2:c2050,c1060";
  EXPECT_NE(r.to_json().find("\"gpu_devices\":\"2:c2050,c1060\""),
            std::string::npos);
}

core::ResidentPoolStats sample_pool_stats() {
  core::ResidentPoolStats p;
  p.capacity = 128;
  p.slot_bytes = 32;
  p.overflow = 3;
  p.refills = 7;
  p.devices = 2;
  p.rebalanced = 5;
  core::ShardOccupancy a;
  a.device = 0;
  a.live = 4;
  a.peak_live = 9;
  a.allocated = 20;
  a.released = 16;
  a.spills = 1;
  a.steals = 2;
  a.refills = 3;
  core::ShardOccupancy b;
  b.device = 1;
  b.live = 0;
  b.peak_live = 6;
  b.allocated = 11;
  b.released = 11;
  b.spills = 2;
  b.steals = 1;
  b.refills = 4;
  p.shards = {a, b};
  return p;
}

TEST(PoolStatsJson, RoundTripsTheDeviceDimension) {
  const core::ResidentPoolStats p = sample_pool_stats();
  const core::ResidentPoolStats q =
      pool_stats_from_json(JsonValue::parse(pool_stats_to_json(p)));
  EXPECT_EQ(q.capacity, p.capacity);
  EXPECT_EQ(q.slot_bytes, p.slot_bytes);
  EXPECT_EQ(q.overflow, p.overflow);
  EXPECT_EQ(q.refills, p.refills);
  EXPECT_EQ(q.devices, p.devices);
  EXPECT_EQ(q.rebalanced, p.rebalanced);
  ASSERT_EQ(q.shards.size(), p.shards.size());
  for (std::size_t i = 0; i < p.shards.size(); ++i) {
    EXPECT_EQ(q.shards[i].device, p.shards[i].device) << i;
    EXPECT_EQ(q.shards[i].live, p.shards[i].live) << i;
    EXPECT_EQ(q.shards[i].peak_live, p.shards[i].peak_live) << i;
    EXPECT_EQ(q.shards[i].allocated, p.shards[i].allocated) << i;
    EXPECT_EQ(q.shards[i].released, p.shards[i].released) << i;
    EXPECT_EQ(q.shards[i].spills, p.shards[i].spills) << i;
    EXPECT_EQ(q.shards[i].steals, p.shards[i].steals) << i;
    EXPECT_EQ(q.shards[i].refills, p.shards[i].refills) << i;
  }
}

TEST(PoolStatsJson, ReadsThePreMultiDeviceFlatShape) {
  // The shape emitted before the device dimension existed: no "devices",
  // no "rebalanced", shards without a "device" field. Old recorded
  // reports must keep parsing, defaulting to one device.
  const std::string old_shape =
      "{\"capacity\":64,\"slot_bytes\":16,\"overflow\":2,\"refills\":5,"
      "\"peak_live\":9,\"shards\":[{\"live\":1,\"peak_live\":9,"
      "\"allocated\":10,\"released\":9,\"spills\":0,\"steals\":0,"
      "\"refills\":5}]}";
  const core::ResidentPoolStats q =
      pool_stats_from_json(JsonValue::parse(old_shape));
  EXPECT_EQ(q.capacity, 64u);
  EXPECT_EQ(q.slot_bytes, 16u);
  EXPECT_EQ(q.overflow, 2u);
  EXPECT_EQ(q.refills, 5u);
  EXPECT_EQ(q.devices, 1u);
  EXPECT_EQ(q.rebalanced, 0u);
  ASSERT_EQ(q.shards.size(), 1u);
  EXPECT_EQ(q.shards[0].device, 0u);
  EXPECT_EQ(q.shards[0].allocated, 10u);
  EXPECT_EQ(q.shards[0].refills, 5u);
}

TEST(SolveReport, JsonCarriesTheMultiDevicePoolShape) {
  SolveReport r = sample_report();
  r.pool = sample_pool_stats();
  const std::string json = r.to_json();
  EXPECT_NE(json.find("\"devices\":2"), std::string::npos);
  EXPECT_NE(json.find("\"rebalanced\":5"), std::string::npos);
  EXPECT_NE(json.find("\"device\":1"), std::string::npos);

  std::ostringstream text;
  text << r;
  EXPECT_NE(text.str().find("(2 devices, 5 rebalanced)"), std::string::npos);
}

}  // namespace
}  // namespace fsbb::api
