// serve::Client protocol behavior against a live Server: structured
// errors for malformed/oversized/unknown requests, explicit-instance
// submits, the metrics op, tenant/priority overrides, and close()
// canceling a peer's jobs while muting its sink.
#include <gtest/gtest.h>

#include <chrono>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "common/json.h"
#include "serve/server.h"

namespace fsbb::serve {
namespace {

/// Collects sink lines; wait_for() polls for the first line containing a
/// substring (events arrive from service worker threads).
struct LineCollector {
  std::mutex mu;
  std::vector<std::string> lines;

  Client::Sink sink() {
    return [this](const std::string& line) {
      const std::lock_guard<std::mutex> lock(mu);
      lines.push_back(line);
    };
  }

  std::vector<std::string> snapshot() {
    const std::lock_guard<std::mutex> lock(mu);
    return lines;
  }

  std::string wait_for(const std::string& needle, int timeout_ms = 30000) {
    const auto deadline = std::chrono::steady_clock::now() +
                          std::chrono::milliseconds(timeout_ms);
    while (std::chrono::steady_clock::now() < deadline) {
      {
        const std::lock_guard<std::mutex> lock(mu);
        for (const std::string& line : lines) {
          if (line.find(needle) != std::string::npos) return line;
        }
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
    ADD_FAILURE() << "no line containing: " << needle;
    return "";
  }
};

ServerOptions small_options() {
  ServerOptions options;
  options.workers = 2;
  options.quiet_progress = true;
  return options;
}

TEST(ServeClient, MalformedAndUnknownRequestsAnswerErrors) {
  Server server(small_options());
  LineCollector out;
  auto client = std::make_shared<Client>(server, out.sink());

  EXPECT_EQ(client->handle_line("{not json"), Client::Action::kContinue);
  EXPECT_EQ(client->handle_line("{\"op\":\"fly\"}"), Client::Action::kContinue);
  const auto lines = out.snapshot();
  ASSERT_EQ(lines.size(), 2u);
  EXPECT_NE(lines[0].find("\"event\":\"error\""), std::string::npos);
  EXPECT_NE(lines[1].find("unknown op 'fly'"), std::string::npos);

  const JsonValue metrics =
      JsonValue::parse(server.metrics_json());
  EXPECT_EQ(metrics.find("errors")->int_or("malformed_requests", -1), 2);
}

TEST(ServeClient, SubmitValidationRejectsWithReasons) {
  Server server(small_options());
  LineCollector out;
  auto client = std::make_shared<Client>(server, out.sink());

  client->handle_line(R"({"op":"submit","cli":"--jobs 4"})");
  out.wait_for("non-empty \\\"id\\\"");
  client->handle_line(R"({"op":"submit","id":"a"})");
  out.wait_for("\\\"cli\\\" string or array");
  client->handle_line(
      R"({"op":"submit","id":"a","cli":"--jobs 4","priority":"urgent"})");
  out.wait_for("unknown priority");
  client->handle_line(
      R"({"op":"submit","id":"a","cli":"--jobs 4","cache":"always"})");
  out.wait_for("use | refresh | bypass");
  client->handle_line(
      R"({"op":"submit","id":"a","cli":"--jobs 4 --machines 3 --count 2"})");
  out.wait_for("exactly one instance per job");
  // Worker counts are capped before any thread exists.
  client->handle_line(
      R"({"op":"submit","id":"a","cli":"--backend cpu-steal --threads 100000"})");
  out.wait_for("--threads must be in [1, 256], got 100000");
  client->handle_line(R"({"op":"submit","id":"a","cli":"--block-threads 5000"})");
  out.wait_for("--block-threads must be 0 (auto) or in [1, 1024], got 5000");
  // The retired shared-pool backend is an unknown key like any other.
  client->handle_line(R"({"op":"submit","id":"a","cli":"--backend multicore"})");
  out.wait_for("unknown backend 'multicore' (registered: ");
  // None of these reached the service or charged a quota.
  EXPECT_EQ(server.service().jobs_submitted(), 0u);
  EXPECT_EQ(server.admission().active_jobs("anonymous"), 0u);
}

TEST(ServeClient, RejectionsCarryTheMessageWithoutBuildInternals) {
  // A rejection tells the client what to fix; the failed C++ expression
  // and the source location stay in the server log.
  Server server(small_options());
  LineCollector out;
  auto client = std::make_shared<Client>(server, out.sink());
  client->handle_line(R"({"op":"submit","id":"a","cli":"--backend warp"})");
  const JsonValue event = JsonValue::parse(out.wait_for("\"rejected\""));
  const std::string error = event.string_or("error", "");
  EXPECT_NE(error.find("unknown backend 'warp' (registered: "),
            std::string::npos)
      << error;
  EXPECT_EQ(error.find("check failed"), std::string::npos) << error;
  EXPECT_EQ(error.find(".cpp"), std::string::npos) << error;
  EXPECT_EQ(error.find('/'), std::string::npos) << error;
}

TEST(ServeClient, SolveTimeFailuresCarryTheMessageWithoutBuildInternals) {
  // This combination passes validation and backend creation and fails
  // only when the engine starts: the result event must still carry the
  // message alone.
  Server server(small_options());
  LineCollector out;
  auto client = std::make_shared<Client>(server, out.sink());
  client->handle_line(
      R"({"op":"submit","id":"d","cli":"--jobs 6 --machines 3 )"
      R"(--backend gpu-sim --gpu-pool dfs"})");
  const JsonValue result =
      JsonValue::parse(out.wait_for("\"event\":\"result\""));
  EXPECT_FALSE(result.bool_or("ok", true));
  const std::string error = result.string_or("error", "");
  EXPECT_NE(error.find("--strategy depth-first"), std::string::npos) << error;
  EXPECT_EQ(error.find("check failed"), std::string::npos) << error;
  EXPECT_EQ(error.find(".cpp"), std::string::npos) << error;
  EXPECT_EQ(error.find('/'), std::string::npos) << error;
  client->drain();
}

TEST(ServeClient, OversizedLineAnswersStructuredError) {
  Server server(small_options());
  LineCollector out;
  auto client = std::make_shared<Client>(server, out.sink());
  client->handle_oversized_line();
  const std::string line = out.wait_for("\"event\":\"error\"");
  EXPECT_NE(line.find("exceeds"), std::string::npos);
  const JsonValue metrics = JsonValue::parse(server.metrics_json());
  EXPECT_EQ(metrics.find("errors")->int_or("oversized_lines", -1), 1);
}

TEST(ServeClient, ExplicitInstanceSubmitSolvesAndEchoesTenant) {
  Server server(small_options());
  LineCollector out;
  auto client = std::make_shared<Client>(server, out.sink());
  client->handle_line(
      R"({"op":"submit","id":"w1","tenant":"acme","priority":"high",)"
      R"("cli":"--backend cpu-serial",)"
      R"("instance":{"name":"wire-3x2","ptm":[[3,2],[1,4],[2,2]]}})");
  const std::string accepted = out.wait_for("\"event\":\"accepted\"");
  EXPECT_NE(accepted.find("\"tenant\":\"acme\""), std::string::npos);
  EXPECT_NE(accepted.find("\"priority\":\"high\""), std::string::npos);
  EXPECT_NE(accepted.find("\"cache\":\"miss\""), std::string::npos);
  const JsonValue result =
      JsonValue::parse(out.wait_for("\"event\":\"result\""));
  EXPECT_TRUE(result.bool_or("ok", false));
  const JsonValue* report = result.find("report");
  ASSERT_NE(report, nullptr);
  EXPECT_EQ(report->find("instance")->string_or("name", ""), "wire-3x2");
  // The report echoes who asked — billing-grade attribution.
  EXPECT_EQ(report->find("config")->string_or("tenant", ""), "acme");
  client->drain();
}

TEST(ServeClient, MalformedExplicitInstanceRejects) {
  Server server(small_options());
  LineCollector out;
  auto client = std::make_shared<Client>(server, out.sink());
  client->handle_line(
      R"({"op":"submit","id":"w2","cli":"","instance":{"name":"bad"}})");
  out.wait_for("\\\"ptm\\\" array");
  client->handle_line(
      R"({"op":"submit","id":"w3","cli":"","instance":{"ptm":[[1,2],[3]]}})");
  out.wait_for("same machine count");
}

TEST(ServeClient, OutOfRangeWireTimesReject) {
  Server server(small_options());
  LineCollector out;
  auto client = std::make_shared<Client>(server, out.sink());
  // 2^32 + 3 would narrow to 3 if the wire value were cast unchecked.
  client->handle_line(
      R"({"op":"submit","id":"w4","cli":"","instance":)"
      R"({"ptm":[[4294967299,1],[2,2]]}})");
  const JsonValue wide = JsonValue::parse(out.wait_for("got 4294967299"));
  EXPECT_EQ(wide.string_or("event", ""), "rejected");
  EXPECT_EQ(wide.string_or("id", ""), "w4");
  client->handle_line(
      R"({"op":"submit","id":"w5","cli":"","instance":{"ptm":[[-1,1]]}})");
  out.wait_for("got -1");
  // In range one by one, but the total overflows Time: the instance
  // itself refuses it.
  client->handle_line(
      R"({"op":"submit","id":"w6","cli":"","instance":)"
      R"({"ptm":[[1000000000,1000000000],[1000000000,1000000000],)"
      R"([1000000000,1000000000]]}})");
  out.wait_for("exceeds the Time limit");
  for (const std::string& line : out.snapshot()) {
    EXPECT_EQ(line.find("\"event\":\"accepted\""), std::string::npos) << line;
  }
}

TEST(ServeClient, InstanceBeyondJobIdRangeRejectsAndClientKeepsSolving) {
  Server server(small_options());
  LineCollector out;
  auto client = std::make_shared<Client>(server, out.sink());
  // 40,000 one-machine rows (~160 KB, under the default line cap) would
  // wrap the int16 JobId; the instance refuses it at the edge.
  std::string rows;
  for (int j = 0; j < 40000; ++j) rows += j == 0 ? "[1]" : ",[1]";
  client->handle_line(R"({"op":"submit","id":"huge","cli":"","instance":)"
                      R"({"ptm":[)" + rows + "]}}");
  const JsonValue rejected =
      JsonValue::parse(out.wait_for("limit is 32767"));
  EXPECT_EQ(rejected.string_or("event", ""), "rejected");
  EXPECT_EQ(rejected.string_or("id", ""), "huge");
  EXPECT_NE(rejected.string_or("error", "").find("40000 jobs"),
            std::string::npos);

  // Inside the JobId range but over the bound-table policy: 2 x 32767
  // (~131 KB on the wire) would need 2 * 536,821,761 LowerBoundData
  // cells. Refused on the row count, before any matrix is built; the
  // generator spec is refused the same way from a 40-byte request.
  std::string row = "[1";
  for (int k = 1; k < 32767; ++k) row += ",1";
  row += "]";
  client->handle_line(R"({"op":"submit","id":"wide","cli":"","instance":)"
                      R"({"ptm":[)" + row + "," + row + "]}}");
  const JsonValue wide = JsonValue::parse(out.wait_for("\"id\":\"wide\""));
  EXPECT_EQ(wide.string_or("event", ""), "rejected");
  EXPECT_NE(wide.string_or("error", "").find("serve limit is 4194304"),
            std::string::npos)
      << wide.string_or("error", "");
  client->handle_line(
      R"({"op":"submit","id":"gen","cli":"--jobs 2 --machines 32767"})");
  const JsonValue gen = JsonValue::parse(out.wait_for("\"id\":\"gen\""));
  EXPECT_EQ(gen.string_or("event", ""), "rejected");
  EXPECT_NE(gen.string_or("error", "").find("serve limit is 4194304"),
            std::string::npos)
      << gen.string_or("error", "");
  // No machine pairs, so within the cell limit, but past the JobId range:
  // the generator refuses it before allocating the matrix.
  client->handle_line(
      R"({"op":"submit","id":"tall","cli":"--jobs 1000000 --machines 1"})");
  const JsonValue tall = JsonValue::parse(out.wait_for("\"id\":\"tall\""));
  EXPECT_EQ(tall.string_or("event", ""), "rejected");
  EXPECT_NE(tall.string_or("error", "").find("exceeds the limit of 32767"),
            std::string::npos)
      << tall.string_or("error", "");
  EXPECT_EQ(server.service().jobs_submitted(), 0u);

  client->handle_line(
      R"({"op":"submit","id":"next","cli":"--backend cpu-serial",)"
      R"("instance":{"ptm":[[3,2],[1,4],[2,2]]}})");
  const JsonValue result =
      JsonValue::parse(out.wait_for("\"event\":\"result\""));
  EXPECT_EQ(result.string_or("id", ""), "next");
  EXPECT_TRUE(result.bool_or("ok", false));
  EXPECT_EQ(result.string_or("stop_reason", ""), "optimal");
  client->drain();
}

TEST(ServeClient, MetricsOpReturnsFullRegistry) {
  Server server(small_options());
  LineCollector out;
  auto client = std::make_shared<Client>(server, out.sink());
  client->handle_line(R"({"op":"metrics"})");
  const JsonValue event =
      JsonValue::parse(out.wait_for("\"event\":\"metrics\""));
  const JsonValue* data = event.find("data");
  ASSERT_NE(data, nullptr);
  for (const char* section : {"queue", "admission", "cache", "latency_ms",
                              "backends", "connections", "errors"}) {
    EXPECT_NE(data->find(section), nullptr) << section;
  }
}

TEST(ServeClient, CloseCancelsJobsAndMutesTheSink) {
  Server server(small_options());
  LineCollector out;
  auto client = std::make_shared<Client>(server, out.sink());
  // A search that cannot finish fast: weak explicit upper bound.
  client->handle_line(
      R"({"op":"submit","id":"long","tenant":"t",)"
      R"("cli":"--jobs 14 --machines 10 --seed 777 --ub 1000000"})");
  out.wait_for("\"event\":\"accepted\"");
  EXPECT_EQ(client->jobs_open(), 1u);

  client->close();
  const std::size_t muted_at = out.snapshot().size();
  client->drain();  // job reaches a terminal state (canceled)
  // The quota was released by the completion callback even though the
  // peer is gone, and nothing was emitted after close().
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(30);
  while (server.admission().active_jobs("t") != 0 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  EXPECT_EQ(server.admission().active_jobs("t"), 0u);
  EXPECT_EQ(out.snapshot().size(), muted_at);
}

}  // namespace
}  // namespace fsbb::serve
