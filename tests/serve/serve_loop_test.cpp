// The serve transports end to end:
//  - the acceptance scenario (open -> 3x mine -> save -> evict -> mine)
//    scripted through ServeStream produces results byte-identical to the
//    same iterations run directly on a MiningSession, including the saved
//    snapshot bytes;
//  - the same script answers byte-identically on 1 worker and N workers;
//  - blank/comment/malformed lines behave as documented;
//  - an `open` whose search config cannot run is rejected, not fatal;
//  - `metrics` counts every verb of the verb table in its own slot;
//  - the epoll socket transport answers the same bytes.

#include "serve/server.hpp"

#include <arpa/inet.h>
#include <gtest/gtest.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <mutex>
#include <set>
#include <sstream>
#include <streambuf>
#include <string>
#include <thread>
#include <vector>

#include "common/strings.hpp"
#include "datagen/scenarios.hpp"
#include "serialize/json.hpp"
#include "serialize/protocol.hpp"
#include "serve/event_loop_server.hpp"
#include "serve/service.hpp"
#include "serve/session_manager.hpp"

namespace sisd::serve {
namespace {

constexpr const char* kOpenLine =
    "{\"id\":1,\"verb\":\"open\",\"session\":\"s1\","
    "\"scenario\":\"synthetic\",\"config\":{\"beam_width\":8,"
    "\"max_depth\":2,\"top_k\":20,\"min_coverage\":5}}";

core::MinerConfig FastConfig() {
  core::MinerConfig config;
  config.search.beam_width = 8;
  config.search.max_depth = 2;
  config.search.top_k = 20;
  config.search.min_coverage = 5;
  return config;
}

std::string RunScript(const std::string& script, ServeConfig config) {
  SessionManager manager(std::move(config));
  std::istringstream in(script);
  std::ostringstream out;
  ServeStream(manager, in, out);
  return out.str();
}

/// Extracts `result.iterations[0].location` of a mine response line.
std::string MinedLocation(const std::string& line) {
  Result<serialize::ProtocolResponse> response =
      serialize::ParseResponseLine(line);
  if (!response.ok() || !response.Value().ok) return "<error>";
  const serialize::JsonValue* iterations =
      response.Value().result.Find("iterations");
  if (iterations == nullptr || iterations->size() == 0) return "<empty>";
  const serialize::JsonValue* location =
      iterations->items().front().Find("location");
  return location == nullptr ? "<missing>"
                             : location->GetString().ValueOr("<bad>");
}

TEST(ServeLoopTest, AcceptanceScriptMatchesDirectSession) {
  const std::string save_path = "/tmp/sisd_serve_loop_acceptance.json";
  std::remove(save_path.c_str());
  std::string script;
  script += std::string(kOpenLine) + "\n";
  script += "{\"id\":2,\"verb\":\"mine\",\"session\":\"s1\"}\n";
  script += "{\"id\":3,\"verb\":\"mine\",\"session\":\"s1\"}\n";
  script += "{\"id\":4,\"verb\":\"mine\",\"session\":\"s1\"}\n";
  script += "{\"id\":5,\"verb\":\"save\",\"session\":\"s1\",\"path\":\"" +
            save_path + "\"}\n";
  script += "{\"id\":6,\"verb\":\"evict\",\"session\":\"s1\"}\n";
  script += "{\"id\":7,\"verb\":\"mine\",\"session\":\"s1\"}\n";

  const std::string output = RunScript(script, ServeConfig{});
  std::vector<std::string> lines = SplitString(output, '\n');
  ASSERT_GE(lines.size(), 7u) << output;

  // The same four iterations, run directly.
  Result<core::MiningSession> direct = core::MiningSession::Create(
      datagen::MakeScenarioDataset("synthetic").Value(), FastConfig());
  ASSERT_TRUE(direct.ok());
  std::vector<std::string> expected;
  std::string expected_snapshot;
  for (int i = 0; i < 4; ++i) {
    if (i == 3) expected_snapshot = direct.Value().SaveToString();
    Result<core::IterationResult> iteration = direct.Value().MineNext();
    ASSERT_TRUE(iteration.ok());
    expected.push_back(iteration.Value().location.Describe(
        direct.Value().dataset().descriptions));
  }

  EXPECT_EQ(MinedLocation(lines[1]), expected[0]);
  EXPECT_EQ(MinedLocation(lines[2]), expected[1]);
  EXPECT_EQ(MinedLocation(lines[3]), expected[2]);
  // Mine-after-evict (line 7) continues byte-identically.
  EXPECT_EQ(MinedLocation(lines[6]), expected[3]);

  // The snapshot saved through the protocol equals the direct session's
  // snapshot at the same point, byte for byte.
  Result<std::string> saved = serialize::ReadTextFile(save_path);
  ASSERT_TRUE(saved.ok());
  EXPECT_EQ(saved.Value(), expected_snapshot);
  std::remove(save_path.c_str());
}

TEST(ServeLoopTest, ResponsesAreByteIdenticalAcrossWorkerCounts) {
  std::string script;
  script += std::string(kOpenLine) + "\n";
  script += "{\"id\":2,\"verb\":\"mine\",\"session\":\"s1\","
            "\"iterations\":2}\n";
  script += "{\"id\":3,\"verb\":\"evict\",\"session\":\"s1\"}\n";
  script += "{\"id\":4,\"verb\":\"mine\",\"session\":\"s1\"}\n";
  script += "{\"id\":5,\"verb\":\"history\",\"session\":\"s1\"}\n";
  script += "{\"id\":6,\"verb\":\"export\",\"session\":\"s1\","
            "\"what\":\"ranked\"}\n";
  script += "{\"id\":7,\"verb\":\"stats\"}\n";

  ServeConfig one;
  one.num_threads = 1;
  ServeConfig many;
  many.num_threads = 4;
  const std::string output_one = RunScript(script, one);
  const std::string output_many = RunScript(script, many);
  EXPECT_EQ(output_one, output_many)
      << "worker count leaked into protocol responses";
}

TEST(ServeLoopTest, CatalogVerbScriptIsDeterministicAndSharesOneDataset) {
  // dataset_load -> two catalog-addressed opens -> mine both -> list ->
  // drop (refused while pinned) -> close both -> drop -> stats. The
  // script replays byte-identically (same script => same bytes, the
  // protocol determinism guarantee extended to the catalog verbs), and
  // both sessions mine the same first pattern as a private-copy session.
  std::string script;
  script += "{\"id\":1,\"verb\":\"dataset_load\",\"scenario\":"
            "\"synthetic\",\"name\":\"shared\"}\n";
  script += "{\"id\":2,\"verb\":\"open\",\"session\":\"a\","
            "\"dataset_ref\":\"shared\",\"config\":{\"beam_width\":8,"
            "\"max_depth\":2,\"top_k\":20,\"min_coverage\":5}}\n";
  script += "{\"id\":3,\"verb\":\"open\",\"session\":\"b\","
            "\"dataset_ref\":\"shared\",\"config\":{\"beam_width\":8,"
            "\"max_depth\":2,\"top_k\":20,\"min_coverage\":5}}\n";
  script += "{\"id\":4,\"verb\":\"mine\",\"session\":\"a\"}\n";
  script += "{\"id\":5,\"verb\":\"mine\",\"session\":\"b\"}\n";
  script += "{\"id\":6,\"verb\":\"dataset_list\"}\n";
  script += "{\"id\":7,\"verb\":\"dataset_drop\",\"dataset\":\"shared\"}\n";
  script += "{\"id\":8,\"verb\":\"close\",\"session\":\"a\"}\n";
  script += "{\"id\":9,\"verb\":\"close\",\"session\":\"b\"}\n";
  script += "{\"id\":10,\"verb\":\"dataset_drop\",\"dataset\":\"shared\"}\n";
  script += "{\"id\":11,\"verb\":\"stats\"}\n";

  const std::string output = RunScript(script, ServeConfig{});
  EXPECT_EQ(output, RunScript(script, ServeConfig{}))
      << "catalog verbs broke script determinism";
  const std::vector<std::string> lines = SplitString(output, '\n');
  ASSERT_GE(lines.size(), 11u) << output;

  // Both shared sessions mine what a private-copy session mines.
  data::Dataset renamed = datagen::MakeScenarioDataset("synthetic").Value();
  renamed.name = "shared";
  Result<core::MiningSession> direct =
      core::MiningSession::Create(std::move(renamed), FastConfig());
  ASSERT_TRUE(direct.ok());
  Result<core::IterationResult> iteration = direct.Value().MineNext();
  ASSERT_TRUE(iteration.ok());
  const std::string expected = iteration.Value().location.Describe(
      direct.Value().dataset().descriptions);
  EXPECT_EQ(MinedLocation(lines[3]), expected);
  EXPECT_EQ(MinedLocation(lines[4]), expected);

  // dataset_list reports the shared entry: one pool, two session pins.
  EXPECT_NE(lines[5].find("\"name\":\"shared\""), std::string::npos);
  EXPECT_NE(lines[5].find("\"pools\":1"), std::string::npos);
  EXPECT_NE(lines[5].find("\"sessions\":2"), std::string::npos);
  // Drop while pinned is a typed Conflict; after closes it succeeds.
  EXPECT_NE(lines[6].find("\"ok\":false"), std::string::npos);
  EXPECT_NE(lines[6].find("Conflict"), std::string::npos);
  EXPECT_NE(lines[9].find("\"dropped\":\"shared\""), std::string::npos);
  // stats carries the (now empty) catalog section.
  EXPECT_NE(lines[10].find("\"catalog\":{\"datasets\":[],\"bytes_total\":0}"),
            std::string::npos);
}

TEST(ServeLoopTest, SkipsCommentsAndAnswersMalformedLines) {
  const std::string script =
      "# a comment\n"
      "\n"
      "   \n"
      "not json\n"
      "{\"verb\":\"frobnicate\"}\n"
      "{\"id\":9,\"verb\":\"mine\",\"session\":\"ghost\"}\n"
      "{\"id\":10,\"verb\":\"mine\",\"session\":\"ghost\","
      "\"iterations\":4294967297}\n";
  SessionManager manager((ServeConfig()));
  std::istringstream in(script);
  std::ostringstream out;
  const ServeLoopStats stats = ServeStream(manager, in, out);
  EXPECT_EQ(stats.requests, 4u);  // comment/blank lines not counted
  EXPECT_EQ(stats.errors, 4u);
  const std::vector<std::string> lines = SplitString(out.str(), '\n');
  ASSERT_GE(lines.size(), 4u);
  EXPECT_NE(lines[0].find("\"ok\":false"), std::string::npos);
  EXPECT_NE(lines[1].find("unknown verb"), std::string::npos);
  EXPECT_NE(lines[2].find("\"id\":9"), std::string::npos);
  EXPECT_NE(lines[2].find("NotFound"), std::string::npos);
  // Out-of-range iteration counts are rejected, never truncated to int.
  EXPECT_NE(lines[3].find("'iterations' must be in 1.."),
            std::string::npos);
}

TEST(ServeLoopTest, RejectsSearchConfigsTheSearchCannotRun) {
  // Each bad `open` answers InvalidArgument instead of reaching the
  // search's invariant checks (which abort the process), and an int
  // override beyond the int range is rejected, never wrapped. The server
  // keeps serving: the good `open` and `mine` after them succeed.
  const auto open_with = [](int id, const std::string& config) {
    return StrFormat("{\"id\":%d,\"verb\":\"open\",\"session\":\"bad\","
                     "\"scenario\":\"synthetic\",\"config\":{%s}}\n",
                     id, config.c_str());
  };
  std::string script;
  script += open_with(1, "\"beam_width\":0");
  script += "{\"id\":2,\"verb\":\"mine\",\"session\":\"bad\"}\n";
  script += open_with(3, "\"max_depth\":0");
  script += open_with(4, "\"max_depth\":-3");
  script += open_with(5, "\"splits\":0");
  script += open_with(6, "\"beam_width\":4294967297");
  script += open_with(7, "\"max_coverage_fraction\":2.5");
  // Settings the miner cannot use: a zero description length (every SI
  // infinite), a negative one (ranking flipped), a sparsity the spread
  // step does not implement, and an empty result list.
  script += open_with(8, "\"gamma\":0,\"eta\":0");
  script += open_with(9, "\"gamma\":-1,\"eta\":0.5");
  script += open_with(10, "\"spread_sparsity\":7");
  script += open_with(11, "\"spread_sparsity\":-3");
  script += open_with(12, "\"top_k\":0");
  // List-gain costs that would let a rule claim unearned compression.
  script += open_with(13, "\"list_beta\":-1e9");
  script += open_with(14, "\"list_alpha\":-5");
  // A negative budget would fail every mine; NaN would ignore the budget.
  script += open_with(15, "\"time_budget\":-5");
  script += open_with(16, "\"time_budget\":\"NaN\"");
  script += std::string(kOpenLine) + "\n";
  script += "{\"id\":2,\"verb\":\"mine\",\"session\":\"s1\"}\n";

  SessionManager manager((ServeConfig()));
  std::istringstream in(script);
  std::ostringstream out;
  const ServeLoopStats stats = ServeStream(manager, in, out);
  EXPECT_EQ(stats.requests, 18u);
  EXPECT_EQ(stats.errors, 16u) << out.str();
  const std::vector<std::string> lines = SplitString(out.str(), '\n');
  ASSERT_GE(lines.size(), 18u) << out.str();
  EXPECT_NE(lines[0].find("InvalidArgument"), std::string::npos) << lines[0];
  EXPECT_NE(lines[0].find("beam_width must be >= 1"), std::string::npos);
  // The rejected `open` created no session.
  EXPECT_NE(lines[1].find("NotFound"), std::string::npos) << lines[1];
  for (size_t i = 2; i < 6; ++i) {
    EXPECT_NE(lines[i].find("InvalidArgument"), std::string::npos)
        << lines[i];
  }
  EXPECT_NE(lines[5].find("out of int range"), std::string::npos)
      << lines[5];
  for (size_t i = 6; i < 14; ++i) {
    EXPECT_NE(lines[i].find("InvalidArgument"), std::string::npos)
        << lines[i];
  }
  EXPECT_NE(lines[7].find("gamma + eta must be > 0"), std::string::npos);
  EXPECT_NE(lines[8].find("gamma must be finite and >= 0"),
            std::string::npos);
  EXPECT_NE(lines[9].find("spread_sparsity must be 0 or 2"),
            std::string::npos);
  EXPECT_NE(lines[11].find("top_k must be >= 1"), std::string::npos);
  for (size_t i = 12; i < 14; ++i) {
    EXPECT_NE(lines[i].find("list_alpha and list_beta must be finite and >= 0"),
              std::string::npos)
        << lines[i];
  }
  for (size_t i = 14; i < 16; ++i) {
    EXPECT_NE(lines[i].find("InvalidArgument"), std::string::npos)
        << lines[i];
    EXPECT_NE(lines[i].find("time budget must be >= 0 seconds"),
              std::string::npos)
        << lines[i];
  }
  EXPECT_NE(lines[16].find("\"ok\":true"), std::string::npos) << lines[16];
  EXPECT_NE(MinedLocation(lines[17]), "<error>") << lines[17];
  EXPECT_EQ(manager.SessionNames(), std::vector<std::string>{"s1"});
}

TEST(ServeLoopTest, ProcessRequestReturnsStructuredOutcome) {
  SessionManager manager((ServeConfig()));

  // Success: verb and code are structured fields, not substrings.
  const RequestOutcome ok =
      ProcessRequest(manager, "{\"id\":1,\"verb\":\"stats\"}");
  EXPECT_FALSE(ok.skipped);
  EXPECT_TRUE(ok.ok);
  EXPECT_EQ(ok.code, StatusCode::kOk);
  EXPECT_EQ(ok.verb, "stats");

  // A typed error carries its code even when the response payload could
  // contain arbitrary text (the old substring accounting's blind spot).
  const RequestOutcome missing = ProcessRequest(
      manager, "{\"id\":2,\"verb\":\"mine\",\"session\":\"ghost\"}");
  EXPECT_FALSE(missing.ok);
  EXPECT_EQ(missing.code, StatusCode::kNotFound);
  EXPECT_EQ(missing.verb, "mine");

  // A line that never parsed has no verb; the outcome still classifies.
  const RequestOutcome garbage = ProcessRequest(manager, "not json");
  EXPECT_FALSE(garbage.ok);
  EXPECT_TRUE(garbage.verb.empty());
  EXPECT_FALSE(garbage.response.empty());

  // Comments and blanks are skipped, with no response bytes at all.
  EXPECT_TRUE(ProcessRequest(manager, "# comment").skipped);
  EXPECT_TRUE(ProcessRequest(manager, "   ").skipped);
  EXPECT_TRUE(ProcessRequest(manager, "# comment").response.empty());
}

TEST(ServeLoopTest, StreamErrorCountsComeFromStructuredOutcomes) {
  // A success whose payload embeds the literal text ok":false (via a
  // dataset name) must not count as an error: accounting reads the
  // structured outcome, never the wire bytes.
  SessionManager manager((ServeConfig()));
  std::istringstream in(
      "{\"id\":1,\"verb\":\"dataset_load\",\"scenario\":\"synthetic\","
      "\"name\":\"weird\\\"ok\\\":false\"}\n");
  std::ostringstream out;
  const ServeLoopStats stats = ServeStream(manager, in, out);
  EXPECT_EQ(stats.requests, 1u);
  EXPECT_EQ(stats.errors, 0u) << out.str();
  EXPECT_NE(out.str().find("\"ok\":true"), std::string::npos);
}

TEST(ServeLoopTest, StreamBoundsRequestLineLength) {
  SessionManager manager((ServeConfig()));
  // An oversized line answers one InvalidArgument response and ends the
  // stream (the analogue of a connection close); the valid request after
  // it is never read. Buffering stops at the bound.
  std::string script(4096, 'x');
  script += "\n{\"id\":1,\"verb\":\"stats\"}\n";
  std::istringstream in(script);
  std::ostringstream out;
  ServeStreamOptions options;
  options.max_line_bytes = 128;
  const ServeLoopStats stats = ServeStream(manager, in, out, options);
  EXPECT_EQ(stats.requests, 1u);
  EXPECT_EQ(stats.errors, 1u);
  EXPECT_EQ(stats.oversized, 1u);
  const std::vector<std::string> lines = SplitString(out.str(), '\n');
  ASSERT_GE(lines.size(), 1u);
  EXPECT_NE(lines[0].find("InvalidArgument"), std::string::npos);
  EXPECT_NE(lines[0].find("128-byte bound"), std::string::npos);
  EXPECT_EQ(out.str().find("\"ok\":true"), std::string::npos)
      << "request after the oversized line must not be answered";
}

/// Mutex-guarded capture streambuf: the server thread writes the listen
/// announcement while the test polls it, so a plain ostringstream would
/// race.
class SyncCaptureBuf : public std::streambuf {
 public:
  std::string Snapshot() {
    std::lock_guard<std::mutex> lock(mu_);
    return data_;
  }

 protected:
  int overflow(int c) override {
    if (c != EOF) {
      std::lock_guard<std::mutex> lock(mu_);
      data_.push_back(static_cast<char>(c));
    }
    return c;
  }
  std::streamsize xsputn(const char* s, std::streamsize n) override {
    std::lock_guard<std::mutex> lock(mu_);
    data_.append(s, static_cast<size_t>(n));
    return n;
  }

 private:
  std::mutex mu_;
  std::string data_;
};

TEST(ServeLoopTest, EventLoopTransportServesTheSameBytes) {
  const std::string requests = std::string(kOpenLine) + "\n" +
                               "{\"id\":2,\"verb\":\"mine\",\"session\":"
                               "\"s1\"}\n";
  SessionManager manager((ServeConfig()));
  SyncCaptureBuf announce_buf;
  std::ostream announce(&announce_buf);
  EventLoopConfig config;
  config.max_connections = 1;  // drain and return once the client closes
  std::thread server([&manager, &config, &announce] {
    const Status status = ServeEventLoop(manager, config, announce);
    EXPECT_TRUE(status.ok()) << status.ToString();
  });

  // Wait for the listen announcement and parse the ephemeral port.
  int port = 0;
  for (int i = 0; i < 500 && port == 0; ++i) {
    const std::string text = announce_buf.Snapshot();
    const size_t colon = text.rfind(':');
    if (colon != std::string::npos && text.find('\n') != std::string::npos) {
      port = std::atoi(text.c_str() + colon + 1);
    }
    if (port == 0) {
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
  }
  ASSERT_GT(port, 0) << "server never announced its port";

  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(fd, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(static_cast<uint16_t>(port));
  ASSERT_EQ(::connect(fd, reinterpret_cast<const sockaddr*>(&addr),
                      sizeof(addr)),
            0);
  ASSERT_EQ(::write(fd, requests.data(), requests.size()),
            static_cast<ssize_t>(requests.size()));
  ::shutdown(fd, SHUT_WR);
  std::string received;
  char chunk[4096];
  ssize_t n;
  while ((n = ::read(fd, chunk, sizeof(chunk))) > 0) {
    received.append(chunk, static_cast<size_t>(n));
  }
  ::close(fd);
  server.join();

  // One session, so per-session ordering makes the reply stream
  // deterministic: the socket bytes equal the in-process scripted run.
  EXPECT_EQ(received, RunScript(requests, ServeConfig{}));
}

TEST(ServeLoopTest, MetricsCountEveryTableVerbOnce) {
  const std::string save_path = "/tmp/sisd_serve_loop_metrics_save.json";
  std::remove(save_path.c_str());
  // A small inline dataset: 'c' = p lifts the target, so mining finds
  // something and 'c' gives assimilate a categorical level.
  std::string base_csv = "a,c,y\\n";
  for (int i = 0; i < 40; ++i) {
    const char* level = i % 3 == 0 ? "p" : i % 3 == 1 ? "q" : "r";
    const double y = 0.5 * (i % 10) + (i % 3 == 0 ? 2.0 : 0.0) +
                     0.1 * ((i * 7) % 5);
    base_csv += StrFormat("%d,%s,%.2f\\n", i % 10, level, y);
  }
  // One request per verb of the table, in an order where each succeeds.
  const std::vector<std::string> requests = {
      "{\"verb\":\"dataset_load\",\"name\":\"base\",\"csv_text\":\"" +
          base_csv + "\",\"targets\":[\"y\"]}",
      "{\"verb\":\"dataset_list\"}",
      "{\"verb\":\"open\",\"session\":\"s1\",\"dataset_ref\":\"base\","
      "\"config\":{\"beam_width\":8,\"max_depth\":2,\"top_k\":20,"
      "\"min_coverage\":5}}",
      "{\"verb\":\"mine\",\"session\":\"s1\"}",
      "{\"verb\":\"mine_list\",\"session\":\"s1\"}",
      "{\"verb\":\"assimilate\",\"session\":\"s1\",\"conditions\":"
      "[{\"attribute\":\"c\",\"op\":\"=\",\"level\":\"q\"}]}",
      "{\"verb\":\"history\",\"session\":\"s1\"}",
      "{\"verb\":\"export\",\"session\":\"s1\"}",
      "{\"verb\":\"save\",\"session\":\"s1\",\"path\":\"" + save_path +
          "\"}",
      "{\"verb\":\"evict\",\"session\":\"s1\"}",
      "{\"verb\":\"stats\"}",
      "{\"verb\":\"metrics\"}",
      "{\"verb\":\"dataset_append\",\"dataset\":\"base\","
      "\"csv_text\":\"a,c,y\\n3,p,9.5\\n7,r,1.25\\n\"}",
      "{\"verb\":\"rebase\",\"session\":\"s1\",\"dataset\":\"base@v2\"}",
      "{\"verb\":\"close\",\"session\":\"s1\"}",
      "{\"verb\":\"dataset_drop\",\"dataset\":\"base@v2\"}",
  };
  // The script covers the table exactly (a new verb must join it).
  std::set<std::string> scripted;
  for (const std::string& request : requests) {
    scripted.insert(serialize::ParseRequestLine(request).Value().verb);
  }
  std::set<std::string> table;
  for (const Verb& verb : Verbs()) table.insert(verb.name);
  ASSERT_EQ(scripted, table);
  ASSERT_EQ(requests.size(), Verbs().size());

  std::string script;
  for (const std::string& request : requests) script += request + "\n";
  script += "{\"verb\":\"frobnicate\"}\n";
  script += "not json\n";
  script += "{\"verb\":\"metrics\"}\n";
  SessionManager manager((ServeConfig()));
  std::istringstream in(script);
  std::ostringstream out;
  const ServeLoopStats stats = ServeStream(manager, in, out);
  EXPECT_EQ(stats.errors, 2u) << out.str();
  std::remove(save_path.c_str());

  const std::vector<std::string> lines = SplitString(out.str(), '\n');
  ASSERT_GE(lines.size(), requests.size() + 3);
  Result<serialize::ProtocolResponse> final_metrics =
      serialize::ParseResponseLine(lines[requests.size() + 2]);
  ASSERT_TRUE(final_metrics.ok() && final_metrics.Value().ok)
      << lines[requests.size() + 2];
  const serialize::JsonValue* verbs =
      final_metrics.Value().result.Find("verbs");
  ASSERT_NE(verbs, nullptr);
  // Every table verb in its own slot, then exactly the two bad lines in
  // "invalid" (the final metrics request records after it answers).
  EXPECT_EQ(verbs->size(), Verbs().size() + 1) << verbs->Write();
  for (const Verb& verb : Verbs()) {
    const serialize::JsonValue* slot = verbs->Find(verb.name);
    ASSERT_NE(slot, nullptr) << verb.name << " in " << verbs->Write();
    EXPECT_EQ(slot->Find("count")->GetInt().ValueOr(-1), 1) << verb.name;
  }
  const serialize::JsonValue* invalid = verbs->Find("invalid");
  ASSERT_NE(invalid, nullptr) << verbs->Write();
  EXPECT_EQ(invalid->Find("count")->GetInt().ValueOr(-1), 2);
}

}  // namespace
}  // namespace sisd::serve
