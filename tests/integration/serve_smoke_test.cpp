// End-to-end coverage of the sisd_serve binary: a request script answers
// one ok response per request, transcripts are byte-identical across
// scoring-thread counts, and misuse exits nonzero with usage on stderr.
// The binary path is injected by CMake.

#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>

#ifndef SISD_SERVE_BIN
#error "SISD_SERVE_BIN must be defined by the build system"
#endif

namespace {

const char kWorkDir[] = "/tmp/sisd_serve_smoke_test";

int RunShell(const std::string& command) {
  const int rc = std::system(command.c_str());
  return WIFEXITED(rc) ? WEXITSTATUS(rc) : -1;
}

std::string ReadFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

std::string Path(const char* name) {
  return std::string(kWorkDir) + "/" + name;
}

class ServeSmokeTest : public ::testing::Test {
 protected:
  void SetUp() override {
    std::system((std::string("rm -rf ") + kWorkDir).c_str());
    ASSERT_EQ(std::system((std::string("mkdir -p ") + kWorkDir).c_str()), 0);
  }
};

void WriteScript(const std::string& path) {
  std::ofstream script(path);
  script << "# sisd_serve smoke script (mirrors docs/PROTOCOL.md)\n"
         << R"({"id":1,"verb":"open","session":"s1","scenario":"synthetic",)"
         << R"("config":{"beam_width":8,"max_depth":2,"top_k":20,)"
         << R"("min_coverage":5}})" << "\n"
         << R"({"id":2,"verb":"mine","session":"s1","iterations":2})" << "\n"
         << R"({"id":3,"verb":"evict","session":"s1"})" << "\n"
         << R"({"id":4,"verb":"mine","session":"s1","if_generation":2})"
         << "\n"
         << R"({"id":5,"verb":"history","session":"s1"})" << "\n"
         << R"({"id":6,"verb":"stats"})" << "\n"
         << R"({"id":7,"verb":"close","session":"s1"})" << "\n";
}

TEST_F(ServeSmokeTest, ScriptTranscriptAnswersEveryRequest) {
  WriteScript(Path("script.jsonl"));
  ASSERT_EQ(RunShell(std::string(SISD_SERVE_BIN) + " --script " +
                Path("script.jsonl") + " > " + Path("serve.out") +
                " 2> /dev/null"),
            0);
  const std::string serve_out = ReadFile(Path("serve.out"));
  ASSERT_FALSE(serve_out.empty());

  // 7 responses, all ok, eviction transparent (iteration 3 mined after
  // evict).
  std::istringstream lines(serve_out);
  std::string line;
  int count = 0;
  while (std::getline(lines, line)) {
    ++count;
    EXPECT_NE(line.find("\"ok\":true"), std::string::npos) << line;
  }
  EXPECT_EQ(count, 7);
  EXPECT_NE(serve_out.find("\"iteration\":3"), std::string::npos);
  EXPECT_NE(serve_out.find("\"evictions\":1"), std::string::npos);
}

TEST_F(ServeSmokeTest, SpillDirIsUsedAndDeterministicAcrossThreadCounts) {
  WriteScript(Path("script.jsonl"));
  ASSERT_EQ(RunShell(std::string("mkdir -p ") + Path("spill")), 0);
  ASSERT_EQ(RunShell(std::string(SISD_SERVE_BIN) + " --script " +
                Path("script.jsonl") + " --spill-dir " + Path("spill") +
                " --threads 1 > " + Path("t1.out") + " 2> /dev/null"),
            0);
  ASSERT_EQ(RunShell(std::string(SISD_SERVE_BIN) + " --script " +
                Path("script.jsonl") + " --spill-dir " + Path("spill") +
                " --threads 4 > " + Path("t4.out") + " 2> /dev/null"),
            0);
  const std::string t1 = ReadFile(Path("t1.out"));
  ASSERT_FALSE(t1.empty());
  EXPECT_EQ(t1, ReadFile(Path("t4.out")))
      << "responses differ between 1 and 4 workers";
}

TEST_F(ServeSmokeTest, MisuseFailsLoudly) {
  EXPECT_EQ(RunShell(std::string(SISD_SERVE_BIN) + " --help > /dev/null 2>&1"),
            0);
  EXPECT_NE(RunShell(std::string(SISD_SERVE_BIN) +
                " --frobnicate > /dev/null 2>&1"),
            0);
  EXPECT_NE(RunShell(std::string(SISD_SERVE_BIN) + " --script " +
                Path("missing.jsonl") + " > /dev/null 2>&1"),
            0);
  EXPECT_NE(RunShell(std::string(SISD_SERVE_BIN) +
                " --epoll notaport > /dev/null 2>&1"),
            0);
  // --tcp is not a flag; the one socket transport is --epoll.
  EXPECT_EQ(RunShell(std::string(SISD_SERVE_BIN) + " --tcp 0 > /dev/null 2>&1"),
            2);
  // The session map has no shards, so there is no shard-count flag.
  EXPECT_EQ(RunShell(std::string(SISD_SERVE_BIN) + " --" "shards 8" +
                " > /dev/null 2>&1"),
            2);
  // One connection then exit is --max-connections 1; there is no
  // --accept-once alias.
  EXPECT_EQ(RunShell(std::string(SISD_SERVE_BIN) +
                " --accept-once --script " + Path("missing.jsonl") +
                " > /dev/null 2> " +
                Path("accept_once_err.txt")),
            2);
  EXPECT_NE(ReadFile(Path("accept_once_err.txt"))
                .find("unknown flag '--accept-once'"),
            std::string::npos);
  // An unknown flag given last is named as unknown, not as a flag that
  // lacks its value.
  EXPECT_EQ(RunShell(std::string(SISD_SERVE_BIN) +
                " --epoll 0 --frobnicate > /dev/null 2> " +
                Path("last_flag_err.txt")),
            2);
  EXPECT_NE(ReadFile(Path("last_flag_err.txt"))
                .find("unknown flag '--frobnicate'"),
            std::string::npos);
  // Negative service limits are usage errors, not crashes.
  EXPECT_EQ(RunShell(std::string(SISD_SERVE_BIN) +
                " --max-resident -1 > /dev/null 2>&1"),
            2);
  // Unknown flags report usage on stderr.
  ASSERT_NE(RunShell(std::string(SISD_SERVE_BIN) + " --frobnicate > /dev/null 2> " +
                Path("err.txt")),
            0);
  EXPECT_NE(ReadFile(Path("err.txt")).find("USAGE"), std::string::npos);
}

}  // namespace
