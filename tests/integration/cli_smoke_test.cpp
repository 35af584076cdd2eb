// End-to-end coverage of the sisd_cli binary: mine -> resume continues
// byte-identically (snapshot files compared as bytes), export produces the
// CSV artifacts, list mining matches the sisd_serve mine_list verb, and
// misuse exits nonzero with usage help. The binary paths are injected by
// CMake via SISD_CLI_BIN and SISD_SERVE_BIN.

#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <utility>

#ifndef SISD_CLI_BIN
#error "SISD_CLI_BIN must be defined by the build system"
#endif
#ifndef SISD_SERVE_BIN
#error "SISD_SERVE_BIN must be defined by the build system"
#endif

namespace {

const char kWorkDir[] = "/tmp/sisd_cli_smoke_test";

int RunCli(const std::string& args,
           const std::string& output = "/dev/null") {
  const std::string command =
      std::string(SISD_CLI_BIN) + " " + args + " > " + output + " 2>&1";
  const int rc = std::system(command.c_str());
  return WIFEXITED(rc) ? WEXITSTATUS(rc) : -1;
}

/// Replays a protocol script through sisd_serve; responses go to `output`.
int ReplayThroughServe(const std::string& script,
                       const std::string& output = "/dev/null") {
  const std::string command = std::string(SISD_SERVE_BIN) + " --script " +
                              script + " > " + output + " 2> /dev/null";
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

class CliSmokeTest : public ::testing::Test {
 protected:
  void SetUp() override {
    std::system((std::string("rm -rf ") + kWorkDir).c_str());
    ASSERT_EQ(std::system((std::string("mkdir -p ") + kWorkDir).c_str()), 0);
  }
};

const char kFastFlags[] =
    " --beam-width 8 --max-depth 2 --top-k 20 --min-coverage 5";

TEST_F(CliSmokeTest, MineResumeMatchesUnbrokenRun) {
  ASSERT_EQ(RunCli("mine --scenario synthetic --iterations 2" +
                   std::string(kFastFlags) + " --session-save " +
                   Path("two.json")),
            0);
  ASSERT_EQ(RunCli("resume --session " + Path("two.json") +
                   " --iterations 1 --session-save " + Path("resumed.json")),
            0);
  ASSERT_EQ(RunCli("mine --scenario synthetic --iterations 3" +
                   std::string(kFastFlags) + " --session-save " +
                   Path("unbroken.json")),
            0);
  const std::string resumed = ReadFile(Path("resumed.json"));
  ASSERT_FALSE(resumed.empty());
  EXPECT_EQ(resumed, ReadFile(Path("unbroken.json")))
      << "resumed session diverged from the unbroken run";
}

TEST_F(CliSmokeTest, ExportWritesArtifacts) {
  ASSERT_EQ(RunCli("mine --scenario gse --iterations 1 --spread-sparsity 2" +
                   std::string(kFastFlags) + " --session-save " +
                   Path("gse.json")),
            0);
  ASSERT_EQ(RunCli("export --session " + Path("gse.json") + " --history " +
                   Path("history.csv") + " --ranked " + Path("ranked.csv") +
                   " --json " + Path("pretty.json")),
            0);
  const std::string history = ReadFile(Path("history.csv"));
  EXPECT_NE(history.find("iteration,intention"), std::string::npos);
  const std::string ranked = ReadFile(Path("ranked.csv"));
  EXPECT_NE(ranked.find("rank,intention"), std::string::npos);
  const std::string pretty = ReadFile(Path("pretty.json"));
  EXPECT_NE(pretty.find("\"format\": \"sisd-session\""), std::string::npos);
}

TEST_F(CliSmokeTest, MinesUserCsv) {
  {
    std::ofstream csv(Path("data.csv"));
    csv << "group,noise,t\n";
    for (int i = 0; i < 120; ++i) {
      const bool hot = i % 3 == 0;
      csv << (hot ? "a" : "b") << "," << (i % 7) << ","
          << (hot ? 5.0 : 0.0) + 0.01 * double(i % 11) << "\n";
    }
  }
  ASSERT_EQ(RunCli("mine --csv " + Path("data.csv") +
                   " --targets t --location-only --min-coverage 10"
                   " --session-save " +
                   Path("csv.json")),
            0);
  EXPECT_EQ(RunCli("resume --session " + Path("csv.json")), 0);
}

TEST_F(CliSmokeTest, UnknownSubcommandPrintsUsageToStderr) {
  const std::string err_path = Path("unknown_subcommand_stderr.txt");
  const std::string command = std::string(SISD_CLI_BIN) +
                              " frobnicate > /dev/null 2> " + err_path;
  const int rc = std::system(command.c_str());
  ASSERT_TRUE(WIFEXITED(rc));
  EXPECT_NE(WEXITSTATUS(rc), 0);
  const std::string err = ReadFile(err_path);
  EXPECT_NE(err.find("unknown subcommand 'frobnicate'"), std::string::npos)
      << "stderr: " << err;
  EXPECT_NE(err.find("USAGE"), std::string::npos)
      << "usage text missing from stderr on unknown subcommand";
  // Missing subcommand gets the same treatment.
  const std::string command2 = std::string(SISD_CLI_BIN) +
                               " > /dev/null 2> " + err_path;
  const int rc2 = std::system(command2.c_str());
  ASSERT_TRUE(WIFEXITED(rc2));
  EXPECT_NE(WEXITSTATUS(rc2), 0);
  EXPECT_NE(ReadFile(err_path).find("USAGE"), std::string::npos);
}

TEST_F(CliSmokeTest, ListMinesAndResumesByteIdentically) {
  // list -> list --session continues the snapshot. The unbroken reference
  // runs the same two list rounds in one sisd_serve process through the
  // protocol (list_history records one entry per call, so the reference
  // must use the same call granularity), which also pins CLI list mining
  // and the mine_list verb to identical snapshot bytes.
  ASSERT_EQ(RunCli("list --scenario synthetic --rules 2" +
                   std::string(kFastFlags) + " --session-save " +
                   Path("list_two.json")),
            0);
  ASSERT_EQ(RunCli("list --session " + Path("list_two.json") +
                   " --rules 1 --session-save " + Path("list_grown.json")),
            0);
  {
    std::ofstream script(Path("list_serve.jsonl"));
    script << R"({"id":1,"verb":"open","session":"s","scenario":)"
           << R"("synthetic","config":{"beam_width":8,"max_depth":2,)"
           << R"("top_k":20,"min_coverage":5}})" << "\n"
           << R"({"id":2,"verb":"mine_list","session":"s","rules":2})"
           << "\n"
           << R"({"id":3,"verb":"mine_list","session":"s","rules":1})"
           << "\n"
           << R"({"id":4,"verb":"save","session":"s","path":")"
           << Path("list_unbroken.json") << R"("})" << "\n";
  }
  ASSERT_EQ(ReplayThroughServe(Path("list_serve.jsonl")), 0);
  const std::string grown = ReadFile(Path("list_grown.json"));
  ASSERT_FALSE(grown.empty());
  EXPECT_EQ(grown, ReadFile(Path("list_unbroken.json")))
      << "resumed list mining diverged from the unbroken run";
  EXPECT_NE(grown.find("\"list_history\""), std::string::npos)
      << "snapshot carries no list history";
}

TEST_F(CliSmokeTest, UnknownFlagAfterSubcommandPrintsUsageToStderr) {
  // Regression: an unknown flag after a valid subcommand used to be
  // swallowed as a key-value pair and silently ignored.
  const std::string err_path = Path("unknown_flag_stderr.txt");
  const std::string command =
      std::string(SISD_CLI_BIN) +
      " mine --scenario synthetic --bogus 1 > /dev/null 2> " + err_path;
  const int rc = std::system(command.c_str());
  ASSERT_TRUE(WIFEXITED(rc));
  EXPECT_EQ(WEXITSTATUS(rc), 2);
  const std::string err = ReadFile(err_path);
  EXPECT_NE(err.find("unknown flag --bogus for subcommand 'mine'"),
            std::string::npos)
      << "stderr: " << err;
  EXPECT_NE(err.find("USAGE"), std::string::npos)
      << "usage text missing from stderr on unknown flag";
  // A flag valid for one subcommand is still rejected on another.
  EXPECT_EQ(RunCli("export --session x.json --rules 2"), 2);
  EXPECT_EQ(RunCli("list --scenario synthetic --compare-beam"), 2);
}

TEST_F(CliSmokeTest, ServeScriptAnswersMineAndMineList) {
  {
    std::ofstream script(Path("serve.jsonl"));
    script << R"({"id":1,"verb":"open","session":"s","scenario":"synthetic",)"
           << R"("config":{"beam_width":8,"max_depth":2,"top_k":20,)"
           << R"("min_coverage":5}})" << "\n"
           << R"({"id":2,"verb":"mine","session":"s"})" << "\n"
           << R"({"id":3,"verb":"mine_list","session":"s","rules":1})"
           << "\n";
  }
  ASSERT_EQ(ReplayThroughServe(Path("serve.jsonl"), Path("serve.out")), 0);
  const std::string out = ReadFile(Path("serve.out"));
  EXPECT_NE(out.find("\"id\":1"), std::string::npos);
  EXPECT_NE(out.find("\"ok\":true"), std::string::npos);
  EXPECT_NE(out.find("\"iteration\":1"), std::string::npos);
  EXPECT_NE(out.find("\"total_gain\""), std::string::npos)
      << "mine_list response missing from serve output";
}

TEST_F(CliSmokeTest, MisuseFailsLoudly) {
  EXPECT_EQ(RunCli("help"), 0);
  EXPECT_NE(RunCli(""), 0);
  EXPECT_NE(RunCli("frobnicate"), 0);
  // The session server is sisd_serve; `serve` is no sisd_cli subcommand.
  EXPECT_EQ(RunCli("serve --script " + Path("missing.jsonl"),
                   Path("serve_err.txt")),
            2);
  EXPECT_NE(ReadFile(Path("serve_err.txt")).find("unknown subcommand 'serve'"),
            std::string::npos);
  EXPECT_NE(RunCli("mine"), 0);                       // no input source
  EXPECT_NE(RunCli("mine --scenario nope"), 0);       // unknown scenario
  EXPECT_NE(RunCli("mine --csv " + Path("missing.csv") + " --targets t"), 0);
  EXPECT_NE(RunCli("resume --session " + Path("missing.json")), 0);
  EXPECT_NE(RunCli("export --session " + Path("missing.json")), 0);
  EXPECT_NE(RunCli("mine --scenario synthetic --beam-width zero"), 0);
  // Integers outside the range of the field they set fail naming the flag
  // instead of narrowing (4294967297 would wrap to 1 in an int).
  for (const std::string misuse :
       {"--beam-width 4294967297", "--iterations 4294967297", "--top-k -1",
        "--min-coverage -1"}) {
    const std::string flag = misuse.substr(0, misuse.find(' '));
    EXPECT_NE(RunCli("mine --scenario synthetic " + misuse, Path("out.txt")),
              0)
        << misuse;
    EXPECT_NE(ReadFile(Path("out.txt")).find(flag + " must be in"),
              std::string::npos)
        << misuse;
  }
  // A NaN budget would be ignored and a negative one would fail every
  // mine: both are rejected up front, by mine and list alike.
  for (const std::string command : {"mine", "list"}) {
    for (const std::string budget : {"nan", "-1"}) {
      const std::string misuse =
          command + " --scenario synthetic --time-budget " + budget;
      EXPECT_NE(RunCli(misuse, Path("out.txt")), 0) << misuse;
      EXPECT_NE(ReadFile(Path("out.txt"))
                    .find("time budget must be >= 0 seconds"),
                std::string::npos)
          << misuse << ": " << ReadFile(Path("out.txt"));
    }
  }
  // `optimal` builds its pool and search from flags directly: values they
  // cannot run fail naming the flag instead of aborting.
  const std::pair<std::string, std::string> optimal_misuses[] = {
      {"--scenario synthetic --max-depth 0", "--max-depth must be in"},
      {"--scenario crime --splits 0 --max-depth 1", "--splits must be in"},
      {"--scenario synthetic --max-depth 1 --gamma -1",
       "gamma must be finite and >= 0"},
      {"--scenario synthetic --max-depth 1 --gamma 0 --eta 0",
       "gamma + eta must be > 0"},
      {"--scenario synthetic --max-depth 1 --time-budget nan",
       "time budget must be >= 0 seconds"},
      {"--scenario synthetic --max-depth 1 --time-budget -1",
       "time budget must be >= 0 seconds"},
  };
  for (const auto& [misuse, message] : optimal_misuses) {
    const int rc = RunCli("optimal " + misuse, Path("out.txt"));
    EXPECT_TRUE(rc == 1 || rc == 2) << misuse << " exited " << rc;
    EXPECT_NE(ReadFile(Path("out.txt")).find(message), std::string::npos)
        << misuse << ": " << ReadFile(Path("out.txt"));
  }
}

}  // namespace
