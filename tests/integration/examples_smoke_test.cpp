// Smoke coverage for the example binaries: each one must run to
// completion and exit 0, so examples cannot silently rot as the
// library underneath them evolves. Each also runs under 4 scoring
// threads and under the scalar kernels, and must print byte-identical
// stdout every time: mining output never depends on thread count or ISA.
// The binary directory is injected by CMake via SISD_EXAMPLES_BIN_DIR.

#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>

#ifndef SISD_EXAMPLES_BIN_DIR
#error "SISD_EXAMPLES_BIN_DIR must be defined by the build system"
#endif

namespace {

class ExamplesSmokeTest : public ::testing::TestWithParam<const char*> {};

/// Runs example `name` under the environment assignments `env` and
/// returns its stdout; records a failure unless it exits 0.
std::string RunExample(const char* name, const std::string& env) {
  const std::string binary = std::string(SISD_EXAMPLES_BIN_DIR) + "/" + name;
  const std::string output =
      ::testing::TempDir() + "/sisd_examples_smoke_stdout.txt";
  const std::string command = env + " " + binary + " > " + output;
  const int rc = std::system(command.c_str());
  EXPECT_NE(rc, -1) << "failed to launch " << binary;
  EXPECT_TRUE(WIFEXITED(rc)) << env << " " << binary
                             << " terminated abnormally";
  EXPECT_EQ(WEXITSTATUS(rc), 0) << env << " " << binary << " exited nonzero";
  std::ifstream in(output, std::ios::binary);
  std::ostringstream text;
  text << in.rdbuf();
  std::remove(output.c_str());
  return text.str();
}

TEST_P(ExamplesSmokeTest, ExitsZeroWithThreadAndIsaInvariantOutput) {
  const std::string reference = RunExample(GetParam(), "");
  EXPECT_FALSE(reference.empty());
  EXPECT_EQ(RunExample(GetParam(), "SISD_THREADS=4"), reference)
      << GetParam() << " output depends on the thread count";
  EXPECT_EQ(RunExample(GetParam(), "SISD_KERNELS=scalar"), reference)
      << GetParam() << " output depends on the kernel ISA";
}

INSTANTIATE_TEST_SUITE_P(
    AllExamples, ExamplesSmokeTest,
    ::testing::Values("quickstart", "crime_analysis", "csv_mining",
                      "iterative_mammals", "socioeconomics_case_study",
                      "water_quality_case_study"),
    [](const ::testing::TestParamInfo<const char*>& param_info) {
      return std::string(param_info.param);
    });

}  // namespace
