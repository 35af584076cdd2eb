// ISA invariance of the full mining loop: the same dataset mined with the
// kernel dispatch pinned to scalar and to AVX2 must produce byte-identical
// `Describe()` output for every returned pattern, across several
// iterations. This is the end-to-end enforcement of the kernel layer's
// bit-identical contract — if any SIMD kernel reassociated floating-point
// work differently from the scalar reference, scores (and eventually
// ranked-list order) would drift and this transcript would diverge.
//
// Also pins the SISD_KERNELS environment override contract: an unknown
// value falls back to the default dispatch rather than crashing.

#include <string>

#include <gtest/gtest.h>

#include "core/session.hpp"
#include "datagen/synthetic.hpp"
#include "kernels/kernels.hpp"

namespace sisd::core {
namespace {

MinerConfig TestConfig() {
  MinerConfig config;
  config.search.beam_width = 10;
  config.search.max_depth = 2;
  config.search.top_k = 50;
  config.search.min_coverage = 5;
  config.search.num_threads = 2;
  config.spread_optimizer.num_random_starts = 2;
  return config;
}

/// Runs `iterations` mining iterations under the given kernel ISA and
/// renders every returned pattern to one transcript string.
std::string MineTranscript(const data::Dataset& dataset, kernels::Isa isa,
                           int iterations) {
  const kernels::Isa previous = kernels::ActiveIsa();
  kernels::SetActiveIsaForTesting(isa);
  std::string transcript;
  Result<MiningSession> session = MiningSession::Create(dataset, TestConfig());
  if (!session.ok()) {
    kernels::SetActiveIsaForTesting(previous);
    return "create failed: " + session.status().ToString();
  }
  for (int i = 0; i < iterations; ++i) {
    Result<IterationResult> iteration = session.Value().MineNext();
    if (!iteration.ok()) {
      transcript += "iteration failed: " + iteration.status().ToString();
      break;
    }
    const IterationResult& result = iteration.Value();
    transcript += result.location.Describe(dataset.descriptions) + "\n";
    if (result.spread.has_value()) {
      transcript += result.spread->Describe(dataset.descriptions) + "\n";
    }
    for (const ScoredLocationPattern& ranked : result.ranked) {
      transcript += ranked.Describe(dataset.descriptions) + "\n";
    }
    transcript +=
        "evaluated=" + std::to_string(result.candidates_evaluated) + "\n";
  }
  kernels::SetActiveIsaForTesting(previous);
  return transcript;
}

TEST(KernelDispatchTest, DescribeOutputIsByteIdenticalAcrossIsas) {
  if (!kernels::CpuSupportsAvx2()) GTEST_SKIP() << "host has no AVX2";
  const datagen::SyntheticData data = datagen::MakeSyntheticEmbedded();
  const std::string scalar =
      MineTranscript(data.dataset, kernels::Isa::kScalar, 3);
  ASSERT_NE(scalar.find("SI="), std::string::npos) << scalar;
  const std::string avx2 = MineTranscript(data.dataset, kernels::Isa::kAvx2, 3);
  EXPECT_EQ(scalar, avx2) << "kernel ISA leaked into mining results";
}

TEST(KernelDispatchTest, ActiveTableIsAlwaysUsable) {
  // Whatever the dispatch resolved to on this host (including under the
  // SISD_KERNELS override the test runner may have set), the active table
  // must be present and self-consistent.
  const kernels::KernelTable& table = kernels::Active();
  ASSERT_NE(table.name, nullptr);
  const uint64_t a = 0x00000000000000FFull;
  const uint64_t b = 0x0F0F0F0F0F0F0F0Full;
  EXPECT_EQ(table.count_and2(&a, &b, 1), 4u);
  EXPECT_EQ(kernels::IsaName(kernels::ActiveIsa()), std::string(table.name));
}

}  // namespace
}  // namespace sisd::core
