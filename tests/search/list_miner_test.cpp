// Differential harness for the greedy subgroup-list miner: the engine path
// (fused masked-moment kernels, per-worker scratch, parallel chunk scoring)
// against a naive oracle that recomputes every candidate's list gain from
// materialized bitsets and rebuilds every rule from its intention —
// bit-identical on all five scenario generators, invariant across thread
// counts and kernel ISAs, and sane on degenerate data.

#include "search/list_miner.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <string>
#include <vector>

#include "data/column.hpp"
#include "datagen/scenarios.hpp"
#include "kernels/kernels.hpp"
#include "linalg/matrix.hpp"
#include "reference/naive_list_miner.hpp"

namespace sisd::search {
namespace {

void ExpectBitEqual(double a, double b, const std::string& what) {
  EXPECT_EQ(std::bit_cast<uint64_t>(a), std::bit_cast<uint64_t>(b))
      << what << ": " << a << " vs " << b;
}

void ExpectVectorsBitEqual(const linalg::Vector& a, const linalg::Vector& b,
                           const std::string& what) {
  ASSERT_EQ(a.size(), b.size()) << what;
  for (size_t i = 0; i < a.size(); ++i) {
    ExpectBitEqual(a[i], b[i], what + "[" + std::to_string(i) + "]");
  }
}

void ExpectListsBitEqual(const SubgroupList& a, const SubgroupList& b,
                         const std::string& what) {
  ExpectVectorsBitEqual(a.default_model.mean, b.default_model.mean,
                        what + " default mean");
  ExpectVectorsBitEqual(a.default_model.variance, b.default_model.variance,
                        what + " default variance");
  EXPECT_TRUE(a.uncovered == b.uncovered) << what << " uncovered";
  ExpectBitEqual(a.total_gain, b.total_gain, what + " total_gain");
  ASSERT_EQ(a.rules.size(), b.rules.size()) << what << " rule count";
  for (size_t r = 0; r < a.rules.size(); ++r) {
    const SubgroupRule& ra = a.rules[r];
    const SubgroupRule& rb = b.rules[r];
    const std::string rule = what + " rule " + std::to_string(r);
    EXPECT_EQ(ra.intention.CanonicalSignature(),
              rb.intention.CanonicalSignature())
        << rule;
    EXPECT_TRUE(ra.extension == rb.extension) << rule << " extension";
    EXPECT_TRUE(ra.captured == rb.captured) << rule << " captured";
    ExpectBitEqual(ra.gain, rb.gain, rule + " gain");
    ExpectVectorsBitEqual(ra.local.mean, rb.local.mean, rule + " mean");
    ExpectVectorsBitEqual(ra.local.variance, rb.local.variance,
                          rule + " variance");
  }
}

ListSearchConfig FastConfig() {
  ListSearchConfig config;
  config.search.beam_width = 6;
  config.search.max_depth = 2;
  config.search.top_k = 10;
  config.search.min_coverage = 5;
  config.max_rules = 3;
  config.min_captured = 5;
  return config;
}

SubgroupList MineWith(const data::Dataset& dataset, const ConditionPool& pool,
                      const ListSearchConfig& config, bool naive) {
  SubgroupList list = MakeEmptySubgroupList(dataset.targets, config.gain);
  if (naive) {
    reference::ExtendSubgroupListNaive(dataset.descriptions, dataset.targets,
                                       pool, config, &list);
  } else {
    ExtendSubgroupList(dataset.descriptions, dataset.targets, pool, config,
                       &list);
  }
  return list;
}

TEST(ListMinerTest, GreedyMatchesNaiveReferenceOnAllScenarios) {
  for (const std::string& name : datagen::ScenarioNames()) {
    SCOPED_TRACE(name);
    const data::Dataset dataset =
        datagen::MakeScenarioDataset(name).Value();
    const ConditionPool pool = ConditionPool::Build(dataset.descriptions, 4);
    const ListSearchConfig config = FastConfig();
    const SubgroupList engine = MineWith(dataset, pool, config, false);
    const SubgroupList naive = MineWith(dataset, pool, config, true);
    ExpectListsBitEqual(engine, naive, name);
    // A list that never finds a rule would make the differential test
    // vacuous on the scenarios known to carry strong subgroups.
    if (name == "synthetic" || name == "crime") {
      EXPECT_GT(engine.rules.size(), 0u) << name;
    }
    // First-match-wins invariants: captured sets are pairwise disjoint and
    // exactly partition the covered rows.
    size_t covered = 0;
    for (size_t r = 0; r < engine.rules.size(); ++r) {
      EXPECT_GT(engine.rules[r].captured.count(), 0u);
      EXPECT_GT(engine.rules[r].gain, 0.0);
      covered += engine.rules[r].captured.count();
      for (size_t s = r + 1; s < engine.rules.size(); ++s) {
        EXPECT_TRUE(pattern::Extension::Disjoint(engine.rules[r].captured,
                                                 engine.rules[s].captured));
      }
    }
    EXPECT_EQ(covered + engine.uncovered.count(), dataset.num_rows());
  }
}

TEST(ListMinerTest, OutputInvariantAcrossThreadCounts) {
  for (const std::string& name : {std::string("synthetic"),
                                  std::string("crime")}) {
    SCOPED_TRACE(name);
    const data::Dataset dataset =
        datagen::MakeScenarioDataset(name).Value();
    const ConditionPool pool = ConditionPool::Build(dataset.descriptions, 4);
    ListSearchConfig config = FastConfig();
    config.search.num_threads = 1;
    const SubgroupList one = MineWith(dataset, pool, config, false);
    for (int threads : {2, 8}) {
      config.search.num_threads = threads;
      const SubgroupList many = MineWith(dataset, pool, config, false);
      ExpectListsBitEqual(one, many,
                          name + " threads=" + std::to_string(threads));
    }
  }
}

TEST(ListMinerTest, OutputInvariantAcrossKernelIsas) {
  if (!kernels::CpuSupportsAvx2()) {
    GTEST_SKIP() << "host has no AVX2; scalar is the only ISA";
  }
  const kernels::Isa original = kernels::ActiveIsa();
  const data::Dataset dataset =
      datagen::MakeScenarioDataset("synthetic").Value();
  const ConditionPool pool = ConditionPool::Build(dataset.descriptions, 4);
  const ListSearchConfig config = FastConfig();

  kernels::SetActiveIsaForTesting(kernels::Isa::kScalar);
  const SubgroupList scalar = MineWith(dataset, pool, config, false);
  kernels::SetActiveIsaForTesting(kernels::Isa::kAvx2);
  const SubgroupList avx2 = MineWith(dataset, pool, config, false);
  kernels::SetActiveIsaForTesting(original);

  ExpectListsBitEqual(scalar, avx2, "scalar vs avx2");
  EXPECT_GT(scalar.rules.size(), 0u);
}

TEST(ListMinerTest, AllEqualTargetsYieldEmptyList) {
  // Constant targets: no rule can compress below the (floored-variance)
  // default model, so every gain is <= 0 and the list stays empty — in
  // both implementations.
  data::Dataset dataset = datagen::MakeScenarioDataset("synthetic").Value();
  dataset.targets =
      linalg::Matrix(dataset.targets.rows(), dataset.targets.cols(), 3.25);
  const ConditionPool pool = ConditionPool::Build(dataset.descriptions, 4);
  const ListSearchConfig config = FastConfig();
  const SubgroupList engine = MineWith(dataset, pool, config, false);
  const SubgroupList naive = MineWith(dataset, pool, config, true);
  ExpectListsBitEqual(engine, naive, "all-equal");
  EXPECT_TRUE(engine.rules.empty());
  EXPECT_EQ(engine.uncovered.count(), dataset.num_rows());
}

TEST(ListMinerTest, TinyDatasetExhaustsWithoutRules) {
  // Fewer rows than min_captured: no candidate can capture enough, and the
  // miner reports exhaustion without appending anything or crashing.
  data::Dataset dataset;
  ASSERT_TRUE(dataset.descriptions
                  .AddColumn(data::Column::Categorical("a", {0, 1, 0},
                                                       {"x", "y"}))
                  .ok());
  dataset.targets = linalg::Matrix(3, 1);
  dataset.targets(0, 0) = 1.0;
  dataset.targets(1, 0) = 5.0;
  dataset.targets(2, 0) = 2.0;
  dataset.target_names = {"y"};
  dataset.name = "tiny";
  const ConditionPool pool = ConditionPool::Build(dataset.descriptions, 4);
  ListSearchConfig config = FastConfig();
  config.min_captured = 5;
  config.search.min_coverage = 5;
  SubgroupList engine = MakeEmptySubgroupList(dataset.targets, config.gain);
  const ListMineStats stats = ExtendSubgroupList(
      dataset.descriptions, dataset.targets, pool, config, &engine);
  EXPECT_TRUE(stats.exhausted);
  EXPECT_EQ(stats.rules_appended, 0u);
  EXPECT_TRUE(engine.rules.empty());

  SubgroupList naive = MakeEmptySubgroupList(dataset.targets, config.gain);
  reference::ExtendSubgroupListNaive(dataset.descriptions, dataset.targets,
                                     pool, config, &naive);
  ExpectListsBitEqual(engine, naive, "tiny");
}

TEST(ListMinerTest, ReplayedRulesContinueMiningIdentically) {
  // Mine 3 rules in one go vs. mine 1, replay it into a fresh list (the
  // snapshot-restore path), and mine 2 more: the final lists must be
  // bit-identical — the restore guarantee at the miner level.
  const data::Dataset dataset =
      datagen::MakeScenarioDataset("crime").Value();
  const ConditionPool pool = ConditionPool::Build(dataset.descriptions, 4);
  ListSearchConfig config = FastConfig();
  config.max_rules = 3;
  const SubgroupList straight = MineWith(dataset, pool, config, false);
  ASSERT_GE(straight.rules.size(), 2u);

  config.max_rules = 1;
  SubgroupList first = MakeEmptySubgroupList(dataset.targets, config.gain);
  ExtendSubgroupList(dataset.descriptions, dataset.targets, pool, config,
                     &first);
  ASSERT_EQ(first.rules.size(), 1u);

  SubgroupList resumed = MakeEmptySubgroupList(dataset.targets, config.gain);
  ReplaySubgroupRule(first.rules[0], &resumed);
  config.max_rules = 2;
  ExtendSubgroupList(dataset.descriptions, dataset.targets, pool, config,
                     &resumed);
  ExpectListsBitEqual(straight, resumed, "replayed");
}

}  // namespace
}  // namespace sisd::search
