/// Correctness gates for the kernel-backed parallel branch-and-bound
/// (search/optimal_search.hpp):
///
///  - the returned optimum is bit-identical to plain exhaustive DFS
///    enumeration on all five paper scenarios (reduced sizes);
///  - the optimum is invariant to thread count and kernel ISA;
///  - the optimistic bound dominates every enumerated refinement on
///    randomized pools/targets, including ties, min_coverage edges, and
///    negative-IC nodes;
///  - the time budget returns an incumbent with `completed == false`.

#include "search/optimal_search.hpp"

#include <cmath>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "datagen/crime.hpp"
#include "datagen/gse.hpp"
#include "datagen/mammals.hpp"
#include "datagen/synthetic.hpp"
#include "datagen/water.hpp"
#include "kernels/kernels.hpp"
#include "pattern/patterns.hpp"
#include "reference/exhaustive_search.hpp"

namespace sisd::search {
namespace {

using reference::ExhaustiveConfig;
using reference::ExhaustiveResult;
using reference::ExhaustiveSearch;
using reference::MakeUnivariateSiBound;
using reference::OptimisticBound;
using reference::QualityFunction;
using reference::SiLocationQuality;

struct Scenario {
  std::string name;
  data::Dataset dataset;
  size_t min_coverage;
};

/// The five paper scenarios at sizes where exhaustive depth-2 enumeration
/// stays fast. Crime is the univariate case (tight bound engages);
/// synthetic/mammals/water/gse are multivariate (pure best-first).
std::vector<Scenario> MakeScenarios() {
  std::vector<Scenario> scenarios;
  scenarios.push_back(
      {"synthetic", datagen::MakeSyntheticEmbedded().dataset, 5});
  scenarios.push_back(
      {"crime",
       datagen::MakeCrimeLike(
           {.num_rows = 400, .num_descriptions = 12, .seed = 7})
           .dataset,
       10});
  scenarios.push_back(
      {"mammals",
       datagen::MakeMammalsLike({.grid_rows = 10, .grid_cols = 12,
                                 .num_species = 12, .num_climate = 24,
                                 .seed = 11})
           .dataset,
       10});
  scenarios.push_back(
      {"water", datagen::MakeWaterLike({.num_rows = 300, .seed = 3}).dataset,
       10});
  scenarios.push_back(
      {"gse", datagen::MakeGseLike({.num_rows = 200, .seed = 5}).dataset,
       10});
  return scenarios;
}

TEST(OptimalSearchTest, MatchesExhaustiveOnAllFiveScenarios) {
  for (const Scenario& scenario : MakeScenarios()) {
    SCOPED_TRACE(scenario.name);
    Result<model::BackgroundModel> model =
        model::BackgroundModel::CreateFromData(scenario.dataset.targets);
    model.status().CheckOK();
    const ConditionPool pool =
        ConditionPool::Build(scenario.dataset.descriptions, 4);
    const si::DescriptionLengthParams dl;

    ExhaustiveConfig reference_config;
    reference_config.max_depth = 2;
    reference_config.min_coverage = scenario.min_coverage;
    const QualityFunction quality =
        SiLocationQuality(model.Value(), scenario.dataset.targets, dl);
    const ExhaustiveResult reference = ExhaustiveSearch(
        scenario.dataset.descriptions, pool, reference_config, quality);
    ASSERT_TRUE(reference.completed);

    OptimalConfig config;
    config.max_depth = 2;
    config.min_coverage = scenario.min_coverage;
    config.num_threads = 1;
    const OptimalResult optimal = OptimalLocationSearch(
        scenario.dataset.descriptions, pool, model.Value(),
        scenario.dataset.targets, dl, config);
    ASSERT_TRUE(optimal.completed);

    // Bit-identical optimum: same quality bits, same canonical intention,
    // same extension.
    EXPECT_EQ(optimal.best.quality, reference.best.quality);
    EXPECT_EQ(optimal.best.intention.CanonicalSignature(),
              reference.best.intention.CanonicalSignature());
    EXPECT_TRUE(optimal.best.extension == reference.best.extension);
    // The bound only applies to the univariate scenario.
    EXPECT_EQ(optimal.used_bound, scenario.dataset.num_targets() == 1);
  }
}

TEST(OptimalSearchTest, MatchesExhaustiveAtDepthThree) {
  // Depth 3 exercises the frontier past depth 1: interior nodes at depth 2
  // are bounded, queued, and re-expanded.
  const datagen::CrimeData data = datagen::MakeCrimeLike(
      {.num_rows = 300, .num_descriptions = 10, .seed = 6});
  Result<model::BackgroundModel> model =
      model::BackgroundModel::CreateFromData(data.dataset.targets);
  model.status().CheckOK();
  const ConditionPool pool =
      ConditionPool::Build(data.dataset.descriptions, 4);
  const si::DescriptionLengthParams dl;

  ExhaustiveConfig reference_config;
  reference_config.max_depth = 3;
  reference_config.min_coverage = 10;
  const QualityFunction quality =
      SiLocationQuality(model.Value(), data.dataset.targets, dl);
  const ExhaustiveResult reference = ExhaustiveSearch(
      data.dataset.descriptions, pool, reference_config, quality);
  ASSERT_TRUE(reference.completed);

  OptimalConfig config;
  config.max_depth = 3;
  config.min_coverage = 10;
  config.num_threads = 1;
  const OptimalResult optimal =
      OptimalLocationSearch(data.dataset.descriptions, pool, model.Value(),
                            data.dataset.targets, dl, config);
  ASSERT_TRUE(optimal.completed);
  EXPECT_TRUE(optimal.used_bound);
  EXPECT_EQ(optimal.best.quality, reference.best.quality);
  EXPECT_EQ(optimal.best.intention.CanonicalSignature(),
            reference.best.intention.CanonicalSignature());
}

TEST(OptimalSearchTest, BoundDoesNotChangeTheOptimum) {
  const datagen::CrimeData data = datagen::MakeCrimeLike(
      {.num_rows = 400, .num_descriptions = 12, .seed = 7});
  Result<model::BackgroundModel> model =
      model::BackgroundModel::CreateFromData(data.dataset.targets);
  model.status().CheckOK();
  const ConditionPool pool =
      ConditionPool::Build(data.dataset.descriptions, 4);
  const si::DescriptionLengthParams dl;

  OptimalConfig config;
  config.max_depth = 2;
  config.min_coverage = 10;
  config.num_threads = 1;
  const OptimalResult bounded = OptimalLocationSearch(
      data.dataset.descriptions, pool, model.Value(), data.dataset.targets,
      dl, config);
  config.use_bound = false;
  const OptimalResult plain = OptimalLocationSearch(
      data.dataset.descriptions, pool, model.Value(), data.dataset.targets,
      dl, config);

  ASSERT_TRUE(bounded.completed);
  ASSERT_TRUE(plain.completed);
  EXPECT_TRUE(bounded.used_bound);
  EXPECT_FALSE(plain.used_bound);
  EXPECT_EQ(bounded.best.quality, plain.best.quality);
  EXPECT_EQ(bounded.best.intention.CanonicalSignature(),
            plain.best.intention.CanonicalSignature());
  // The bound actually cut work.
  EXPECT_GT(bounded.num_pruned_nodes, 0u);
  EXPECT_LT(bounded.num_evaluated, plain.num_evaluated);
}

TEST(OptimalSearchTest, OptimumInvariantToThreadCountAndIsa) {
  const datagen::CrimeData data = datagen::MakeCrimeLike(
      {.num_rows = 400, .num_descriptions = 12, .seed = 7});
  Result<model::BackgroundModel> model =
      model::BackgroundModel::CreateFromData(data.dataset.targets);
  model.status().CheckOK();
  const ConditionPool pool =
      ConditionPool::Build(data.dataset.descriptions, 4);
  const si::DescriptionLengthParams dl;

  OptimalConfig config;
  config.max_depth = 2;
  config.min_coverage = 10;

  const kernels::Isa original = kernels::ActiveIsa();
  std::vector<kernels::Isa> isas = {kernels::Isa::kScalar};
  if (kernels::CpuSupportsAvx2()) isas.push_back(kernels::Isa::kAvx2);

  double reference_quality = 0.0;
  std::string reference_signature;
  bool have_reference = false;
  for (const kernels::Isa isa : isas) {
    kernels::SetActiveIsaForTesting(isa);
    for (const int threads : {1, 2, 8}) {
      SCOPED_TRACE(std::string(kernels::IsaName(isa)) + " x " +
                   std::to_string(threads) + " threads");
      config.num_threads = threads;
      const OptimalResult result = OptimalLocationSearch(
          data.dataset.descriptions, pool, model.Value(),
          data.dataset.targets, dl, config);
      ASSERT_TRUE(result.completed);
      if (!have_reference) {
        reference_quality = result.best.quality;
        reference_signature = result.best.intention.CanonicalSignature();
        have_reference = true;
        continue;
      }
      EXPECT_EQ(result.best.quality, reference_quality);
      EXPECT_EQ(result.best.intention.CanonicalSignature(),
                reference_signature);
    }
  }
  kernels::SetActiveIsaForTesting(original);
  if (isas.size() < 2) {
    GTEST_SKIP() << "host has no AVX2; only the scalar leg ran";
  }
}

TEST(OptimalSearchTest, TimeBudgetReturnsIncompleteIncumbent) {
  const datagen::CrimeData data = datagen::MakeCrimeLike(
      {.num_rows = 500, .num_descriptions = 30, .seed = 9});
  Result<model::BackgroundModel> model =
      model::BackgroundModel::CreateFromData(data.dataset.targets);
  model.status().CheckOK();
  const ConditionPool pool =
      ConditionPool::Build(data.dataset.descriptions, 4);
  const si::DescriptionLengthParams dl;

  OptimalConfig config;
  config.max_depth = 3;
  config.min_coverage = 2;
  config.num_threads = 1;
  config.time_budget_seconds = 0.0;
  const OptimalResult result =
      OptimalLocationSearch(data.dataset.descriptions, pool, model.Value(),
                            data.dataset.targets, dl, config);
  EXPECT_FALSE(result.completed);
}

TEST(OptimalSearchTest, RespectsDepthAndCoverage) {
  const datagen::CrimeData data = datagen::MakeCrimeLike(
      {.num_rows = 400, .num_descriptions = 12, .seed = 7});
  Result<model::BackgroundModel> model =
      model::BackgroundModel::CreateFromData(data.dataset.targets);
  model.status().CheckOK();
  const ConditionPool pool =
      ConditionPool::Build(data.dataset.descriptions, 4);
  const si::DescriptionLengthParams dl;

  OptimalConfig config;
  config.max_depth = 2;
  config.min_coverage = 50;
  config.num_threads = 1;
  const OptimalResult result =
      OptimalLocationSearch(data.dataset.descriptions, pool, model.Value(),
                            data.dataset.targets, dl, config);
  ASSERT_TRUE(result.completed);
  ASSERT_FALSE(result.best.intention.empty());
  EXPECT_LE(result.best.intention.size(), 2u);
  EXPECT_GE(result.best.extension.count(), 50u);
}

TEST(BoundAdmissibilityTest, RandomizedDifferentialWithTiesAndEdges) {
  // On random pools with heavily quantized targets (forced ties), for
  // every enumerated (node, refinement) pair the node's bound must
  // dominate the refinement's realized SI — across min_coverage edges
  // including 1.
  const si::DescriptionLengthParams dl;
  for (const uint64_t seed : {11u, 12u, 13u}) {
    const datagen::CrimeData data = datagen::MakeCrimeLike(
        {.num_rows = 160, .num_descriptions = 8, .seed = seed});
    linalg::Matrix y = data.dataset.targets;
    for (size_t i = 0; i < y.rows(); ++i) {
      y(i, 0) = std::round(y(i, 0) * 4.0) / 4.0;  // quarter-grid ties
    }
    Result<model::BackgroundModel> model =
        model::BackgroundModel::CreateFromData(y);
    model.status().CheckOK();
    const ConditionPool pool =
        ConditionPool::Build(data.dataset.descriptions, 4);
    const QualityFunction quality = SiLocationQuality(model.Value(), y, dl);

    for (const size_t min_cov : {size_t{1}, size_t{5}, size_t{25}}) {
      SCOPED_TRACE("seed " + std::to_string(seed) + " min_cov " +
                   std::to_string(min_cov));
      Result<OptimisticBound> bound =
          MakeUnivariateSiBound(model.Value(), y, dl, min_cov);
      ASSERT_TRUE(bound.ok());
      int checked = 0;
      for (size_t a = 0; a < pool.size(); ++a) {
        const pattern::Intention node({pool.condition(a)});
        const pattern::Extension& node_ext = pool.extension(a);
        if (node_ext.count() < min_cov) continue;
        const double node_bound = bound.Value()(node, node_ext);
        for (size_t b = 0; b < pool.size(); ++b) {
          if (!node.AllowsRefinementWith(pool.condition(b))) continue;
          pattern::Extension refined =
              pattern::Extension::Intersect(node_ext, pool.extension(b));
          if (refined.count() < min_cov || refined.count() == y.rows()) {
            continue;
          }
          const pattern::Intention refined_intent =
              node.Extended(pool.condition(b));
          EXPECT_LE(quality(refined_intent, refined), node_bound + 1e-9)
              << "bound violated for node " << a << " + condition " << b;
          ++checked;
        }
      }
      EXPECT_GT(checked, 100);
    }
  }
}

TEST(BoundAdmissibilityTest, NegativeIcNodesClampToZero) {
  // A homogeneous node near the global mean has negative IC for every
  // admissible subset size; the bound must clamp to 0 (the supremum of
  // IC'/DL' over growing DL'), and realized refinements score below it.
  linalg::Matrix y(40, 1);
  for (size_t i = 0; i < 20; ++i) y(i, 0) = (i % 2 == 0) ? 2.0 : -2.0;
  for (size_t i = 20; i < 40; ++i) y(i, 0) = (i % 2 == 0) ? 1e-3 : -1e-3;
  Result<model::BackgroundModel> model =
      model::BackgroundModel::CreateFromData(y);
  model.status().CheckOK();
  const si::DescriptionLengthParams dl;
  Result<OptimisticBound> bound =
      MakeUnivariateSiBound(model.Value(), y, dl, /*min_coverage=*/13);
  ASSERT_TRUE(bound.ok());

  std::vector<size_t> node_rows;
  for (size_t i = 20; i < 40; ++i) node_rows.push_back(i);
  const pattern::Extension node_ext =
      pattern::Extension::FromRows(40, node_rows);
  const pattern::Intention node(
      {pattern::Condition::Equals(/*attribute=*/0, /*level=*/1)});
  const double node_bound = bound.Value()(node, node_ext);
  EXPECT_EQ(node_bound, 0.0);

  std::vector<size_t> refined_rows;
  for (size_t i = 26; i < 40; ++i) refined_rows.push_back(i);
  const pattern::Extension refined =
      pattern::Extension::FromRows(40, refined_rows);
  const linalg::Vector mean = pattern::SubgroupMean(y, refined);
  const double refined_si =
      si::ScoreLocation(model.Value(), refined, mean, 2, dl).si;
  EXPECT_LT(refined_si, 0.0);
  EXPECT_LE(refined_si, node_bound);
}

}  // namespace
}  // namespace sisd::search
