#include "reference/exhaustive_search.hpp"

#include <cmath>

#include <gtest/gtest.h>

#include "datagen/crime.hpp"
#include "datagen/synthetic.hpp"
#include "pattern/patterns.hpp"

namespace sisd::reference {
namespace {

using search::ConditionPool;

TEST(ExhaustiveSearchTest, FindsGlobalOptimumOnSyntheticData) {
  const datagen::SyntheticData data = datagen::MakeSyntheticEmbedded();
  Result<model::BackgroundModel> model =
      model::BackgroundModel::CreateFromData(data.dataset.targets);
  model.status().CheckOK();
  const ConditionPool pool =
      ConditionPool::Build(data.dataset.descriptions, 4);
  const si::DescriptionLengthParams dl;
  const QualityFunction quality =
      SiLocationQuality(model.Value(), data.dataset.targets, dl);

  ExhaustiveConfig config;
  config.max_depth = 2;
  config.min_coverage = 5;
  const ExhaustiveResult result =
      ExhaustiveSearch(data.dataset.descriptions, pool, config, quality);
  ASSERT_TRUE(result.completed);
  // The optimum is one of the planted one-condition clusters.
  EXPECT_EQ(result.best.intention.size(), 1u);
  EXPECT_EQ(result.best.extension.count(), 40u);
  bool is_planted = false;
  for (const auto& truth_ext : data.truth.cluster_extensions) {
    if (result.best.extension == truth_ext) is_planted = true;
  }
  EXPECT_TRUE(is_planted);
}

TEST(ExhaustiveSearchTest, BeamSearchMatchesExhaustiveOptimum) {
  // The central sanity check for the heuristic: on the synthetic data the
  // paper's beam settings must reach the global optimum.
  const datagen::SyntheticData data = datagen::MakeSyntheticEmbedded();
  Result<model::BackgroundModel> model =
      model::BackgroundModel::CreateFromData(data.dataset.targets);
  model.status().CheckOK();
  const ConditionPool pool =
      ConditionPool::Build(data.dataset.descriptions, 4);
  const si::DescriptionLengthParams dl;
  const QualityFunction quality =
      SiLocationQuality(model.Value(), data.dataset.targets, dl);

  ExhaustiveConfig exhaustive_config;
  exhaustive_config.max_depth = 3;
  exhaustive_config.min_coverage = 5;
  const ExhaustiveResult exhaustive = ExhaustiveSearch(
      data.dataset.descriptions, pool, exhaustive_config, quality);

  search::SearchConfig beam_config;
  beam_config.max_depth = 3;
  beam_config.min_coverage = 5;
  const search::SearchResult beam = CallbackBeamSearch(
      data.dataset.descriptions, pool, beam_config, quality);

  ASSERT_TRUE(exhaustive.completed);
  ASSERT_FALSE(beam.top.empty());
  EXPECT_NEAR(beam.best().quality, exhaustive.best.quality, 1e-12);
}

TEST(ExhaustiveSearchTest, RespectsDepthAndCoverage) {
  const datagen::SyntheticData data = datagen::MakeSyntheticEmbedded();
  const ConditionPool pool =
      ConditionPool::Build(data.dataset.descriptions, 4);
  const QualityFunction quality = [](const pattern::Intention& intention,
                                     const pattern::Extension&) {
    return double(intention.size());  // reward depth
  };
  ExhaustiveConfig config;
  config.max_depth = 2;
  config.min_coverage = 30;
  const ExhaustiveResult result =
      ExhaustiveSearch(data.dataset.descriptions, pool, config, quality);
  ASSERT_TRUE(result.completed);
  EXPECT_EQ(result.best.intention.size(), 2u);
  EXPECT_GE(result.best.extension.count(), 30u);
}

TEST(ExhaustiveSearchTest, TimeBudgetReturnsIncumbent) {
  const datagen::CrimeData data =
      datagen::MakeCrimeLike({.num_rows = 500, .num_descriptions = 30,
                              .seed = 9});
  const ConditionPool pool =
      ConditionPool::Build(data.dataset.descriptions, 4);
  const QualityFunction quality = [](const pattern::Intention&,
                                     const pattern::Extension& ext) {
    return double(ext.count());
  };
  ExhaustiveConfig config;
  config.max_depth = 4;
  config.time_budget_seconds = 0.0;
  const ExhaustiveResult result =
      ExhaustiveSearch(data.dataset.descriptions, pool, config, quality);
  EXPECT_FALSE(result.completed);
}

TEST(UnivariateSiBoundTest, RequiresUnivariateSingleGroupModel) {
  Result<model::BackgroundModel> bivariate = model::BackgroundModel::Create(
      10, linalg::Vector(2), linalg::Matrix::Identity(2));
  bivariate.status().CheckOK();
  linalg::Matrix y2(10, 2);
  EXPECT_FALSE(MakeUnivariateSiBound(bivariate.Value(), y2,
                                     si::DescriptionLengthParams{}, 2)
                   .ok());

  Result<model::BackgroundModel> univariate = model::BackgroundModel::Create(
      10, linalg::Vector{0.0}, linalg::Matrix{{1.0}});
  univariate.status().CheckOK();
  linalg::Matrix y1(10, 1);
  EXPECT_TRUE(MakeUnivariateSiBound(univariate.Value(), y1,
                                    si::DescriptionLengthParams{}, 2)
                  .ok());
  // Model with two groups: rejected.
  model::BackgroundModel evolved = univariate.Value();
  evolved
      .UpdateLocation(pattern::Extension::FromRows(10, {0, 1}),
                      linalg::Vector{1.0})
      .status()
      .CheckOK();
  EXPECT_FALSE(MakeUnivariateSiBound(evolved, y1,
                                     si::DescriptionLengthParams{}, 2)
                   .ok());
}

TEST(UnivariateSiBoundTest, BoundDominatesAllRefinements) {
  // Property check: for random nodes, the bound must dominate the SI of
  // every sampled refinement.
  const datagen::CrimeData data =
      datagen::MakeCrimeLike({.num_rows = 300, .num_descriptions = 12,
                              .seed = 4});
  Result<model::BackgroundModel> model =
      model::BackgroundModel::CreateFromData(data.dataset.targets);
  model.status().CheckOK();
  const ConditionPool pool =
      ConditionPool::Build(data.dataset.descriptions, 4);
  const si::DescriptionLengthParams dl;
  Result<OptimisticBound> bound = MakeUnivariateSiBound(
      model.Value(), data.dataset.targets, dl, 5);
  ASSERT_TRUE(bound.ok());
  const QualityFunction quality =
      SiLocationQuality(model.Value(), data.dataset.targets, dl);

  // For each single-condition node, every two-condition refinement must
  // stay below the node's optimistic bound.
  int refinements_checked = 0;
  for (size_t a = 0; a < pool.size(); ++a) {
    const pattern::Intention node_intent({pool.condition(a)});
    const pattern::Extension& node_ext = pool.extension(a);
    if (node_ext.count() < 5) continue;
    const double node_bound = bound.Value()(node_intent, node_ext);
    for (size_t b = 0; b < pool.size(); ++b) {
      const pattern::Condition& cond = pool.condition(b);
      if (cond.op == pattern::ConditionOp::kEquals
              ? node_intent.ConstrainsAttribute(cond.attribute)
              : node_intent.ConstrainsAttributeOp(cond.attribute, cond.op)) {
        continue;
      }
      pattern::Extension refined =
          pattern::Extension::Intersect(node_ext, pool.extension(b));
      if (refined.count() < 5) continue;
      const pattern::Intention refined_intent = node_intent.Extended(cond);
      EXPECT_LE(quality(refined_intent, refined), node_bound + 1e-9)
          << "bound violated for " << a << " + " << b;
      ++refinements_checked;
    }
  }
  EXPECT_GT(refinements_checked, 100);
}

TEST(UnivariateSiBoundTest, BoundOutlivesFactoryScope) {
  // Regression: the returned closure once captured a reference to the
  // factory's `y` reference parameter. The contract is that only the
  // caller-owned targets matrix must stay alive — the model and DL params
  // may die with the factory's enclosing scope.
  const datagen::CrimeData data = datagen::MakeCrimeLike(
      {.num_rows = 200, .num_descriptions = 6, .seed = 8});
  const linalg::Matrix targets = data.dataset.targets;
  const ConditionPool pool =
      ConditionPool::Build(data.dataset.descriptions, 4);
  const pattern::Intention node({pool.condition(0)});
  const pattern::Extension& ext = pool.extension(0);

  OptimisticBound bound;
  double inside_scope = 0.0;
  {
    Result<model::BackgroundModel> model =
        model::BackgroundModel::CreateFromData(targets);
    model.status().CheckOK();
    const si::DescriptionLengthParams dl;
    Result<OptimisticBound> made =
        MakeUnivariateSiBound(model.Value(), targets, dl, 5);
    ASSERT_TRUE(made.ok());
    inside_scope = made.Value()(node, ext);
    bound = made.Value();
  }
  EXPECT_EQ(bound(node, ext), inside_scope);
  EXPECT_GT(inside_scope, 0.0);
}

TEST(BranchAndBoundTest, PrunesWithoutChangingOptimum) {
  const datagen::CrimeData data =
      datagen::MakeCrimeLike({.num_rows = 400, .num_descriptions = 15,
                              .seed = 6});
  Result<model::BackgroundModel> model =
      model::BackgroundModel::CreateFromData(data.dataset.targets);
  model.status().CheckOK();
  const ConditionPool pool =
      ConditionPool::Build(data.dataset.descriptions, 4);
  const si::DescriptionLengthParams dl;
  const QualityFunction quality =
      SiLocationQuality(model.Value(), data.dataset.targets, dl);
  Result<OptimisticBound> bound = MakeUnivariateSiBound(
      model.Value(), data.dataset.targets, dl, 10);
  ASSERT_TRUE(bound.ok());

  ExhaustiveConfig config;
  config.max_depth = 2;
  config.min_coverage = 10;
  const ExhaustiveResult plain =
      ExhaustiveSearch(data.dataset.descriptions, pool, config, quality);
  const ExhaustiveResult pruned = ExhaustiveSearch(
      data.dataset.descriptions, pool, config, quality, &bound.Value());

  ASSERT_TRUE(plain.completed);
  ASSERT_TRUE(pruned.completed);
  // Identical optimum, fewer evaluations.
  EXPECT_NEAR(plain.best.quality, pruned.best.quality, 1e-12);
  EXPECT_EQ(plain.best.intention.CanonicalSignature(),
            pruned.best.intention.CanonicalSignature());
  EXPECT_GT(pruned.num_pruned_nodes, 0u);
  EXPECT_LT(pruned.num_evaluated, plain.num_evaluated);
}

}  // namespace
}  // namespace sisd::reference
