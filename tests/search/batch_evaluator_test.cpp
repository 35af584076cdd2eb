// Equivalence tests of the batch evaluation engine: the SI batch evaluator
// at num_threads = 1 must reproduce the legacy per-candidate callback
// protocol bit-for-bit (same top-k intentions/extensions, same SI values,
// same candidates_evaluated), and multi-threaded scoring must be
// bit-identical to single-threaded scoring.

#include "search/batch_evaluator.hpp"

#include <cmath>

#include <gtest/gtest.h>

#include "datagen/crime.hpp"
#include "datagen/synthetic.hpp"
#include "pattern/patterns.hpp"
#include "reference/callback_beam_search.hpp"
#include "search/beam_search.hpp"
#include "search/si_evaluator.hpp"
#include "search/thread_pool.hpp"
#include "si/evaluation_context.hpp"
#include "si/interestingness.hpp"

namespace sisd::search {
namespace {

using reference::CallbackBeamSearch;
using reference::SiLocationQuality;

void ExpectIdenticalResults(const SearchResult& a, const SearchResult& b) {
  EXPECT_EQ(a.num_evaluated, b.num_evaluated);
  EXPECT_EQ(a.hit_time_budget, b.hit_time_budget);
  ASSERT_EQ(a.top.size(), b.top.size());
  for (size_t i = 0; i < a.top.size(); ++i) {
    EXPECT_EQ(a.top[i].intention.CanonicalSignature(),
              b.top[i].intention.CanonicalSignature())
        << "rank " << i;
    EXPECT_EQ(a.top[i].extension, b.top[i].extension) << "rank " << i;
    // Bit-identical scores, not just approximately equal.
    EXPECT_EQ(a.top[i].quality, b.top[i].quality) << "rank " << i;
  }
}

TEST(BatchEvaluatorTest, MatchesCallbackProtocolOnSynthetic) {
  const datagen::SyntheticData data = datagen::MakeSyntheticEmbedded();
  Result<model::BackgroundModel> model =
      model::BackgroundModel::CreateFromData(data.dataset.targets);
  ASSERT_TRUE(model.ok());
  const ConditionPool pool =
      ConditionPool::Build(data.dataset.descriptions, 4);
  const si::DescriptionLengthParams dl;
  SearchConfig config;
  config.min_coverage = 5;
  config.num_threads = 1;

  const SearchResult callback_result = CallbackBeamSearch(
      data.dataset.descriptions, pool, config,
      SiLocationQuality(model.Value(), data.dataset.targets, dl));

  SiLocationEvaluator evaluator(model.Value(), data.dataset.targets, dl);
  const SearchResult engine_result =
      BeamSearch(data.dataset.descriptions, pool, config, evaluator);

  ASSERT_FALSE(engine_result.top.empty());
  ExpectIdenticalResults(callback_result, engine_result);
}

TEST(BatchEvaluatorTest, MatchesCallbackProtocolOnCrime) {
  const datagen::CrimeData data = datagen::MakeCrimeLike();
  Result<model::BackgroundModel> model =
      model::BackgroundModel::CreateFromData(data.dataset.targets);
  ASSERT_TRUE(model.ok());
  const ConditionPool pool =
      ConditionPool::Build(data.dataset.descriptions, 4);
  const si::DescriptionLengthParams dl;
  SearchConfig config;
  config.max_depth = 2;
  config.beam_width = 10;
  config.min_coverage = 20;
  config.num_threads = 1;

  const SearchResult callback_result = CallbackBeamSearch(
      data.dataset.descriptions, pool, config,
      SiLocationQuality(model.Value(), data.dataset.targets, dl));

  SiLocationEvaluator evaluator(model.Value(), data.dataset.targets, dl);
  const SearchResult engine_result =
      BeamSearch(data.dataset.descriptions, pool, config, evaluator);

  ASSERT_FALSE(engine_result.top.empty());
  ExpectIdenticalResults(callback_result, engine_result);
}

TEST(BatchEvaluatorTest, MatchesCallbackProtocolOnMultiGroupModel) {
  // After a location update the model splits into several parameter groups,
  // exercising the masked per-group counts and the marginal-factorization
  // cache (the multi-group IC path).
  const datagen::SyntheticData data = datagen::MakeSyntheticEmbedded();
  Result<model::BackgroundModel> model =
      model::BackgroundModel::CreateFromData(data.dataset.targets);
  ASSERT_TRUE(model.ok());
  const pattern::Extension& cluster = data.truth.cluster_extensions[0];
  const linalg::Vector cluster_mean =
      pattern::SubgroupMean(data.dataset.targets, cluster);
  ASSERT_TRUE(
      model.Value().UpdateLocation(cluster, cluster_mean).ok());
  ASSERT_GT(model.Value().num_groups(), 1u);

  const ConditionPool pool =
      ConditionPool::Build(data.dataset.descriptions, 4);
  const si::DescriptionLengthParams dl;
  SearchConfig config;
  config.min_coverage = 5;
  config.num_threads = 1;

  const SearchResult callback_result = CallbackBeamSearch(
      data.dataset.descriptions, pool, config,
      SiLocationQuality(model.Value(), data.dataset.targets, dl));

  SiLocationEvaluator evaluator(model.Value(), data.dataset.targets, dl);
  const SearchResult engine_result =
      BeamSearch(data.dataset.descriptions, pool, config, evaluator);

  ASSERT_FALSE(engine_result.top.empty());
  ExpectIdenticalResults(callback_result, engine_result);
}

TEST(BatchEvaluatorTest, ThreadCountDoesNotChangeResults) {
  const datagen::SyntheticData data = datagen::MakeSyntheticEmbedded();
  Result<model::BackgroundModel> model =
      model::BackgroundModel::CreateFromData(data.dataset.targets);
  ASSERT_TRUE(model.ok());
  const ConditionPool pool =
      ConditionPool::Build(data.dataset.descriptions, 4);
  const si::DescriptionLengthParams dl;

  SearchConfig config;
  config.min_coverage = 5;
  config.num_threads = 1;
  SiLocationEvaluator single(model.Value(), data.dataset.targets, dl);
  const SearchResult single_result =
      BeamSearch(data.dataset.descriptions, pool, config, single);

  for (int threads : {2, 8}) {
    SearchConfig parallel_config = config;
    parallel_config.num_threads = threads;
    SiLocationEvaluator parallel(model.Value(), data.dataset.targets, dl);
    const SearchResult parallel_result = BeamSearch(
        data.dataset.descriptions, pool, parallel_config, parallel);
    ExpectIdenticalResults(single_result, parallel_result);
  }
}

TEST(BatchEvaluatorTest, EvaluationContextMatchesFreeFunctions) {
  const datagen::SyntheticData data = datagen::MakeSyntheticEmbedded();
  Result<model::BackgroundModel> model =
      model::BackgroundModel::CreateFromData(data.dataset.targets);
  ASSERT_TRUE(model.ok());
  const si::DescriptionLengthParams dl;
  si::EvaluationContext context(model.Value(), &data.dataset.targets);

  const pattern::Extension& cluster = data.truth.cluster_extensions[1];
  const linalg::Vector mean =
      pattern::SubgroupMean(data.dataset.targets, cluster);

  // A materialized extension is passed as `cluster & cluster`.
  EXPECT_EQ(context.LocationICMasked(cluster, cluster, cluster.count(), mean),
            si::LocationIC(model.Value(), cluster, mean));

  const si::LocationScore via_context = context.ScoreLocationMasked(
      cluster, cluster, cluster.count(), mean, 1, dl);
  const si::LocationScore via_free =
      si::ScoreLocation(model.Value(), cluster, mean, 1, dl);
  EXPECT_EQ(via_context.ic, via_free.ic);
  EXPECT_EQ(via_context.dl, via_free.dl);
  EXPECT_EQ(via_context.si, via_free.si);

  // A virtual intersection `full & cluster` scores the same as `cluster`.
  const pattern::Extension full(cluster.universe_size(), /*full=*/true);
  linalg::Vector masked_mean;
  context.MaskedSubgroupMeanInto(full, cluster, cluster.count(),
                                 &masked_mean);
  EXPECT_EQ(masked_mean, mean);
  EXPECT_EQ(
      context.LocationICMasked(full, cluster, cluster.count(), masked_mean),
      via_free.ic);
}

/// Cluster rows plus an equal run of leading non-cluster rows (guaranteed
/// to straddle the group split introduced by a location update).
pattern::Extension MakeStraddlingExtension(const pattern::Extension& cluster,
                                           size_t n) {
  pattern::Extension out = cluster;
  size_t added = 0;
  for (size_t i = 0; i < n && added < cluster.count(); ++i) {
    if (!out.Contains(i)) {
      out.Insert(i);
      ++added;
    }
  }
  return out;
}

TEST(BatchEvaluatorTest, MaskedKernelsMatchMaterializedOnMultiGroupModel) {
  const datagen::SyntheticData data = datagen::MakeSyntheticEmbedded();
  Result<model::BackgroundModel> model =
      model::BackgroundModel::CreateFromData(data.dataset.targets);
  ASSERT_TRUE(model.ok());
  const pattern::Extension& cluster = data.truth.cluster_extensions[0];
  ASSERT_TRUE(model.Value()
                  .UpdateLocation(
                      cluster,
                      pattern::SubgroupMean(data.dataset.targets, cluster))
                  .ok());
  ASSERT_GT(model.Value().num_groups(), 1u);

  si::EvaluationContext context(model.Value(), &data.dataset.targets);
  // A straddling subgroup: half inside the updated cluster, half outside.
  const pattern::Extension straddle =
      MakeStraddlingExtension(cluster, data.dataset.targets.rows());
  const pattern::Extension full(straddle.universe_size(), /*full=*/true);
  const linalg::Vector mean =
      pattern::SubgroupMean(data.dataset.targets, straddle);

  EXPECT_EQ(context.LocationICMasked(full, straddle, straddle.count(), mean),
            si::LocationIC(model.Value(), straddle, mean));
  EXPECT_GE(context.marginal_cache_size(), 1u);
}

}  // namespace
}  // namespace sisd::search
