// Microbenchmarks (bench/harness) of the search machinery: extension
// intersection throughput, condition-pool construction, SI quality
// evaluation, one full beam-search iteration, and the sphere optimizer.

#include "harness/microbench.hpp"

#include "datagen/crime.hpp"
#include "datagen/synthetic.hpp"
#include "optimize/sphere_optimizer.hpp"
#include "pattern/patterns.hpp"
#include "random/rng.hpp"
#include "reference/callback_beam_search.hpp"
#include "search/beam_search.hpp"
#include "search/condition_pool.hpp"
#include "si/interestingness.hpp"

namespace {

using namespace sisd;

void BM_ExtensionIntersection(sisd::bench::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  random::Rng rng(1);
  pattern::Extension a(n), b(n);
  for (size_t i = 0; i < n; ++i) {
    if (rng.Bernoulli(0.3)) a.Insert(i);
    if (rng.Bernoulli(0.3)) b.Insert(i);
  }
  for (auto _ : state) {
    sisd::bench::DoNotOptimize(pattern::Extension::IntersectionCount(a, b));
  }
  state.SetItemsProcessed(state.iterations() * int64_t(n));
}
SISD_BENCHMARK(BM_ExtensionIntersection)->Arg(620)->Arg(2220)->Arg(100000);

void BM_ConditionPoolBuild(sisd::bench::State& state) {
  const datagen::CrimeData data = datagen::MakeCrimeLike();
  for (auto _ : state) {
    sisd::bench::DoNotOptimize(
        search::ConditionPool::Build(data.dataset.descriptions, 4));
  }
}
SISD_BENCHMARK(BM_ConditionPoolBuild);

void BM_SiQualityEvaluation(sisd::bench::State& state) {
  const datagen::CrimeData data = datagen::MakeCrimeLike();
  Result<model::BackgroundModel> model =
      model::BackgroundModel::CreateFromData(data.dataset.targets);
  model.status().CheckOK();
  const si::DescriptionLengthParams dl;
  const pattern::Extension ext = data.truth.hot_rows;
  const pattern::Intention intention(
      {pattern::Condition::GreaterEqual(0, 0.39)});
  for (auto _ : state) {
    const linalg::Vector mean =
        pattern::SubgroupMean(data.dataset.targets, ext);
    sisd::bench::DoNotOptimize(
        si::ScoreLocation(model.Value(), ext, mean, intention.size(), dl));
  }
}
SISD_BENCHMARK(BM_SiQualityEvaluation);

void BM_BeamSearchSyntheticFull(sisd::bench::State& state) {
  const datagen::SyntheticData data = datagen::MakeSyntheticEmbedded();
  Result<model::BackgroundModel> model =
      model::BackgroundModel::CreateFromData(data.dataset.targets);
  model.status().CheckOK();
  const search::ConditionPool pool =
      search::ConditionPool::Build(data.dataset.descriptions, 4);
  search::SearchConfig config;
  config.min_coverage = 5;
  const si::DescriptionLengthParams dl;
  const reference::QualityFunction quality =
      reference::SiLocationQuality(model.Value(), data.dataset.targets, dl);
  for (auto _ : state) {
    sisd::bench::DoNotOptimize(
        reference::CallbackBeamSearch(data.dataset.descriptions, pool, config,
                                      quality));
  }
}
SISD_BENCHMARK(BM_BeamSearchSyntheticFull)->Unit(sisd::bench::kMillisecond);

void BM_BeamSearchCrimeDepth2(sisd::bench::State& state) {
  const datagen::CrimeData data = datagen::MakeCrimeLike();
  Result<model::BackgroundModel> model =
      model::BackgroundModel::CreateFromData(data.dataset.targets);
  model.status().CheckOK();
  const search::ConditionPool pool =
      search::ConditionPool::Build(data.dataset.descriptions, 4);
  search::SearchConfig config;
  config.max_depth = 2;
  config.beam_width = static_cast<int>(state.range(0));
  config.min_coverage = 20;
  const si::DescriptionLengthParams dl;
  const reference::QualityFunction quality =
      reference::SiLocationQuality(model.Value(), data.dataset.targets, dl);
  for (auto _ : state) {
    sisd::bench::DoNotOptimize(
        reference::CallbackBeamSearch(data.dataset.descriptions, pool, config,
                                      quality));
  }
}
SISD_BENCHMARK(BM_BeamSearchCrimeDepth2)
    ->Arg(5)
    ->Arg(20)
    ->Arg(40)
    ->Unit(sisd::bench::kMillisecond);

void BM_SphereOptimizer(sisd::bench::State& state) {
  const size_t d = static_cast<size_t>(state.range(0));
  const size_t n = 500;
  random::Rng rng(2);
  Result<model::BackgroundModel> model = model::BackgroundModel::Create(
      n, linalg::Vector(d), linalg::Matrix::Identity(d));
  model.status().CheckOK();
  linalg::Matrix y(n, d);
  for (size_t i = 0; i < n; ++i) y.SetRow(i, rng.GaussianVector(d));
  pattern::Extension ext(n);
  for (size_t i = 0; i < 200; ++i) ext.Insert(i);
  optimize::SpreadObjective objective(model.Value(), ext, y);
  optimize::SphereOptimizerConfig config;
  config.num_random_starts = 2;
  for (auto _ : state) {
    sisd::bench::DoNotOptimize(optimize::MaximizeOnSphere(objective, config));
  }
}
SISD_BENCHMARK(BM_SphereOptimizer)
    ->Arg(2)
    ->Arg(5)
    ->Arg(16)
    ->Unit(sisd::bench::kMillisecond);

void BM_PairSweep(sisd::bench::State& state) {
  const size_t d = static_cast<size_t>(state.range(0));
  const size_t n = 412;
  random::Rng rng(3);
  Result<model::BackgroundModel> model = model::BackgroundModel::Create(
      n, linalg::Vector(d), linalg::Matrix::Identity(d));
  model.status().CheckOK();
  linalg::Matrix y(n, d);
  for (size_t i = 0; i < n; ++i) y.SetRow(i, rng.GaussianVector(d));
  pattern::Extension ext(n);
  for (size_t i = 0; i < 100; ++i) ext.Insert(i);
  optimize::SpreadObjective objective(model.Value(), ext, y);
  for (auto _ : state) {
    sisd::bench::DoNotOptimize(optimize::MaximizePairSparse(objective, nullptr));
  }
}
SISD_BENCHMARK(BM_PairSweep)->Arg(5)->Arg(16)->Unit(sisd::bench::kMillisecond);

}  // namespace

SISD_BENCHMARK_MAIN();
