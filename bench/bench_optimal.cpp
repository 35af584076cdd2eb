// Provably-optimal search benchmarks (bench/harness): the kernel-backed
// best-first branch-and-bound (search/optimal_search) against the old
// callback-DFS optimal path (ExhaustiveSearch + MakeUnivariateSiBound) and
// the paper's beam heuristic, on the crime-shaped data (univariate target,
// tight bound engages) and the synthetic data (bivariate, pure best-first).
//
// scripts/bench_optimal.sh records the comparison into BENCH_optimal.json
// with computed speedup summaries; the binary's --gap-json mode emits the
// beam-vs-optimal quality gap (a deterministic number, measured once, not
// a timing).

#include "harness/microbench.hpp"

#include <cstdio>
#include <string_view>

#include "datagen/crime.hpp"
#include "datagen/synthetic.hpp"
#include "model/background_model.hpp"
#include "pattern/patterns.hpp"
#include "reference/exhaustive_search.hpp"
#include "search/beam_search.hpp"
#include "search/optimal_search.hpp"
#include "search/si_evaluator.hpp"

namespace {

using namespace sisd;

/// One benchmark scenario: dataset, pool, fitted initial model, settings.
struct Fixture {
  data::Dataset dataset;
  search::ConditionPool pool;
  model::BackgroundModel model;
  si::DescriptionLengthParams dl;
  size_t min_coverage = 0;

  Fixture(data::Dataset ds, size_t min_cov)
      : dataset(std::move(ds)),
        pool(search::ConditionPool::Build(dataset.descriptions, 4)),
        model(model::BackgroundModel::CreateFromData(dataset.targets).Value()),
        min_coverage(min_cov) {}
};

/// The paper's crime shape at full size: 1994 rows, 40 descriptions,
/// univariate target — the headline branch-and-bound case.
const Fixture& Crime() {
  static const Fixture fixture(
      datagen::MakeCrimeLike({.num_rows = 1994, .num_descriptions = 40,
                              .seed = 7})
          .dataset,
      /*min_cov=*/20);
  return fixture;
}

/// The synthetic scenario: bivariate targets, so the bound switches off and
/// the engine runs as a pure best-first enumerator.
const Fixture& Synth() {
  static const Fixture fixture(datagen::MakeSyntheticEmbedded().dataset,
                               /*min_cov=*/5);
  return fixture;
}

reference::ExhaustiveConfig DfsConfig(const Fixture& f) {
  reference::ExhaustiveConfig config;
  config.max_depth = 2;
  config.min_coverage = f.min_coverage;
  return config;
}

search::OptimalConfig EngineConfig(const Fixture& f, int threads) {
  search::OptimalConfig config;
  config.max_depth = 2;
  config.min_coverage = f.min_coverage;
  config.num_threads = threads;
  return config;
}

search::OptimalResult RunEngine(const Fixture& f, int threads) {
  return search::OptimalLocationSearch(f.dataset.descriptions, f.pool,
                                       f.model, f.dataset.targets, f.dl,
                                       EngineConfig(f, threads));
}

/// The old optimal path: callback DFS with the tight univariate bound.
void BM_Crime_CallbackDfsBnB(sisd::bench::State& state) {
  const Fixture& f = Crime();
  const reference::QualityFunction quality =
      reference::SiLocationQuality(f.model, f.dataset.targets, f.dl);
  const reference::OptimisticBound bound =
      reference::MakeUnivariateSiBound(f.model, f.dataset.targets, f.dl,
                                       f.min_coverage)
          .Value();
  const reference::ExhaustiveConfig config = DfsConfig(f);
  size_t evaluated = 0;
  for (auto _ : state) {
    const reference::ExhaustiveResult r = reference::ExhaustiveSearch(
        f.dataset.descriptions, f.pool, config, quality, &bound);
    evaluated = r.num_evaluated;
    sisd::bench::DoNotOptimize(r.best.quality);
  }
  state.SetItemsProcessed(state.iterations() * int64_t(evaluated));
}
SISD_BENCHMARK(BM_Crime_CallbackDfsBnB)->Unit(sisd::bench::kMillisecond);

/// Plain callback DFS without the bound (full enumeration context).
void BM_Crime_CallbackDfsPlain(sisd::bench::State& state) {
  const Fixture& f = Crime();
  const reference::QualityFunction quality =
      reference::SiLocationQuality(f.model, f.dataset.targets, f.dl);
  const reference::ExhaustiveConfig config = DfsConfig(f);
  size_t evaluated = 0;
  for (auto _ : state) {
    const reference::ExhaustiveResult r = reference::ExhaustiveSearch(
        f.dataset.descriptions, f.pool, config, quality);
    evaluated = r.num_evaluated;
    sisd::bench::DoNotOptimize(r.best.quality);
  }
  state.SetItemsProcessed(state.iterations() * int64_t(evaluated));
}
SISD_BENCHMARK(BM_Crime_CallbackDfsPlain)->Unit(sisd::bench::kMillisecond);

/// The new engine, single-threaded (the algorithmic speedup, no
/// parallelism).
void BM_Crime_OptimalBnB_1thread(sisd::bench::State& state) {
  const Fixture& f = Crime();
  size_t evaluated = 0;
  for (auto _ : state) {
    const search::OptimalResult r = RunEngine(f, 1);
    evaluated = r.num_evaluated;
    sisd::bench::DoNotOptimize(r.best.quality);
  }
  state.SetItemsProcessed(state.iterations() * int64_t(evaluated));
}
SISD_BENCHMARK(BM_Crime_OptimalBnB_1thread)->Unit(sisd::bench::kMillisecond);

/// The new engine at the hardware thread count.
void BM_Crime_OptimalBnB_allthreads(sisd::bench::State& state) {
  const Fixture& f = Crime();
  size_t evaluated = 0;
  for (auto _ : state) {
    const search::OptimalResult r = RunEngine(f, 0);
    evaluated = r.num_evaluated;
    sisd::bench::DoNotOptimize(r.best.quality);
  }
  state.SetItemsProcessed(state.iterations() * int64_t(evaluated));
}
SISD_BENCHMARK(BM_Crime_OptimalBnB_allthreads)->Unit(sisd::bench::kMillisecond);

/// The production beam heuristic under the same constraints.
void BM_Crime_Beam(sisd::bench::State& state) {
  const Fixture& f = Crime();
  search::SearchConfig config;
  config.max_depth = 2;
  config.min_coverage = f.min_coverage;
  config.num_threads = 1;
  search::SiLocationEvaluator evaluator(f.model, f.dataset.targets, f.dl);
  for (auto _ : state) {
    const search::SearchResult r =
        search::BeamSearch(f.dataset.descriptions, f.pool, config, evaluator);
    sisd::bench::DoNotOptimize(r.best().quality);
  }
}
SISD_BENCHMARK(BM_Crime_Beam)->Unit(sisd::bench::kMillisecond);

void BM_Synth_CallbackDfs(sisd::bench::State& state) {
  const Fixture& f = Synth();
  const reference::QualityFunction quality =
      reference::SiLocationQuality(f.model, f.dataset.targets, f.dl);
  const reference::ExhaustiveConfig config = DfsConfig(f);
  size_t evaluated = 0;
  for (auto _ : state) {
    const reference::ExhaustiveResult r = reference::ExhaustiveSearch(
        f.dataset.descriptions, f.pool, config, quality);
    evaluated = r.num_evaluated;
    sisd::bench::DoNotOptimize(r.best.quality);
  }
  state.SetItemsProcessed(state.iterations() * int64_t(evaluated));
}
SISD_BENCHMARK(BM_Synth_CallbackDfs)->Unit(sisd::bench::kMicrosecond);

void BM_Synth_Optimal_1thread(sisd::bench::State& state) {
  const Fixture& f = Synth();
  size_t evaluated = 0;
  for (auto _ : state) {
    const search::OptimalResult r = RunEngine(f, 1);
    evaluated = r.num_evaluated;
    sisd::bench::DoNotOptimize(r.best.quality);
  }
  state.SetItemsProcessed(state.iterations() * int64_t(evaluated));
}
SISD_BENCHMARK(BM_Synth_Optimal_1thread)->Unit(sisd::bench::kMicrosecond);

void BM_Synth_Beam(sisd::bench::State& state) {
  const Fixture& f = Synth();
  search::SearchConfig config;
  config.max_depth = 2;
  config.min_coverage = f.min_coverage;
  config.num_threads = 1;
  search::SiLocationEvaluator evaluator(f.model, f.dataset.targets, f.dl);
  for (auto _ : state) {
    const search::SearchResult r =
        search::BeamSearch(f.dataset.descriptions, f.pool, config, evaluator);
    sisd::bench::DoNotOptimize(r.best().quality);
  }
}
SISD_BENCHMARK(BM_Synth_Beam)->Unit(sisd::bench::kMicrosecond);

/// Beam-vs-optimal quality gap, emitted as JSON (measured once per
/// scenario: these are exact search outputs, not timings).
int PrintGapJson() {
  std::printf("{\n");
  const char* sep = "";
  for (const auto& [name, fixture] :
       {std::pair<const char*, const Fixture*>{"crime", &Crime()},
        std::pair<const char*, const Fixture*>{"synthetic", &Synth()}}) {
    const Fixture& f = *fixture;
    const search::OptimalResult optimal = RunEngine(f, 1);
    search::SearchConfig config;
    config.max_depth = 2;
    config.min_coverage = f.min_coverage;
    config.num_threads = 1;
    search::SiLocationEvaluator evaluator(f.model, f.dataset.targets, f.dl);
    const search::SearchResult beam =
        search::BeamSearch(f.dataset.descriptions, f.pool, config, evaluator);
    const double beam_si = beam.top.empty() ? 0.0 : beam.best().quality;
    const double gap_pct =
        optimal.best.quality > 0.0
            ? (optimal.best.quality - beam_si) / optimal.best.quality * 100.0
            : 0.0;
    std::printf(
        "%s  \"%s\": {\"optimal_si\": %.12g, \"beam_si\": %.12g, "
        "\"gap_pct\": %.6f, \"evaluated\": %zu, \"pruned\": %zu, "
        "\"used_bound\": %s}",
        sep, name, optimal.best.quality, beam_si, gap_pct,
        optimal.num_evaluated, optimal.num_pruned_nodes,
        optimal.used_bound ? "true" : "false");
    sep = ",\n";
  }
  std::printf("\n}\n");
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    if (std::string_view(argv[i]) == "--gap-json") return PrintGapJson();
  }
  return sisd::bench::RunMain(argc, argv);
}
