// Ablation: heuristic beam search vs exhaustive / branch-and-bound optimum
// (the paper's stated future work, §V: "it may be feasible to devise a
// branch-and-bound approach to mine optimal location patterns").
//
// On the crime-like data (univariate target, where the tight optimistic
// estimator applies) we compare, at depth 2:
//   1. the paper's beam search (width 40),
//   2. plain exhaustive enumeration (the global optimum),
//   3. branch-and-bound with the tight univariate SI bound,
// reporting quality found, candidates evaluated and wall-clock.

#include <chrono>
#include <cstdio>

#include "datagen/crime.hpp"
#include "pattern/patterns.hpp"
#include "reference/exhaustive_search.hpp"
#include "reference/quality_measures.hpp"
#include "search/optimal_search.hpp"

int main() {
  using namespace sisd;
  using Clock = std::chrono::steady_clock;

  std::printf("=== Ablation: beam vs exhaustive vs branch-and-bound ===\n\n");
  const datagen::CrimeData data = datagen::MakeCrimeLike(
      {.num_rows = 1994, .num_descriptions = 40, .seed = 7});
  Result<model::BackgroundModel> model =
      model::BackgroundModel::CreateFromData(data.dataset.targets);
  model.status().CheckOK();
  const search::ConditionPool pool =
      search::ConditionPool::Build(data.dataset.descriptions, 4);
  const si::DescriptionLengthParams dl;
  const reference::QualityFunction quality =
      reference::SiLocationQuality(model.Value(), data.dataset.targets, dl);

  std::printf("%-24s %12s %14s %12s %10s\n", "method", "best SI",
              "evaluated", "pruned", "seconds");

  {  // Beam search (paper settings, depth 2).
    search::SearchConfig config;
    config.max_depth = 2;
    config.min_coverage = 20;
    const Clock::time_point a = Clock::now();
    const search::SearchResult beam = reference::CallbackBeamSearch(
        data.dataset.descriptions, pool, config, quality);
    const double secs =
        std::chrono::duration<double>(Clock::now() - a).count();
    std::printf("%-24s %12.2f %14zu %12s %10.3f\n", "beam (width 40)",
                beam.best().quality, beam.num_evaluated, "-", secs);
  }

  reference::ExhaustiveConfig config;
  config.max_depth = 2;
  config.min_coverage = 20;
  double exhaustive_best = 0.0;
  {  // Plain exhaustive.
    const Clock::time_point a = Clock::now();
    const reference::ExhaustiveResult plain = reference::ExhaustiveSearch(
        data.dataset.descriptions, pool, config, quality);
    const double secs =
        std::chrono::duration<double>(Clock::now() - a).count();
    exhaustive_best = plain.best.quality;
    std::printf("%-24s %12.2f %14zu %12zu %10.3f\n", "exhaustive",
                plain.best.quality, plain.num_evaluated,
                plain.num_pruned_nodes, secs);
  }
  {  // Branch-and-bound with the tight univariate bound.
    Result<reference::OptimisticBound> bound =
        reference::MakeUnivariateSiBound(model.Value(), data.dataset.targets,
                                         dl, config.min_coverage);
    bound.status().CheckOK();
    const Clock::time_point a = Clock::now();
    const reference::ExhaustiveResult bnb = reference::ExhaustiveSearch(
        data.dataset.descriptions, pool, config, quality, &bound.Value());
    const double secs =
        std::chrono::duration<double>(Clock::now() - a).count();
    std::printf("%-24s %12.2f %14zu %12zu %10.3f\n", "branch-and-bound",
                bnb.best.quality, bnb.num_evaluated, bnb.num_pruned_nodes,
                secs);
  }
  {  // The batch-engine-native best-first branch-and-bound.
    search::OptimalConfig optimal;
    optimal.max_depth = 2;
    optimal.min_coverage = config.min_coverage;
    optimal.num_threads = 1;
    const Clock::time_point a = Clock::now();
    const search::OptimalResult engine = search::OptimalLocationSearch(
        data.dataset.descriptions, pool, model.Value(), data.dataset.targets,
        dl, optimal);
    const double secs =
        std::chrono::duration<double>(Clock::now() - a).count();
    std::printf("%-24s %12.2f %14zu %12zu %10.3f\n", "best-first B&B",
                engine.best.quality, engine.num_evaluated,
                engine.num_pruned_nodes, secs);
    std::printf(
        "\nchecks: all four methods must report the same best SI (%.2f);\n"
        "the bounded searches must evaluate strictly fewer candidates than\n"
        "plain exhaustive enumeration.\n",
        exhaustive_best);
  }

  // Dispersion-corrected quality family (Boley et al. 2017): what the
  // classical measure's optimum looks like under the SI lens. The family's
  // exponent trades coverage against shift; the paper's default is 0.5.
  std::printf("\n=== Dispersion-corrected family (exhaustive, depth 2) ===\n");
  std::printf("%-24s %12s %12s %10s %12s\n", "variant", "best q", "SI",
              "coverage", "evaluated");
  const reference::TargetSummary summary =
      reference::TargetSummary::Compute(data.dataset.targets, 0);
  for (const double exponent : {0.0, 0.5, 1.0}) {
    reference::DispersionCorrectedParams params;
    params.size_exponent = exponent;
    const reference::QualityFunction family_quality =
        [&](const pattern::Intention&, const pattern::Extension& ext) {
          return reference::DispersionCorrectedFamilyQuality(
              data.dataset.targets, 0, summary, ext, params);
        };
    const reference::ExhaustiveResult found = reference::ExhaustiveSearch(
        data.dataset.descriptions, pool, config, family_quality);
    const double si = quality(found.best.intention, found.best.extension);
    std::printf("%-24s %12.3f %12.2f %10zu %12zu\n",
                exponent == 0.5 ? "exponent 0.5 (default)"
                                : (exponent == 0.0 ? "exponent 0.0"
                                                   : "exponent 1.0"),
                found.best.quality, si, found.best.extension.count(),
                found.num_evaluated);
  }
  std::printf(
      "\ncheck: the family's optima are high-SI subgroups too (the crime\n"
      "driver is tight), but none may exceed the SI optimum above.\n");
  return 0;
}
