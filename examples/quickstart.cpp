// Quickstart: subjectively interesting subgroup discovery in ~40 lines.
//
// We generate a Communities-&-Crime-shaped dataset (1994 districts, one
// real-valued target "violent crimes per population", 122 demographic
// descriptors), open a mining session whose background model starts from the
// empirical mean/covariance (i.e. the user knows the overall statistics,
// nothing else), and ask for the three most informative subgroups.
//
// Build & run:
//   cmake -B build -G Ninja && cmake --build build
//   ./build/examples/quickstart

#include <cstdio>

#include "core/session.hpp"
#include "datagen/crime.hpp"

int main() {
  using namespace sisd;

  // 1. Get data. Any data::Dataset works; see csv_mining.cpp for loading
  //    your own CSV files.
  const datagen::CrimeData data = datagen::MakeCrimeLike();
  std::printf("dataset: %s (n=%zu, %zu descriptions, %zu target)\n\n",
              data.dataset.name.c_str(), data.dataset.num_rows(),
              data.dataset.num_descriptions(), data.dataset.num_targets());

  // 2. Configure the session. Defaults reproduce the paper's setup: beam
  //    width 40, depth 4, numeric splits at the 1/5..4/5 percentiles,
  //    SI = IC / (0.1 * #conditions + 1).
  core::MinerConfig config;
  config.mix = core::PatternMix::kLocationOnly;  // single target: means only
  config.search.max_depth = 2;
  config.search.min_coverage = 20;

  Result<core::MiningSession> session =
      core::MiningSession::Create(data.dataset, config);
  session.status().CheckOK();

  // 3. Iterate: each call returns the currently most informative pattern
  //    and assimilates it, so the next iteration is non-redundant.
  for (int iteration = 1; iteration <= 3; ++iteration) {
    Result<core::IterationResult> result = session.Value().MineNext();
    result.status().CheckOK();
    const core::ScoredLocationPattern& top = result.Value().location;
    std::printf("iteration %d: %s\n", iteration,
                top.Describe(data.dataset.descriptions).c_str());
    std::printf("  subgroup crime mean %.3f vs overall %.3f\n\n",
                top.pattern.mean[0], data.truth.overall_mean);
  }
  return 0;
}
