// Reproduces Table I of the paper: the SI of the top-10 iteration-1
// patterns on the synthetic data, tracked over four mining iterations.
//
// Paper values (for reference; our synthetic draw differs in detail):
//   a3='1'                       48.35   -1.13   -1.13   -1.13
//   a5='1'                       47.49   47.49   -1.13   -1.13
//   a4='1'                       39.49   39.49   39.49   -1.13
//   a4='0' AND a3='1'            36.26   -0.85   -0.85   -0.85
//   ... (redundant two-condition variants of the same extensions)
//
// Shape checks: (1) the top three patterns are the three planted clusters;
// (2) redundant longer descriptions score lower than their one-condition
// equivalents by exactly the DL ratio; (3) once a pattern's subgroup is
// assimilated, its SI collapses to a small (typically negative) value and
// stays there.

#include <cstdio>
#include <vector>

#include "core/session.hpp"
#include "datagen/synthetic.hpp"

int main() {
  using namespace sisd;

  std::printf("=== Table I: SI of top patterns over four iterations ===\n\n");
  const datagen::SyntheticData data = datagen::MakeSyntheticEmbedded();

  core::MinerConfig config;
  config.search.min_coverage = 5;
  Result<core::MiningSession> session =
      core::MiningSession::Create(data.dataset, config);
  session.status().CheckOK();

  // Iteration 1: mine and remember the top-10 ranked patterns.
  Result<core::IterationResult> first = session.Value().MineNext();
  first.status().CheckOK();
  const size_t kTrack = std::min<size_t>(10, first.Value().ranked.size());
  std::vector<pattern::Intention> tracked;
  std::vector<std::vector<double>> si(kTrack);
  for (size_t r = 0; r < kTrack; ++r) {
    tracked.push_back(first.Value().ranked[r].pattern.subgroup.intention);
    si[r].push_back(first.Value().ranked[r].score.si);
  }

  // Iterations 2-4: re-score all tracked intentions under the evolving
  // model, then mine the next pattern.
  for (int iteration = 2; iteration <= 4; ++iteration) {
    for (size_t r = 0; r < kTrack; ++r) {
      Result<core::ScoredLocationPattern> rescored =
          session.Value().ScoreIntention(tracked[r]);
      rescored.status().CheckOK();
      si[r].push_back(rescored.Value().score.si);
    }
    if (iteration < 4) {
      session.Value().MineNext().status().CheckOK();
    }
  }
  // Note: SI column k reflects the model AFTER k patterns were assimilated,
  // matching the paper's "Iter k" columns.

  std::printf("%-36s %8s %8s %8s %8s   size\n", "Intention", "Iter1", "Iter2",
              "Iter3", "Iter4");
  for (size_t r = 0; r < kTrack; ++r) {
    Result<core::ScoredLocationPattern> info =
        session.Value().ScoreIntention(tracked[r]);
    info.status().CheckOK();
    std::printf("%-36s %8.2f %8.2f %8.2f %8.2f   %zu\n",
                tracked[r].ToString(data.dataset.descriptions).c_str(),
                si[r][0], si[r][1], si[r][2], si[r][3],
                info.Value().pattern.subgroup.Coverage());
  }

  std::printf(
      "\npaper shape: top-3 = the planted subgroups (size 40); their SI\n"
      "collapses to ~-1 in the iteration after they are assimilated;\n"
      "redundant longer descriptions of the same extensions rank below the\n"
      "single-condition versions and collapse together with them.\n");
  return 0;
}
