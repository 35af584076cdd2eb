/// The acceptance property of the persistent-session subsystem, on every
/// datagen scenario: save a session after iteration k, restore it, mine
/// iteration k+1 — the restored session's output must be byte-identical to
/// a session that never stopped (Describe strings, ranked lists, search
/// diagnostics, and the full re-saved snapshot). Also verifies that the
/// incremental (rank-one) assimilation path the sessions ran on agrees
/// with RefitFromScratch within the documented 1e-10 tolerance.

#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/session.hpp"
#include "datagen/crime.hpp"
#include "datagen/gse.hpp"
#include "datagen/mammals.hpp"
#include "datagen/synthetic.hpp"
#include "datagen/water.hpp"
#include "linalg/cholesky.hpp"

namespace sisd::core {
namespace {

struct Scenario {
  std::string name;
  data::Dataset dataset;
  MinerConfig config;
  int iterations_before_save = 1;
};

/// Paper scenarios, thinned where the full shapes would make an
/// integration test slow; every code path (multi-target, binary targets,
/// spread sparsity, location-only) is still exercised.
std::vector<Scenario> AllScenarios() {
  std::vector<Scenario> scenarios;

  {
    Scenario s;
    s.name = "synthetic";
    s.dataset = datagen::MakeSyntheticEmbedded().dataset;
    s.config.search.beam_width = 10;
    s.config.search.max_depth = 2;
    s.config.search.top_k = 30;
    s.config.search.min_coverage = 5;
    s.config.spread_optimizer.num_random_starts = 2;
    s.iterations_before_save = 2;
    scenarios.push_back(std::move(s));
  }
  {
    Scenario s;
    s.name = "crime";
    s.dataset = datagen::MakeCrimeLike(
                    {.num_rows = 500, .num_descriptions = 25, .seed = 7})
                    .dataset;
    s.config.mix = PatternMix::kLocationOnly;
    s.config.search.beam_width = 10;
    s.config.search.max_depth = 2;
    s.config.search.top_k = 30;
    s.config.search.min_coverage = 10;
    scenarios.push_back(std::move(s));
  }
  {
    Scenario s;
    s.name = "mammals";
    s.dataset = datagen::MakeMammalsLike({.grid_rows = 10,
                                          .grid_cols = 18,
                                          .num_species = 25,
                                          .num_climate = 12,
                                          .seed = 11})
                    .dataset;
    s.config.mix = PatternMix::kLocationOnly;  // §III-B setup
    s.config.search.beam_width = 8;
    s.config.search.max_depth = 2;
    s.config.search.top_k = 20;
    s.config.search.min_coverage = 5;
    scenarios.push_back(std::move(s));
  }
  {
    Scenario s;
    s.name = "water";
    s.dataset = datagen::MakeWaterLike({.num_rows = 400, .seed = 3}).dataset;
    s.config.search.beam_width = 10;
    s.config.search.max_depth = 2;
    s.config.search.top_k = 30;
    s.config.search.min_coverage = 10;
    s.config.spread_optimizer.num_random_starts = 2;
    scenarios.push_back(std::move(s));
  }
  {
    Scenario s;
    s.name = "gse";
    s.dataset = datagen::MakeGseLike().dataset;
    s.config.spread_sparsity = 2;  // §III-C pair sweep
    s.config.search.beam_width = 10;
    s.config.search.max_depth = 2;
    s.config.search.top_k = 30;
    s.config.search.min_coverage = 10;
    scenarios.push_back(std::move(s));
  }
  return scenarios;
}

std::string DescribeIteration(const IterationResult& iteration,
                              const data::DataTable& descriptions) {
  std::string out = iteration.location.Describe(descriptions);
  out += "\n";
  if (iteration.spread.has_value()) {
    out += iteration.spread->Describe(descriptions);
    out += "\n";
  }
  for (const ScoredLocationPattern& entry : iteration.ranked) {
    out += entry.Describe(descriptions);
    out += "\n";
  }
  return out;
}

TEST(SessionRoundTripTest, RestoredSessionMinesByteIdentically) {
  for (Scenario& scenario : AllScenarios()) {
    SCOPED_TRACE(scenario.name);
    Result<MiningSession> unbroken =
        MiningSession::Create(scenario.dataset, scenario.config);
    ASSERT_TRUE(unbroken.ok()) << unbroken.status().ToString();

    // Mine k iterations, snapshot.
    Result<std::vector<IterationResult>> first =
        unbroken.Value().MineIterations(scenario.iterations_before_save);
    ASSERT_TRUE(first.ok()) << first.status().ToString();
    const std::string snapshot = unbroken.Value().SaveToString();

    // Restore into a fresh session.
    Result<MiningSession> restored =
        MiningSession::RestoreFromString(snapshot);
    ASSERT_TRUE(restored.ok()) << restored.status().ToString();

    // The restored history reproduces the saved iterations byte-for-byte.
    const data::DataTable& descriptions =
        restored.Value().dataset().descriptions;
    ASSERT_EQ(restored.Value().history().size(),
              size_t(scenario.iterations_before_save));
    for (int k = 0; k < scenario.iterations_before_save; ++k) {
      EXPECT_EQ(DescribeIteration(restored.Value().history()[size_t(k)],
                                  descriptions),
                DescribeIteration(unbroken.Value().history()[size_t(k)],
                                  descriptions));
    }

    // Iteration k+1 on both sessions: byte-identical output.
    Result<IterationResult> continued = unbroken.Value().MineNext();
    Result<IterationResult> resumed = restored.Value().MineNext();
    ASSERT_TRUE(continued.ok()) << continued.status().ToString();
    ASSERT_TRUE(resumed.ok()) << resumed.status().ToString();
    EXPECT_EQ(DescribeIteration(resumed.Value(), descriptions),
              DescribeIteration(continued.Value(), descriptions));
    EXPECT_EQ(resumed.Value().candidates_evaluated,
              continued.Value().candidates_evaluated);

    // The strongest form: the full re-saved session state is bit-equal.
    EXPECT_EQ(restored.Value().SaveToString(),
              unbroken.Value().SaveToString());

    // Warm-started refit (cyclic descent from the session's current
    // parameters, factors maintained incrementally) must converge to the
    // same joint minimum-KL model as a full from-scratch refit.
    model::PatternAssimilator warm = unbroken.Value().assimilator();
    model::PatternAssimilator scratch = warm;
    Result<model::RefitStats> warm_stats = warm.Refit(300, 1e-12);
    ASSERT_TRUE(warm_stats.ok()) << warm_stats.status().ToString();
    Result<model::RefitStats> scratch_stats =
        scratch.RefitFromScratch(300, 1e-12);
    ASSERT_TRUE(scratch_stats.ok()) << scratch_stats.status().ToString();
    EXPECT_LT(warm.model().MaxParameterDelta(scratch.model()), 1e-7)
        << scenario.name;
    EXPECT_LE(warm_stats.Value().sweeps, scratch_stats.Value().sweeps)
        << scenario.name;
    const model::BackgroundModel& live = unbroken.Value().model();
    for (size_t g = 0; g < live.num_groups(); ++g) {
      Result<linalg::Cholesky> fresh =
          linalg::Cholesky::Compute(live.group(g).sigma);
      ASSERT_TRUE(fresh.ok());
      EXPECT_LT(linalg::MaxAbsDiff(live.GroupCholesky(g).L(),
                                   fresh.Value().L()),
                1e-10)
          << scenario.name << " group " << g;
    }
  }
}

}  // namespace
}  // namespace sisd::core
