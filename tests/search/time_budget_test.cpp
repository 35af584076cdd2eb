/// Wall-clock budget expiry: a search cut off by `time_budget_seconds`
/// must set `hit_time_budget`, still return a valid (partial) ranked list,
/// and overshoot the deadline by at most a bounded number of scoring
/// chunks — not a whole beam level.

#include <chrono>
#include <cmath>
#include <thread>

#include <gtest/gtest.h>

#include "common/strings.hpp"
#include "reference/callback_beam_search.hpp"
#include "reference/exhaustive_search.hpp"
#include "search/beam_search.hpp"
#include "search/condition_pool.hpp"

namespace sisd::search {
namespace {

using reference::CallbackBeamSearch;
using reference::QualityFunction;

/// 200 rows x 12 numeric columns: a pool of ~96 conditions, so level 2
/// generates thousands of candidates — plenty of work to interrupt.
data::DataTable MakeWideTable() {
  data::DataTable table;
  for (int j = 0; j < 12; ++j) {
    std::vector<double> values;
    values.reserve(200);
    for (int i = 0; i < 200; ++i) {
      values.push_back(std::fmod(double(i) * (1.3 + 0.17 * double(j)), 19.0));
    }
    table.AddColumn(data::Column::Numeric(StrFormat("x%d", j), values))
        .CheckOK();
  }
  return table;
}

/// Coverage-scoring quality function, optionally slowed down to make the
/// budget expire mid-search deterministically enough to observe.
QualityFunction CoverageQuality(std::chrono::microseconds delay) {
  return [delay](const pattern::Intention& intention,
                 const pattern::Extension& extension) {
    if (delay.count() > 0) std::this_thread::sleep_for(delay);
    return double(extension.count()) / double(1 + intention.size());
  };
}

SearchConfig WideConfig() {
  SearchConfig config;
  config.beam_width = 15;
  config.max_depth = 3;
  config.top_k = 50;
  config.min_coverage = 2;
  config.num_threads = 1;
  return config;
}

TEST(TimeBudgetTest, ZeroBudgetStopsBeforeAnyWork) {
  const data::DataTable table = MakeWideTable();
  const ConditionPool pool = ConditionPool::Build(table, 4);
  SearchConfig config = WideConfig();
  config.time_budget_seconds = 0.0;
  const SearchResult result = CallbackBeamSearch(
      table, pool, config, CoverageQuality(std::chrono::microseconds(0)));
  EXPECT_TRUE(result.hit_time_budget);
  EXPECT_EQ(result.num_evaluated, 0u);
  EXPECT_TRUE(result.top.empty());
}

TEST(TimeBudgetTest, ExpiryReturnsValidPartialRankedList) {
  const data::DataTable table = MakeWideTable();
  const ConditionPool pool = ConditionPool::Build(table, 4);

  // Reference: the unbudgeted search (fast scorer) for the total count.
  SearchConfig config = WideConfig();
  const SearchResult full = CallbackBeamSearch(
      table, pool, config, CoverageQuality(std::chrono::microseconds(0)));
  ASSERT_FALSE(full.hit_time_budget);
  ASSERT_GT(full.num_evaluated, 1000u);

  // Budgeted run with a scorer slow enough (200us/candidate) that the
  // 30ms budget expires long before the search could finish (the full
  // search would need > full.num_evaluated * 200us >= 200ms).
  const auto delay = std::chrono::microseconds(200);
  config.time_budget_seconds = 0.03;
  const auto start = std::chrono::steady_clock::now();
  const SearchResult partial =
      CallbackBeamSearch(table, pool, config, CoverageQuality(delay));
  const double elapsed =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();

  EXPECT_TRUE(partial.hit_time_budget);
  // Partial, not empty: level 1 (96 candidates, ~20ms) fits the budget.
  EXPECT_GT(partial.num_evaluated, 0u);
  EXPECT_LT(partial.num_evaluated, full.num_evaluated);

  // The ranked list is valid: deduplicated, sorted descending, every entry
  // scored and materialized.
  ASSERT_FALSE(partial.top.empty());
  for (size_t i = 0; i < partial.top.size(); ++i) {
    const ScoredSubgroup& entry = partial.top[i];
    EXPECT_TRUE(std::isfinite(entry.quality));
    EXPECT_GT(entry.extension.count(), 0u);
    EXPECT_EQ(entry.extension,
              entry.intention.Evaluate(table));
    if (i > 0) {
      EXPECT_LE(entry.quality, partial.top[i - 1].quality);
    }
  }
  // Entries the partial search did rank agree with the full search's
  // scores (same scorer, same candidates — expiry only truncates).
  EXPECT_EQ(partial.top.front().quality, full.top.front().quality);

  // Bounded overshoot: after the deadline, at most ~5 chunks of 256
  // candidates may still be scored (4 expired-slice chunks + 1 in-flight),
  // i.e. <= 1280 * 200us ~ 0.26s. Generous slack for CI noise, but far
  // below the >= 0.8s a full level 2 (~4000+ candidates) would cost.
  EXPECT_LT(elapsed, config.time_budget_seconds + 0.6);
}

TEST(TimeBudgetTest, ExpiredSearchCountsOnlyScoredCandidates) {
  const data::DataTable table = MakeWideTable();
  const ConditionPool pool = ConditionPool::Build(table, 4);
  SearchConfig config = WideConfig();
  config.time_budget_seconds = 0.03;
  const SearchResult partial = CallbackBeamSearch(
      table, pool, config, CoverageQuality(std::chrono::microseconds(200)));
  ASSERT_TRUE(partial.hit_time_budget);
  // num_evaluated reflects work actually done: consistent with the elapsed
  // wall clock at ~200us each (never the full candidate universe).
  EXPECT_LE(partial.num_evaluated, 3000u);
}

/// 120 rows x 100 numeric columns: a pool of ~800 conditions, so a single
/// depth-1 node sweeps hundreds of sibling candidates — exactly the stretch
/// that used to run with no deadline check at all.
data::DataTable MakeVeryWideTable() {
  data::DataTable table;
  for (int j = 0; j < 100; ++j) {
    std::vector<double> values;
    values.reserve(120);
    for (int i = 0; i < 120; ++i) {
      values.push_back(std::fmod(double(i) * (1.3 + 0.17 * double(j)), 19.0));
    }
    table.AddColumn(data::Column::Numeric(StrFormat("x%d", j), values))
        .CheckOK();
  }
  return table;
}

TEST(TimeBudgetTest, ExhaustiveSearchBoundsOvershootWithinOneChunk) {
  // Regression for the DFS overshoot: the deadline was only checked at node
  // entry, so a node with hundreds of children ran its whole sibling sweep
  // past the budget. Now the check fires every 256 candidates, bounding the
  // overshoot by one chunk regardless of node fan-out.
  const data::DataTable table = MakeVeryWideTable();
  const ConditionPool pool = ConditionPool::Build(table, 4);
  ASSERT_GT(pool.size(), 600u);

  reference::ExhaustiveConfig config;
  config.max_depth = 2;
  config.min_coverage = 2;
  config.time_budget_seconds = 0.02;
  const auto delay = std::chrono::microseconds(700);
  const auto start = std::chrono::steady_clock::now();
  const reference::ExhaustiveResult result = reference::ExhaustiveSearch(
      table, pool, config, CoverageQuality(delay));
  const double elapsed =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();

  EXPECT_FALSE(result.completed);
  // ~29 candidates fit the 20ms budget; after expiry at most one 256-tick
  // chunk may still be scored. Pre-fix, the first depth-1 node swept all
  // ~800 siblings (~0.55s) before the next check.
  EXPECT_LT(result.num_evaluated, 500u);
  EXPECT_LT(elapsed, config.time_budget_seconds + 0.45);
}

}  // namespace
}  // namespace sisd::search
