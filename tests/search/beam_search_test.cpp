#include "search/beam_search.hpp"

#include <cmath>
#include <mutex>
#include <set>

#include <gtest/gtest.h>

#include "datagen/crime.hpp"
#include "model/background_model.hpp"
#include "random/rng.hpp"
#include "reference/callback_beam_search.hpp"
#include "search/si_evaluator.hpp"

namespace sisd::search {
namespace {

using reference::CallbackBeamSearch;
using reference::QualityFunction;

/// Table with one binary attribute marking a planted subgroup plus noise
/// attributes.
data::DataTable MakePlantedTable(size_t n, const std::vector<size_t>& planted,
                                 uint64_t seed) {
  random::Rng rng(seed);
  std::vector<bool> label(n, false);
  for (size_t i : planted) label[i] = true;
  data::DataTable table;
  table.AddColumn(data::Column::Binary("label", label)).CheckOK();
  for (int j = 0; j < 3; ++j) {
    std::vector<bool> noise(n);
    for (size_t i = 0; i < n; ++i) noise[i] = rng.Bernoulli(0.5);
    table
        .AddColumn(data::Column::Binary("noise" + std::to_string(j), noise))
        .CheckOK();
  }
  return table;
}

/// One beam level's batch as the search handed it to the evaluator.
struct RecordedLevel {
  size_t depth = 0;
  std::vector<std::vector<uint32_t>> parent_ids;
  std::vector<CandidateBatch::Item> items;
  std::vector<std::vector<uint32_t>> ids;
};

/// Scores through `inner` and records every level's batch (parents, items
/// and candidate ids, in order) the first time a chunk of it arrives.
class RecordingEvaluator final : public BatchEvaluator {
 public:
  explicit RecordingEvaluator(BatchEvaluator& inner) : inner_(inner) {}

  bool SupportsParallelScoring() const override {
    return inner_.SupportsParallelScoring();
  }
  void Prepare(size_t num_workers) override { inner_.Prepare(num_workers); }

  void ScoreChunk(const CandidateBatch& batch, size_t begin, size_t end,
                  size_t worker, double* scores) override {
    {
      std::lock_guard<std::mutex> lock(mu_);
      if (levels_.empty() || levels_.back().depth != batch.depth) {
        RecordedLevel level;
        level.depth = batch.depth;
        for (const std::vector<uint32_t>* parent : batch.parent_ids) {
          level.parent_ids.push_back(*parent);
        }
        level.items = batch.items;
        for (size_t i = 0; i < batch.size(); ++i) {
          const std::span<const uint32_t> ids = batch.ids_of(i);
          level.ids.emplace_back(ids.begin(), ids.end());
        }
        levels_.push_back(std::move(level));
      }
    }
    inner_.ScoreChunk(batch, begin, end, worker, scores);
  }

  const std::vector<RecordedLevel>& levels() const { return levels_; }

 private:
  BatchEvaluator& inner_;
  std::mutex mu_;
  std::vector<RecordedLevel> levels_;
};

/// Parallel-safe scorer with a bumpy landscape, for tables without targets.
class BumpyEvaluator final : public BatchEvaluator {
 public:
  bool SupportsParallelScoring() const override { return true; }
  void ScoreChunk(const CandidateBatch& batch, size_t begin, size_t end,
                  size_t /*worker*/, double* scores) override {
    for (size_t i = begin; i < end; ++i) {
      const CandidateBatch::Item& item = batch.items[i];
      scores[i] = double((item.count * 7919u + item.condition) % 101);
    }
  }
};

/// The generation algorithm the search used to run, kept as the oracle:
/// every parent x every pool condition, the refinement constraints, a
/// whole-search first-occurrence dedup of the sorted id sets, and then the
/// coverage filter.
RecordedLevel NaiveGeneration(
    const ConditionPool& pool, size_t n, const SearchConfig& config,
    size_t depth, const std::vector<std::vector<uint32_t>>& parent_ids,
    std::set<std::vector<uint32_t>>* evaluated) {
  const size_t min_coverage = std::max<size_t>(config.min_coverage, 1);
  const size_t max_coverage =
      static_cast<size_t>(config.max_coverage_fraction * double(n));
  RecordedLevel level;
  level.depth = depth;
  level.parent_ids = parent_ids;
  for (uint32_t pi = 0; pi < parent_ids.size(); ++pi) {
    std::vector<pattern::Condition> conditions;
    pattern::Extension parent_extension(n, /*full=*/true);
    for (uint32_t id : parent_ids[pi]) {
      conditions.push_back(pool.condition(id));
      parent_extension.IntersectWith(pool.extension(id));
    }
    const pattern::Intention parent_intention(std::move(conditions));
    for (uint32_t cid = 0; cid < pool.size(); ++cid) {
      if (!parent_intention.AllowsRefinementWith(pool.condition(cid))) {
        continue;
      }
      std::vector<uint32_t> ids = parent_ids[pi];
      ids.insert(std::upper_bound(ids.begin(), ids.end(), cid), cid);
      if (!evaluated->insert(ids).second) continue;
      const size_t count = pattern::Extension::IntersectionCount(
          parent_extension, pool.extension(cid));
      if (count < min_coverage || count > max_coverage || count == n) {
        continue;
      }
      level.items.push_back({pi, cid, static_cast<uint32_t>(count)});
      level.ids.push_back(std::move(ids));
    }
  }
  return level;
}

/// Runs the search with a recording evaluator and checks each level's batch
/// against the naive generator fed the same parents.
void ExpectGenerationMatchesNaive(const data::DataTable& table,
                                  const ConditionPool& pool,
                                  const SearchConfig& config,
                                  BatchEvaluator& scorer) {
  RecordingEvaluator recorder(scorer);
  BeamSearch(table, pool, config, recorder);
  const std::vector<RecordedLevel>& levels = recorder.levels();
  ASSERT_EQ(levels.size(), static_cast<size_t>(config.max_depth));
  std::set<std::vector<uint32_t>> evaluated;
  for (size_t d = 0; d < levels.size(); ++d) {
    const RecordedLevel& got = levels[d];
    ASSERT_EQ(got.depth, d + 1);
    const RecordedLevel want = NaiveGeneration(
        pool, table.num_rows(), config, got.depth, got.parent_ids,
        &evaluated);
    ASSERT_FALSE(want.items.empty()) << "depth " << got.depth;
    ASSERT_EQ(got.items.size(), want.items.size()) << "depth " << got.depth;
    for (size_t i = 0; i < want.items.size(); ++i) {
      ASSERT_EQ(got.items[i].parent, want.items[i].parent)
          << "depth " << got.depth << " candidate " << i;
      ASSERT_EQ(got.items[i].condition, want.items[i].condition)
          << "depth " << got.depth << " candidate " << i;
      ASSERT_EQ(got.items[i].count, want.items[i].count)
          << "depth " << got.depth << " candidate " << i;
      ASSERT_EQ(got.ids[i], want.ids[i])
          << "depth " << got.depth << " candidate " << i;
    }
  }
}

TEST(BeamSearchTest, GenerationMatchesNaiveReference) {
  // Crime under the SI scorer, the workload the flat generation serves.
  const datagen::CrimeData crime = datagen::MakeCrimeLike();
  Result<model::BackgroundModel> model =
      model::BackgroundModel::CreateFromData(crime.dataset.targets);
  ASSERT_TRUE(model.ok());
  const ConditionPool crime_pool =
      ConditionPool::Build(crime.dataset.descriptions, 4);

  // Categorical attributes with set exclusions, so `!=` conditions and
  // their refinement rules take part.
  const size_t n = 300;
  random::Rng rng(31);
  data::DataTable table;
  for (int j = 0; j < 4; ++j) {
    std::vector<std::string> labels(n);
    for (std::string& label : labels) {
      label = std::string(1, char('a' + rng.UniformInt(0, 3 + j)));
    }
    table
        .AddColumn(data::Column::CategoricalFromStrings(
            "cat" + std::to_string(j), labels))
        .CheckOK();
  }
  const ConditionPool categorical_pool =
      ConditionPool::Build(table, 4, /*include_exclusions=*/true);

  for (int threads : {1, 4}) {
    SCOPED_TRACE("threads " + std::to_string(threads));
    SearchConfig crime_config;
    crime_config.max_depth = 4;
    crime_config.min_coverage = 10;
    crime_config.num_threads = threads;
    SiLocationEvaluator si(model.Value(), crime.dataset.targets,
                           si::DescriptionLengthParams());
    ExpectGenerationMatchesNaive(crime.dataset.descriptions, crime_pool,
                                 crime_config, si);

    SearchConfig categorical_config;
    categorical_config.beam_width = 12;
    categorical_config.max_depth = 4;
    categorical_config.include_exclusions = true;
    categorical_config.max_coverage_fraction = 0.6;
    categorical_config.num_threads = threads;
    BumpyEvaluator bumpy;
    ExpectGenerationMatchesNaive(table, categorical_pool,
                                 categorical_config, bumpy);
  }
}

TEST(BeamSearchTest, FindsPlantedSubgroupWithOracleQuality) {
  const std::vector<size_t> planted{3, 7, 11, 15, 19};
  const data::DataTable table = MakePlantedTable(50, planted, 1);
  const ConditionPool pool = ConditionPool::Build(table, 4);
  const pattern::Extension target =
      pattern::Extension::FromRows(50, planted);

  SearchConfig config;
  // Quality: overlap with the planted extension minus size penalty.
  QualityFunction quality = [&target](const pattern::Intention&,
                                      const pattern::Extension& ext) {
    const double overlap =
        double(pattern::Extension::IntersectionCount(target, ext));
    return 2.0 * overlap - double(ext.count());
  };
  const SearchResult result = CallbackBeamSearch(table, pool, config, quality);
  ASSERT_FALSE(result.top.empty());
  EXPECT_EQ(result.best().extension, target);
  EXPECT_EQ(result.best().intention.size(), 1u);
  EXPECT_DOUBLE_EQ(result.best().quality, 5.0);
}

TEST(BeamSearchTest, RespectsMinCoverage) {
  const data::DataTable table = MakePlantedTable(50, {1, 2, 3}, 2);
  const ConditionPool pool = ConditionPool::Build(table, 4);
  SearchConfig config;
  config.min_coverage = 10;
  QualityFunction quality = [](const pattern::Intention&,
                               const pattern::Extension& ext) {
    return -double(ext.count());  // prefer tiny subgroups
  };
  const SearchResult result = CallbackBeamSearch(table, pool, config, quality);
  for (const ScoredSubgroup& sg : result.top) {
    EXPECT_GE(sg.extension.count(), 10u);
  }
}

TEST(BeamSearchTest, RespectsMaxCoverageFraction) {
  const data::DataTable table = MakePlantedTable(50, {1, 2, 3}, 3);
  const ConditionPool pool = ConditionPool::Build(table, 4);
  SearchConfig config;
  config.max_coverage_fraction = 0.5;
  QualityFunction quality = [](const pattern::Intention&,
                               const pattern::Extension& ext) {
    return double(ext.count());  // prefer big subgroups
  };
  const SearchResult result = CallbackBeamSearch(table, pool, config, quality);
  for (const ScoredSubgroup& sg : result.top) {
    EXPECT_LE(sg.extension.count(), 25u);
  }
}

TEST(BeamSearchTest, RespectsMaxDepth) {
  const data::DataTable table = MakePlantedTable(60, {1, 2, 3, 4}, 4);
  const ConditionPool pool = ConditionPool::Build(table, 4);
  SearchConfig config;
  config.max_depth = 2;
  QualityFunction quality = [](const pattern::Intention& intent,
                               const pattern::Extension& ext) {
    if (ext.empty()) return -std::numeric_limits<double>::infinity();
    return double(intent.size());  // reward longer intentions
  };
  const SearchResult result = CallbackBeamSearch(table, pool, config, quality);
  for (const ScoredSubgroup& sg : result.top) {
    EXPECT_LE(sg.intention.size(), 2u);
  }
  EXPECT_EQ(result.best().intention.size(), 2u);
}

TEST(BeamSearchTest, DeduplicatesPermutedIntentions) {
  const data::DataTable table = MakePlantedTable(60, {1, 2, 3, 4}, 5);
  const ConditionPool pool = ConditionPool::Build(table, 4);
  SearchConfig config;
  config.max_depth = 2;
  config.top_k = 1000;
  QualityFunction quality = [](const pattern::Intention&,
                               const pattern::Extension& ext) {
    return double(ext.count());
  };
  const SearchResult result = CallbackBeamSearch(table, pool, config, quality);
  std::set<std::string> signatures;
  for (const ScoredSubgroup& sg : result.top) {
    EXPECT_TRUE(
        signatures.insert(sg.intention.CanonicalSignature()).second)
        << "duplicate intention in result list";
  }
}

TEST(BeamSearchTest, NeverPairsSameAttributeSameOp) {
  const data::DataTable table = MakePlantedTable(60, {1, 2, 3, 4}, 6);
  const ConditionPool pool = ConditionPool::Build(table, 4);
  SearchConfig config;
  config.top_k = 500;
  QualityFunction quality = [](const pattern::Intention&,
                               const pattern::Extension& ext) {
    return double(ext.count());
  };
  const SearchResult result = CallbackBeamSearch(table, pool, config, quality);
  for (const ScoredSubgroup& sg : result.top) {
    for (size_t a = 0; a < sg.intention.size(); ++a) {
      for (size_t b = a + 1; b < sg.intention.size(); ++b) {
        const auto& ca = sg.intention.conditions()[a];
        const auto& cb = sg.intention.conditions()[b];
        EXPECT_FALSE(ca.attribute == cb.attribute && ca.op == cb.op);
      }
    }
  }
}

TEST(BeamSearchTest, RejectedCandidatesNeverAppear) {
  const data::DataTable table = MakePlantedTable(40, {0, 1}, 7);
  const ConditionPool pool = ConditionPool::Build(table, 4);
  SearchConfig config;
  QualityFunction quality = [](const pattern::Intention& intent,
                               const pattern::Extension&) {
    // Reject everything mentioning attribute 0.
    if (intent.ConstrainsAttribute(0)) {
      return -std::numeric_limits<double>::infinity();
    }
    return 1.0;
  };
  const SearchResult result = CallbackBeamSearch(table, pool, config, quality);
  for (const ScoredSubgroup& sg : result.top) {
    EXPECT_FALSE(sg.intention.ConstrainsAttribute(0));
  }
}

TEST(BeamSearchTest, TimeBudgetStopsSearch) {
  // Large-ish search with a zero budget: must stop immediately but cleanly.
  const data::DataTable table = MakePlantedTable(200, {1, 2, 3}, 8);
  const ConditionPool pool = ConditionPool::Build(table, 4);
  SearchConfig config;
  config.time_budget_seconds = 0.0;
  QualityFunction quality = [](const pattern::Intention&,
                               const pattern::Extension& ext) {
    return double(ext.count());
  };
  const SearchResult result = CallbackBeamSearch(table, pool, config, quality);
  EXPECT_TRUE(result.hit_time_budget);
}

TEST(BeamSearchTest, ZeroMinCoverageNeverYieldsEmptyExtensions) {
  const data::DataTable table = MakePlantedTable(30, {0, 1, 2}, 21);
  const ConditionPool pool = ConditionPool::Build(table, 4);
  SearchConfig config;
  config.min_coverage = 0;  // clamped to 1 internally
  QualityFunction quality = [](const pattern::Intention&,
                               const pattern::Extension& ext) {
    // Would die on an empty extension; the search must never pass one.
    SISD_CHECK(!ext.empty());
    return 1.0;
  };
  const SearchResult result = CallbackBeamSearch(table, pool, config, quality);
  for (const ScoredSubgroup& sg : result.top) {
    EXPECT_GE(sg.extension.count(), 1u);
  }
}

TEST(BeamSearchTest, CountsEvaluations) {
  const data::DataTable table = MakePlantedTable(30, {0, 1, 2}, 9);
  const ConditionPool pool = ConditionPool::Build(table, 4);
  SearchConfig config;
  config.max_depth = 1;
  QualityFunction quality = [](const pattern::Intention&,
                               const pattern::Extension&) { return 1.0; };
  const SearchResult result = CallbackBeamSearch(table, pool, config, quality);
  EXPECT_EQ(result.num_evaluated, pool.size());
}

TEST(BeamSearchTest, RecoversSetExclusionPattern) {
  // A 4-level categorical attribute where the interesting subgroup is
  // "everything except level 'd'": only expressible as an exclusion (or a
  // deeper disjunction the language does not have).
  const size_t n = 80;
  std::vector<std::string> levels(n);
  for (size_t i = 0; i < n; ++i) {
    levels[i] = (i % 4 == 3) ? "d" : std::string(1, char('a' + i % 4));
  }
  data::DataTable table;
  table.AddColumn(data::Column::CategoricalFromStrings("cat", levels))
      .CheckOK();
  const ConditionPool pool =
      ConditionPool::Build(table, 4, /*include_exclusions=*/true);

  // Quality: reward covering exactly the non-'d' rows.
  pattern::Extension target(n);
  for (size_t i = 0; i < n; ++i) {
    if (levels[i] != "d") target.Insert(i);
  }
  QualityFunction quality = [&target](const pattern::Intention&,
                                      const pattern::Extension& ext) {
    const double overlap =
        double(pattern::Extension::IntersectionCount(target, ext));
    return 2.0 * overlap - double(ext.count());
  };
  SearchConfig config;
  const SearchResult result = CallbackBeamSearch(table, pool, config, quality);
  ASSERT_FALSE(result.top.empty());
  EXPECT_EQ(result.best().extension, target);
  ASSERT_EQ(result.best().intention.size(), 1u);
  EXPECT_EQ(result.best().intention.conditions()[0].op,
            pattern::ConditionOp::kNotEquals);
}

TEST(BeamSearchTest, BeamWidthLimitsExploration) {
  const data::DataTable table = MakePlantedTable(100, {1, 2, 3, 4, 5}, 10);
  const ConditionPool pool = ConditionPool::Build(table, 4);
  SearchConfig narrow;
  narrow.beam_width = 1;
  SearchConfig wide;
  wide.beam_width = 40;
  QualityFunction quality = [](const pattern::Intention&,
                               const pattern::Extension& ext) {
    return double(ext.count() % 17);  // bumpy landscape
  };
  const SearchResult narrow_result =
      CallbackBeamSearch(table, pool, narrow, quality);
  const SearchResult wide_result =
      CallbackBeamSearch(table, pool, wide, quality);
  EXPECT_LE(narrow_result.num_evaluated, wide_result.num_evaluated);
  EXPECT_GE(wide_result.best().quality, narrow_result.best().quality);
}

}  // namespace
}  // namespace sisd::search
