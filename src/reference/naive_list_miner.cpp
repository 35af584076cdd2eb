#include "reference/naive_list_miner.hpp"

#include <algorithm>
#include <limits>
#include <vector>

#include "kernels/kernels.hpp"
#include "search/batch_evaluator.hpp"

namespace sisd::reference {

namespace {

constexpr double kNegInf = -std::numeric_limits<double>::infinity();

/// Scores a candidate by the list gain of the rows it would newly capture,
/// computed on the materialized `candidate & uncovered` bitset.
class NaiveListGainEvaluator final : public search::BatchEvaluator {
 public:
  NaiveListGainEvaluator(const std::vector<std::vector<double>>& columns,
                         const pattern::Extension& uncovered,
                         const si::LocalNormalModel& default_model,
                         const si::ListGainParams& params,
                         size_t min_captured)
      : columns_(&columns),
        uncovered_(&uncovered),
        default_(&default_model),
        params_(params),
        min_captured_(min_captured) {}

  void ScoreChunk(const search::CandidateBatch& batch, size_t begin,
                  size_t end, size_t /*worker*/, double* scores) override {
    const size_t dy = columns_->size();
    for (size_t i = begin; i < end; ++i) {
      const search::CandidateBatch::Item& item = batch.items[i];
      const pattern::Extension candidate = pattern::Extension::Intersect(
          batch.parent_extension(item), batch.condition_extension(item));
      const pattern::Extension captured =
          pattern::Extension::Intersect(candidate, *uncovered_);
      if (dy == 0 || captured.count() < min_captured_) {
        scores[i] = kNegInf;
        continue;
      }
      std::vector<kernels::MaskedMoments> moments(dy);
      const uint64_t* blocks = captured.blocks().data();
      const size_t num_blocks = captured.blocks().size();
      for (size_t j = 0; j < dy; ++j) {
        moments[j] = kernels::MaskedMomentsAnd((*columns_)[j].data(), blocks,
                                               blocks, num_blocks);
      }
      scores[i] = si::ListGainFromMoments(moments.data(), dy, *default_,
                                          batch.depth, params_);
    }
  }

 private:
  const std::vector<std::vector<double>>* columns_;
  const pattern::Extension* uncovered_;
  const si::LocalNormalModel* default_;
  si::ListGainParams params_;
  size_t min_captured_;
};

}  // namespace

search::ListMineStats ExtendSubgroupListNaive(
    const data::DataTable& table, const linalg::Matrix& targets,
    const search::ConditionPool& pool, const search::ListSearchConfig& config,
    search::SubgroupList* list) {
  SISD_CHECK(list != nullptr);
  std::vector<std::vector<double>> columns(targets.cols());
  for (size_t j = 0; j < targets.cols(); ++j) {
    for (size_t i = 0; i < targets.rows(); ++i) {
      columns[j].push_back(targets(i, j));
    }
  }
  const size_t min_captured = std::max<size_t>(1, config.min_captured);
  const size_t max_rules = size_t(std::max(1, config.max_rules));

  search::ListMineStats stats;
  while (stats.rules_appended < max_rules) {
    if (list->uncovered.count() < min_captured) {
      stats.exhausted = true;
      break;
    }
    NaiveListGainEvaluator evaluator(columns, list->uncovered,
                                     list->default_model, config.gain,
                                     min_captured);
    const search::SearchResult result =
        search::BeamSearch(table, pool, config.search, evaluator);
    stats.num_evaluated += result.num_evaluated;
    stats.hit_time_budget = stats.hit_time_budget || result.hit_time_budget;
    if (result.top.empty() || !(result.best().quality > 0.0)) {
      stats.exhausted = true;
      break;
    }
    search::ReplaySubgroupRule(
        search::RederiveSubgroupRule(table, targets, config.gain,
                                     result.best().intention, *list)
            .MoveValue(),
        list);
    ++stats.rules_appended;
  }
  return stats;
}

}  // namespace sisd::reference
