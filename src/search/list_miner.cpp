#include "search/list_miner.hpp"

#include <algorithm>
#include <cstdint>
#include <limits>
#include <utility>

#include "kernels/kernels.hpp"
#include "pattern/patterns.hpp"
#include "search/batch_evaluator.hpp"

namespace sisd::search {

namespace {

constexpr double kNegInf = -std::numeric_limits<double>::infinity();
constexpr uint32_t kNoParent = std::numeric_limits<uint32_t>::max();

/// The target matrix is row-major, so its columns are strided; the moment
/// kernels need one contiguous double per row. Copied once per call.
std::vector<std::vector<double>> CopyTargetColumns(
    const linalg::Matrix& targets) {
  std::vector<std::vector<double>> columns(targets.cols());
  for (size_t j = 0; j < targets.cols(); ++j) {
    columns[j].resize(targets.rows());
    for (size_t i = 0; i < targets.rows(); ++i) {
      columns[j][i] = targets(i, j);
    }
  }
  return columns;
}

/// Per-column moments of the materialized `rows` (passed to the fused
/// kernel as `rows & rows`), with the local normal model fitted to them
/// written into `*model`. Returns the moments for callers that also score
/// the rows.
std::vector<kernels::MaskedMoments> FitLocalModel(
    const std::vector<std::vector<double>>& columns,
    const pattern::Extension& rows, double variance_floor,
    si::LocalNormalModel* model) {
  std::vector<kernels::MaskedMoments> moments(columns.size());
  const uint64_t* blocks = rows.blocks().data();
  const size_t num_blocks = rows.blocks().size();
  for (size_t j = 0; j < columns.size(); ++j) {
    moments[j] = kernels::MaskedMomentsAnd(columns[j].data(), blocks, blocks,
                                           num_blocks);
  }
  si::FitLocalNormalModel(moments.data(), moments.size(), variance_floor,
                          model);
  return moments;
}

/// Engine evaluator: scores a candidate by the list gain of the rows it
/// would newly capture, through the fused masked-moments kernel — the
/// captured set `parent & uncovered & condition` is never materialized
/// (the per-worker scratch holds `parent & uncovered`, reused across the
/// consecutive candidates sharing a parent). The kernel lane contract
/// makes masked lanes unobservable, so these fused moments are bit-equal
/// to moments over the materialized captured bitset — the property the
/// naive oracle (reference/naive_list_miner.hpp) checks differentially.
class ListGainEvaluator final : public BatchEvaluator {
 public:
  ListGainEvaluator(const std::vector<std::vector<double>>& columns,
                    const pattern::Extension& uncovered,
                    const si::LocalNormalModel& default_model,
                    const si::ListGainParams& params, size_t min_captured)
      : columns_(&columns),
        uncovered_(&uncovered),
        default_(&default_model),
        params_(params),
        min_captured_(min_captured) {}

  bool SupportsParallelScoring() const override { return true; }

  void Prepare(size_t num_workers) override {
    workers_.resize(num_workers);
    for (Worker& w : workers_) w.moments.resize(columns_->size());
  }

  void ScoreChunk(const CandidateBatch& batch, size_t begin, size_t end,
                  size_t worker, double* scores) override {
    Worker& w = workers_[worker];
    const size_t dy = columns_->size();
    uint32_t cached_parent = kNoParent;
    for (size_t i = begin; i < end; ++i) {
      const CandidateBatch::Item& item = batch.items[i];
      if (item.parent != cached_parent) {
        pattern::Extension::IntersectInto(batch.parent_extension(item),
                                          *uncovered_, &w.scratch);
        cached_parent = item.parent;
      }
      const pattern::Extension& condition = batch.condition_extension(item);
      const uint64_t* a = w.scratch.blocks().data();
      const uint64_t* b = condition.blocks().data();
      const size_t num_blocks = w.scratch.blocks().size();
      double score = kNegInf;
      if (dy > 0) {
        bool accepted = true;
        for (size_t j = 0; j < dy; ++j) {
          w.moments[j] =
              kernels::MaskedMomentsAnd((*columns_)[j].data(), a, b,
                                        num_blocks);
          if (j == 0 && w.moments[0].count < min_captured_) {
            accepted = false;
            break;
          }
        }
        if (accepted) {
          score = si::ListGainFromMoments(w.moments.data(), dy, *default_,
                                          batch.depth, params_);
        }
      }
      scores[i] = score;
    }
  }

 private:
  struct Worker {
    pattern::Extension scratch{0};  ///< parent & uncovered
    std::vector<kernels::MaskedMoments> moments;
  };

  const std::vector<std::vector<double>>* columns_;
  const pattern::Extension* uncovered_;
  const si::LocalNormalModel* default_;
  si::ListGainParams params_;
  size_t min_captured_;
  std::vector<Worker> workers_;
};

}  // namespace

SubgroupList MakeEmptySubgroupList(const linalg::Matrix& targets,
                                   const si::ListGainParams& gain) {
  SubgroupList list;
  const size_t n = targets.rows();
  const size_t dy = targets.cols();
  list.uncovered = pattern::Extension(n, /*full=*/true);
  if (n == 0 || dy == 0) {
    list.default_model.mean = linalg::Vector(dy);
    list.default_model.variance = linalg::Vector(dy, gain.variance_floor);
    return list;
  }
  FitLocalModel(CopyTargetColumns(targets), list.uncovered,
                gain.variance_floor, &list.default_model);
  return list;
}

ListMineStats ExtendSubgroupList(const data::DataTable& table,
                                 const linalg::Matrix& targets,
                                 const ConditionPool& pool,
                                 const ListSearchConfig& config,
                                 SubgroupList* list,
                                 ThreadPool* shared_workers) {
  SISD_CHECK(list != nullptr);
  ListMineStats stats;
  const std::vector<std::vector<double>> columns = CopyTargetColumns(targets);
  const size_t min_captured = std::max<size_t>(1, config.min_captured);
  const size_t max_rules = size_t(std::max(1, config.max_rules));

  while (stats.rules_appended < max_rules) {
    if (list->uncovered.count() < min_captured) {
      stats.exhausted = true;
      break;
    }
    ListGainEvaluator evaluator(columns, list->uncovered,
                                list->default_model, config.gain,
                                min_captured);
    const SearchResult result =
        BeamSearch(table, pool, config.search, evaluator, shared_workers);
    stats.num_evaluated += result.num_evaluated;
    stats.hit_time_budget = stats.hit_time_budget || result.hit_time_budget;
    // Stop when nothing compresses: a rule with gain <= 0 would make the
    // encoding longer, so the greedy list is complete.
    if (result.top.empty() || !(result.best().quality > 0.0)) {
      stats.exhausted = true;
      break;
    }

    const ScoredSubgroup& best = result.best();
    SubgroupRule rule;
    rule.intention = best.intention;
    rule.extension = best.extension;
    rule.captured =
        pattern::Extension::Intersect(best.extension, list->uncovered);
    FitLocalModel(columns, rule.captured, config.gain.variance_floor,
                  &rule.local);
    rule.gain = best.quality;
    ReplaySubgroupRule(std::move(rule), list);
    ++stats.rules_appended;
  }
  return stats;
}

void ReplaySubgroupRule(SubgroupRule rule, SubgroupList* list) {
  SISD_CHECK(list != nullptr);
  pattern::Extension keep = rule.extension;
  keep.Complement();
  list->uncovered.IntersectWith(keep);
  list->total_gain += rule.gain;
  list->rules.push_back(std::move(rule));
}

Result<SubgroupRule> RederiveSubgroupRule(const data::DataTable& table,
                                          const linalg::Matrix& targets,
                                          const si::ListGainParams& gain,
                                          const pattern::Intention& intention,
                                          const SubgroupList& list) {
  pattern::Subgroup subgroup =
      pattern::Subgroup::FromIntention(table, intention);
  SubgroupRule rule;
  rule.intention = intention;
  rule.extension = std::move(subgroup.extension);
  rule.captured =
      pattern::Extension::Intersect(rule.extension, list.uncovered);
  if (rule.captured.empty()) {
    return Status::InvalidArgument(
        "rule captures no uncovered rows on this data");
  }
  // Same moments → fit → gain arithmetic the miner runs at append time
  // (kernel lane contract: self-masked moments equal materialized ones).
  const std::vector<kernels::MaskedMoments> moments =
      FitLocalModel(CopyTargetColumns(targets), rule.captured,
                    gain.variance_floor, &rule.local);
  rule.gain = si::ListGainFromMoments(moments.data(), moments.size(),
                                      list.default_model, intention.size(),
                                      gain);
  return rule;
}

}  // namespace sisd::search
