#include "reference/callback_beam_search.hpp"

#include <vector>

#include "pattern/patterns.hpp"
#include "search/batch_evaluator.hpp"

namespace sisd::reference {

namespace {

/// Scores each candidate through the callback: materializes the extension
/// and rebuilds the intention per candidate (what the batch protocol exists
/// to avoid), and declines parallel scoring.
class CallbackEvaluator final : public search::BatchEvaluator {
 public:
  explicit CallbackEvaluator(const QualityFunction& quality)
      : quality_(&quality) {}

  void ScoreChunk(const search::CandidateBatch& batch, size_t begin,
                  size_t end, size_t /*worker*/, double* scores) override {
    for (size_t i = begin; i < end; ++i) {
      const search::CandidateBatch::Item& item = batch.items[i];
      const pattern::Extension extension = pattern::Extension::Intersect(
          batch.parent_extension(item), batch.condition_extension(item));
      std::vector<pattern::Condition> conditions;
      for (uint32_t id : batch.ids_of(i)) {
        conditions.push_back(batch.pool->condition(id));
      }
      scores[i] =
          (*quality_)(pattern::Intention(std::move(conditions)), extension);
    }
  }

 private:
  const QualityFunction* quality_;
};

}  // namespace

QualityFunction SiLocationQuality(const model::BackgroundModel& model,
                                  const linalg::Matrix& y,
                                  const si::DescriptionLengthParams& dl) {
  return [model = &model, y = &y, dl](const pattern::Intention& intention,
                                      const pattern::Extension& extension) {
    const linalg::Vector mean = pattern::SubgroupMean(*y, extension);
    return si::ScoreLocation(*model, extension, mean, intention.size(), dl)
        .si;
  };
}

search::SearchResult CallbackBeamSearch(const data::DataTable& table,
                                        const search::ConditionPool& pool,
                                        const search::SearchConfig& config,
                                        const QualityFunction& quality) {
  CallbackEvaluator evaluator(quality);
  return search::BeamSearch(table, pool, config, evaluator);
}

}  // namespace sisd::reference
