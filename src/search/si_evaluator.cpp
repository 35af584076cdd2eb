#include "search/si_evaluator.hpp"

namespace sisd::search {

SiLocationEvaluator::SiLocationEvaluator(const model::BackgroundModel& model,
                                         const linalg::Matrix& targets,
                                         si::DescriptionLengthParams dl)
    : model_(&model), targets_(&targets), dl_(dl) {
  // One context exists from the start so ScoreSubgroup works without a
  // search having run. Context construction warms the model's per-group
  // Cholesky caches, making later concurrent reads safe.
  contexts_.emplace_back(*model_, targets_);
}

void SiLocationEvaluator::Prepare(size_t num_workers) {
  while (contexts_.size() < num_workers) {
    contexts_.emplace_back(*model_, targets_);
  }
}

void SiLocationEvaluator::ScoreChunk(const CandidateBatch& batch,
                                     size_t begin, size_t end, size_t worker,
                                     double* scores) {
  SISD_DCHECK(worker < contexts_.size());
  si::EvaluationContext& context = contexts_[worker];
  linalg::Vector& mean = *context.scratch_mean();
  for (size_t i = begin; i < end; ++i) {
    const CandidateBatch::Item& item = batch.items[i];
    const pattern::Extension& parent = batch.parent_extension(item);
    const pattern::Extension& condition = batch.condition_extension(item);
    // Candidate generation already counted `parent & condition`, so the
    // mean is a sum-only pass over the intersection.
    SISD_DCHECK(pattern::Extension::IntersectionCount(parent, condition) ==
                item.count);
    context.MaskedSubgroupMeanInto(parent, condition, item.count, &mean);
    scores[i] = context
                    .ScoreLocationMasked(parent, condition, item.count, mean,
                                         batch.depth, dl_)
                    .si;
  }
  num_batch_scored_.fetch_add(end - begin, std::memory_order_relaxed);
}

si::LocationScore SiLocationEvaluator::ScoreSubgroup(
    const pattern::Extension& extension, const linalg::Vector& empirical_mean,
    size_t num_conditions) {
  return contexts_.front().ScoreLocationMasked(extension, extension,
                                               extension.count(),
                                               empirical_mean, num_conditions,
                                               dl_);
}

}  // namespace sisd::search
