#include "si/evaluation_context.hpp"

#include <cmath>

namespace sisd::si {

namespace {

constexpr double kLog2Pi = 1.8378770664093453;

/// Cache-size backstop: signatures are data-dependent and in pathological
/// cases unbounded; dropping the cache merely costs recomputation.
constexpr size_t kMaxMarginalCacheEntries = 1u << 16;

}  // namespace

EvaluationContext::EvaluationContext(const model::BackgroundModel& model,
                                     const linalg::Matrix* targets)
    : model_(&model),
      targets_(targets),
      diff_(model.dim()),
      fsolve_(model.dim()),
      scratch_mean_(model.dim()) {
  counts_.reserve(model.num_groups() + 8);
  model.WarmGroupCaches();
}

double EvaluationContext::LocationICMasked(
    const pattern::Extension& a, const pattern::Extension& b, size_t count,
    const linalg::Vector& empirical_mean) {
  SISD_CHECK(count > 0);
  if (model_->num_groups() == 1) {
    counts_.assign(1, count);
  } else {
    model_->GroupCountsMaskedInto(a, b, &counts_);
  }
  return ICFromCounts(count, empirical_mean);
}

LocationScore EvaluationContext::ScoreLocationMasked(
    const pattern::Extension& a, const pattern::Extension& b, size_t count,
    const linalg::Vector& empirical_mean, size_t num_conditions,
    const DescriptionLengthParams& params) {
  return LocationScoreFromIC(LocationICMasked(a, b, count, empirical_mean),
                             num_conditions, params);
}

void EvaluationContext::MaskedSubgroupMeanInto(const pattern::Extension& a,
                                               const pattern::Extension& b,
                                               size_t count,
                                               linalg::Vector* out) const {
  SISD_CHECK(targets_ != nullptr);
  pattern::MaskedSubgroupMeanInto(*targets_, a, b, count, out);
}

kernels::MaskedMoments EvaluationContext::MaskedTargetMomentsAnd(
    const pattern::Extension& a, const pattern::Extension& b) const {
  SISD_CHECK(targets_ != nullptr);
  SISD_CHECK(targets_->cols() == 1);
  SISD_CHECK(a.universe_size() == targets_->rows());
  SISD_CHECK(a.universe_size() == b.universe_size());
  a.DebugCheckTailMasked();
  b.DebugCheckTailMasked();
  return kernels::MaskedMomentsAnd(targets_->RowData(0), a.blocks().data(),
                                   b.blocks().data(), a.blocks().size());
}

double EvaluationContext::ICFromCounts(size_t total,
                                       const linalg::Vector& empirical_mean) {
  const size_t dy = model_->dim();
  const double size = double(total);

  size_t single_group = 0;
  size_t groups_hit = 0;
  for (size_t g = 0; g < counts_.size(); ++g) {
    if (counts_[g] > 0) {
      ++groups_hit;
      single_group = g;
    }
  }
  SISD_CHECK(groups_hit > 0);

  if (groups_hit == 1) {
    // Sigma_I = Sigma_g / |I|  =>  logdet = logdet(Sigma_g) - dy*log|I|,
    // and (x)'(Sigma_g/|I|)^{-1}(x) = |I| * x' Sigma_g^{-1} x.
    diff_.AssignDifference(empirical_mean, model_->group(single_group).mu);
    const double quad =
        size *
        model_->GroupCholesky(single_group).InverseQuadraticForm(diff_,
                                                                 &fsolve_);
    const double logdet =
        model_->GroupLogDetSigma(single_group) - double(dy) * std::log(size);
    return 0.5 * (double(dy) * kLog2Pi + logdet) + 0.5 * quad;
  }

  const MarginalEntry& marginal = MarginalForCounts(size);
  diff_.AssignDifference(empirical_mean, marginal.mean);
  return 0.5 * (double(dy) * kLog2Pi + marginal.logdet) +
         0.5 * marginal.chol.InverseQuadraticForm(diff_, &fsolve_);
}

const EvaluationContext::MarginalEntry& EvaluationContext::MarginalForCounts(
    double size) {
  const auto it = marginal_cache_.find(counts_);
  if (it != marginal_cache_.end()) return it->second;

  model::MeanStatisticMarginal marginal =
      model_->MeanStatMarginalFromCounts(counts_, size);
  Result<linalg::Cholesky> chol = linalg::Cholesky::Compute(marginal.cov);
  chol.status().CheckOK();
  MarginalEntry entry{std::move(marginal.mean),
                      std::move(chol).MoveValue(), 0.0};
  entry.logdet = entry.chol.LogDeterminant();

  if (marginal_cache_.size() >= kMaxMarginalCacheEntries) {
    marginal_cache_.clear();
  }
  return marginal_cache_.emplace(counts_, std::move(entry)).first->second;
}

}  // namespace sisd::si
