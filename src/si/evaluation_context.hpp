/// \file evaluation_context.hpp
/// \brief Allocation-free SI scoring context for the batch evaluation
/// engine.
///
/// Beam search evaluates tens of thousands of candidate subgroups per level
/// (paper §IV). Scoring a candidate through the plain free functions in
/// interestingness.hpp heap-allocates a subgroup-mean vector, a per-group
/// count vector and — once the model has several parameter groups — a fresh
/// Cholesky factorization of the mean-statistic covariance. An
/// `EvaluationContext` owns reusable scratch buffers and a cache of marginal
/// factorizations keyed by the per-group count signature, so repeated
/// scoring is free of per-candidate heap allocations (the cache allocates
/// only on a signature miss).
///
/// Every statistic is computed over a virtual intersection `a & b`; a
/// caller holding one materialized extension `e` passes `(e, e, e.count())`
/// (`e & e = e`, so counts and lane-contract sums are unchanged).
///
/// A context is bound to one immutable model snapshot. It is NOT
/// thread-safe; parallel scoring uses one context per worker thread (the
/// scored values are identical regardless of which context computes them,
/// which is what makes multi-threaded search bit-deterministic).

#ifndef SISD_SI_EVALUATION_CONTEXT_HPP_
#define SISD_SI_EVALUATION_CONTEXT_HPP_

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "kernels/kernels.hpp"
#include "linalg/cholesky.hpp"
#include "linalg/matrix.hpp"
#include "linalg/vector.hpp"
#include "model/background_model.hpp"
#include "pattern/extension.hpp"
#include "pattern/patterns.hpp"
#include "si/interestingness.hpp"

namespace sisd::si {

/// \brief Reusable scratch + marginal-factorization cache for location-SI
/// scoring against one background-model snapshot.
class EvaluationContext {
 public:
  /// Binds the context to `model` (kept by reference; must outlive the
  /// context and not be mutated while the context is in use). `targets`
  /// (may be null) enables the subgroup-mean kernels. Warms the model's
  /// per-group Cholesky caches so later reads are const and thread-safe.
  explicit EvaluationContext(const model::BackgroundModel& model,
                             const linalg::Matrix* targets = nullptr);

  EvaluationContext(const EvaluationContext&) = delete;
  EvaluationContext& operator=(const EvaluationContext&) = delete;
  EvaluationContext(EvaluationContext&&) = default;
  EvaluationContext& operator=(EvaluationContext&&) = default;

  /// The bound model snapshot.
  const model::BackgroundModel& model() const { return *model_; }

  /// IC of a location pattern (Eq. 13) over the virtual extension `a & b`
  /// with `count = |a & b| > 0`, computed with fused masked popcounts
  /// (nothing materialized, no per-call allocation). A caller holding a
  /// materialized extension `e` passes `(e, e, e.count())`; the free
  /// function `si::LocationIC` does exactly that.
  double LocationICMasked(const pattern::Extension& a,
                          const pattern::Extension& b, size_t count,
                          const linalg::Vector& empirical_mean);

  /// Full (IC, DL, SI) score over the virtual extension `a & b`; the free
  /// function `si::ScoreLocation` is this with `(e, e, e.count())`.
  LocationScore ScoreLocationMasked(const pattern::Extension& a,
                                    const pattern::Extension& b, size_t count,
                                    const linalg::Vector& empirical_mean,
                                    size_t num_conditions,
                                    const DescriptionLengthParams& params);

  /// Empirical mean over `a & b` into `*out` (requires `targets`).
  void MaskedSubgroupMeanInto(const pattern::Extension& a,
                              const pattern::Extension& b, size_t count,
                              linalg::Vector* out) const;

  /// Fused count + sum + sum-of-squares over the virtual extension `a & b`
  /// for univariate targets (requires `targets` with one column). A single
  /// pass over the target column; `.sum` is bit-identical to the sum the
  /// masked subgroup-mean path computes (same lane-contract kernel). For
  /// callers that do not know `|a & b|` yet (the optimal search's coverage
  /// filter); a caller that already holds the count uses the sum-only
  /// `MaskedSubgroupMeanInto` instead.
  kernels::MaskedMoments MaskedTargetMomentsAnd(
      const pattern::Extension& a, const pattern::Extension& b) const;

  /// True iff the bound targets are a single contiguous column, enabling
  /// the fused `MaskedTargetMomentsAnd` fast path.
  bool has_univariate_targets() const {
    return targets_ != nullptr && targets_->cols() == 1;
  }

  /// Scratch mean buffer callers may use between scoring calls (the scoring
  /// methods never touch it).
  linalg::Vector* scratch_mean() { return &scratch_mean_; }

  /// Number of cached marginal factorizations (diagnostics).
  size_t marginal_cache_size() const { return marginal_cache_.size(); }

 private:
  /// Marginal of the mean statistic for one per-group count signature:
  /// mean, Cholesky factor of the covariance, and its log-determinant.
  struct MarginalEntry {
    linalg::Vector mean;
    linalg::Cholesky chol;
    double logdet = 0.0;
  };

  struct CountsHash {
    size_t operator()(const std::vector<size_t>& counts) const {
      size_t h = 1469598103934665603ull;
      for (size_t c : counts) {
        h ^= c;
        h *= 1099511628211ull;
      }
      return h;
    }
  };

  /// IC from the per-group counts currently in `counts_` (sum = `total`).
  double ICFromCounts(size_t total, const linalg::Vector& empirical_mean);

  /// Cached marginal for the signature in `counts_` (computed on miss).
  const MarginalEntry& MarginalForCounts(double size);

  const model::BackgroundModel* model_;
  const linalg::Matrix* targets_;

  std::vector<size_t> counts_;  ///< per-group count scratch
  linalg::Vector diff_;         ///< mean-offset scratch (dy)
  linalg::Vector fsolve_;       ///< forward-solve scratch (dy)
  linalg::Vector scratch_mean_;  ///< caller-visible mean buffer (dy)

  /// Multi-group marginals keyed by the per-group count signature. The
  /// group-count signature fully determines the marginal (mean and
  /// covariance are count-weighted sums of the group parameters), so one
  /// factorization serves every candidate sharing the signature.
  std::unordered_map<std::vector<size_t>, MarginalEntry, CountsHash>
      marginal_cache_;
};

}  // namespace sisd::si

#endif  // SISD_SI_EVALUATION_CONTEXT_HPP_
