/// \file exhaustive_search.hpp
/// \brief Depth-first exhaustive enumeration of conjunctions with optional
/// branch-and-bound pruning — the paper's stated future work ("it may be
/// feasible to devise a branch-and-bound approach to mine optimal location
/// patterns efficiently", §V), in the style of the tight optimistic
/// estimators of Boley et al. (ECML-PKDD 2017).
///
/// The search enumerates every condition set (canonical increasing pool
/// order, same per-attribute constraints as the beam search) up to
/// `max_depth`, so its result is the *global* optimum over the description
/// language — the ground truth the heuristic beam search can be measured
/// against. With an optimistic bound it prunes subtrees that provably
/// cannot beat the incumbent.
///
/// This sequential callback DFS is the oracle of the production
/// branch-and-bound (search/optimal_search.hpp): `optimal_search_test`
/// holds the two to the same optimum on every scenario.

#ifndef SISD_REFERENCE_EXHAUSTIVE_SEARCH_HPP_
#define SISD_REFERENCE_EXHAUSTIVE_SEARCH_HPP_

#include <functional>
#include <limits>
#include <optional>

#include "data/table.hpp"
#include "model/background_model.hpp"
#include "reference/callback_beam_search.hpp"
#include "search/beam_search.hpp"
#include "search/condition_pool.hpp"
#include "si/interestingness.hpp"

namespace sisd::reference {

/// \brief Settings for the exhaustive search.
struct ExhaustiveConfig {
  int max_depth = 2;       ///< maximum number of conditions
  size_t min_coverage = 2; ///< minimum subgroup size
  /// Wall-clock budget, checked at node entry and every 256 candidates
  /// (the batch engine's chunk granularity); when exceeded the search
  /// returns the incumbent and reports `completed = false`.
  double time_budget_seconds = std::numeric_limits<double>::infinity();
};

/// \brief Upper bound on the quality of any *strict refinement* of a node:
/// callback arguments are the node's intention and extension; the returned
/// value must dominate `quality(I', S')` for every intention `I'` extending
/// the node's and the induced `S' subseteq S` with `|S'| >= min_coverage`.
using OptimisticBound = std::function<double(const pattern::Intention&,
                                             const pattern::Extension&)>;

/// \brief Outcome of an exhaustive run.
struct ExhaustiveResult {
  search::ScoredSubgroup best;  ///< global optimum (if `completed`)
  size_t num_evaluated = 0;  ///< candidates scored
  size_t num_pruned_nodes = 0;  ///< subtrees cut by the bound
  bool completed = true;   ///< false iff the time budget was hit
};

/// \brief Runs the exhaustive search over `pool`.
///
/// `bound`, when provided, enables branch-and-bound pruning; it must be a
/// valid optimistic estimate or the result may be suboptimal.
ExhaustiveResult ExhaustiveSearch(const data::DataTable& table,
                                  const search::ConditionPool& pool,
                                  const ExhaustiveConfig& config,
                                  const QualityFunction& quality,
                                  const OptimisticBound* bound = nullptr);

/// \brief Tight optimistic estimator for the location-pattern SI on a
/// univariate target under a single-parameter-group background model (the
/// first-iteration state; this is the setting of Boley et al.).
///
/// For a node with extension S and c conditions, every refinement S' of
/// size k has
///   IC(S') = 0.5*log(2 pi sigma^2 / k) + k*(mean(S') - mu)^2/(2 sigma^2),
/// and for fixed k the mean shift is maximized by the k largest or k
/// smallest target values in S (prefix sums after sorting). Dividing the
/// max over k by the smallest descendant DL (c+1 conditions) yields a
/// valid, tight bound on descendant SI.
///
/// Fails when the model is multivariate or has evolved past one group.
///
/// **Lifetime:** the returned closure holds a non-owning pointer to `y`
/// (and reads `model`'s parameters by value at construction). The caller
/// must keep `y` alive for as long as the bound may be invoked; the bound
/// itself may safely outlive this factory call and any local scope it was
/// created in.
Result<OptimisticBound> MakeUnivariateSiBound(
    const model::BackgroundModel& model, const linalg::Matrix& y,
    const si::DescriptionLengthParams& dl_params, size_t min_coverage);

}  // namespace sisd::reference

#endif  // SISD_REFERENCE_EXHAUSTIVE_SEARCH_HPP_
