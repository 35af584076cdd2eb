/// \file optimal_search.hpp
/// \brief Kernel-backed parallel best-first branch-and-bound for provably
/// optimal location patterns (paper §V future work; bounds after Boley et
/// al., ECML-PKDD 2017).
///
/// The test oracle for this search is the exhaustive DFS of the reference
/// module (reference/exhaustive_search.hpp, linked only by tests and
/// benches): a sequential DFS over a per-candidate `std::function`
/// callback, where every child materializes a fresh `Extension` and every
/// bound call re-gathers and re-sorts the node's target values. This module
/// is the engine-native rebuild of the same search:
///
///  - **No per-node sort.** Rows are ordered once, globally, by target
///    value. A node's bottom-k/top-k prefix-sum bound is computed by
///    scattering its member rows into a rank-space bitset (per-worker
///    scratch, reused across nodes) and sweeping the set bits in ascending
///    rank order — the values come out sorted with no comparison sort and
///    no per-node allocation.
///  - **Kernel-routed hot path.** Candidate coverage and child extensions
///    go through the dispatched `kernels::count_and2` / `and_into`;
///    univariate candidates are scored through
///    `si::EvaluationContext::MaskedTargetMomentsAnd` — one fused pass
///    yields count, sum, and the SI score, with nothing materialized for
///    leaf candidates.
///  - **Best-first expansion.** A priority queue ordered by optimistic
///    bound replaces DFS, so the incumbent tightens early and dominated
///    subtrees are cut before they are ever expanded. Waves of nodes are
///    expanded in parallel across the shared `search::ThreadPool`, with a
///    shared atomic incumbent.
///
/// ## Determinism
///
/// The returned optimum is **bit-identical for any thread count and any
/// `SISD_KERNELS` setting**, and matches what the exhaustive DFS finds:
///
///  - pruning is *strict* (`bound < incumbent`), so every candidate whose
///    quality ties the optimum is always enumerated, regardless of how
///    fast any thread tightened the incumbent;
///  - incumbent updates use a canonical total order — higher quality wins,
///    exact ties go to the lexicographically smaller (sorted) condition-id
///    vector — which is exactly the candidate DFS pre-order enumeration
///    would have kept first.
///
/// The `num_evaluated` / `num_pruned_nodes` counters, by contrast, depend
/// on how early each worker observed the tightening incumbent: they are
/// deterministic only for `num_threads = 1`.
///
/// ## Memory
///
/// Best-first trades memory for pruning: the frontier holds every
/// generated-but-unexpanded interior node (depth <= max_depth - 2; nodes at
/// `max_depth - 1` only produce leaf candidates, which are scored without
/// ever being materialized or queued). At the canonical depth 2 the
/// frontier is at most one node per pool condition.

#ifndef SISD_SEARCH_OPTIMAL_SEARCH_HPP_
#define SISD_SEARCH_OPTIMAL_SEARCH_HPP_

#include <cstdint>
#include <limits>

#include "data/table.hpp"
#include "linalg/matrix.hpp"
#include "model/background_model.hpp"
#include "search/beam_search.hpp"
#include "search/condition_pool.hpp"
#include "search/thread_pool.hpp"
#include "si/interestingness.hpp"

namespace sisd::search {

/// \brief Settings for the optimal search.
struct OptimalConfig {
  int max_depth = 2;        ///< maximum number of conditions
  size_t min_coverage = 2;  ///< minimum subgroup size
  /// Wall-clock budget, checked every 256 candidates (the batch engine's
  /// chunk granularity). When exceeded the search returns the incumbent
  /// and reports `completed = false`.
  double time_budget_seconds = std::numeric_limits<double>::infinity();
  /// Worker threads: >= 1 literal; 0 resolves `SISD_THREADS`, then
  /// hardware concurrency (ignored when a shared pool is passed).
  int num_threads = 0;
  /// Disables the optimistic bound (pure best-first enumeration). The
  /// bound is also skipped automatically when it does not apply: it
  /// requires a univariate target under the initial single-group model.
  bool use_bound = true;
};

/// \brief Outcome of an optimal search run.
struct OptimalResult {
  /// The provably global optimum over the description language (when
  /// `completed`); quality is the location-pattern SI.
  ScoredSubgroup best;
  size_t num_evaluated = 0;     ///< candidates scored (see Determinism)
  size_t num_pruned_nodes = 0;  ///< subtrees cut by the bound
  size_t num_expanded = 0;      ///< interior nodes expanded
  bool used_bound = false;      ///< bound precomputed and active
  bool completed = true;        ///< false iff the time budget was hit
};

/// \brief Mines the optimal location pattern for `model` over `pool`.
///
/// Scores candidates with the location-pattern SI (`si::ScoreLocation`
/// semantics, bit-identical to both the free functions and the beam
/// search's `SiLocationEvaluator`). Works for any model (multivariate
/// targets, evolved multi-group models); the tight optimistic bound only
/// engages in the univariate single-group setting (`used_bound` reports
/// whether it did).
///
/// When `shared_workers` is non-null its worker count overrides
/// `config.num_threads` and no per-call pool is spun up.
OptimalResult OptimalLocationSearch(const data::DataTable& table,
                                    const ConditionPool& pool,
                                    const model::BackgroundModel& model,
                                    const linalg::Matrix& targets,
                                    const si::DescriptionLengthParams& dl,
                                    const OptimalConfig& config,
                                    ThreadPool* shared_workers = nullptr);

}  // namespace sisd::search

#endif  // SISD_SEARCH_OPTIMAL_SEARCH_HPP_
