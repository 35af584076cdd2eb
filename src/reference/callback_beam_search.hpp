/// \file callback_beam_search.hpp
/// \brief Beam search over an arbitrary per-candidate quality callback.
///
/// The production engine (`search::BeamSearch`) scores virtual candidates
/// in batches; this wrapper feeds it a single-threaded evaluator that
/// materializes every candidate's extension and intention and calls a
/// `std::function`. Tests use it as the oracle the batch evaluators must
/// match bit for bit, and to drive the search with toy measures.

#ifndef SISD_REFERENCE_CALLBACK_BEAM_SEARCH_HPP_
#define SISD_REFERENCE_CALLBACK_BEAM_SEARCH_HPP_

#include <functional>

#include "data/table.hpp"
#include "linalg/matrix.hpp"
#include "model/background_model.hpp"
#include "pattern/condition.hpp"
#include "pattern/extension.hpp"
#include "search/beam_search.hpp"
#include "search/condition_pool.hpp"
#include "si/interestingness.hpp"

namespace sisd::reference {

/// \brief Quality callback: returns the score of a candidate subgroup.
/// Return -inf to reject a candidate entirely (it will not enter the beam
/// nor the result list).
using QualityFunction = std::function<double(
    const pattern::Intention&, const pattern::Extension&)>;

/// \brief The paper's location SI as a callback: the subgroup's empirical
/// mean scored by the free function `si::ScoreLocation`. This is the
/// scorer the batch evaluators and the optimal search are held
/// bit-identical to. The callback keeps pointers to `model` and `y`, which
/// must outlive it.
QualityFunction SiLocationQuality(const model::BackgroundModel& model,
                                  const linalg::Matrix& y,
                                  const si::DescriptionLengthParams& dl);

/// \brief Runs `search::BeamSearch` with every candidate scored by
/// `quality` on the calling thread (arbitrary callbacks are not assumed
/// thread-safe). Generation, merging and the result match the batch entry
/// point run with an evaluator computing the same scores.
search::SearchResult CallbackBeamSearch(const data::DataTable& table,
                                        const search::ConditionPool& pool,
                                        const search::SearchConfig& config,
                                        const QualityFunction& quality);

}  // namespace sisd::reference

#endif  // SISD_REFERENCE_CALLBACK_BEAM_SEARCH_HPP_
