/// \file list_gain.hpp
/// \brief MDL-style compression gain for subgroup *lists* (SSD++ family:
/// Proença et al., "Discovering outstanding subgroup lists for numeric
/// targets using MDL").
///
/// A subgroup list routes each row to the first rule whose extension
/// contains it; rows no rule captures fall through to the *default rule*,
/// the dataset-marginal normal model. Appending a rule pays a model cost
/// (conditions + per-dimension parameters) and earns back the data bits the
/// rule's local normal model saves over the default model on the rows it
/// captures. This header holds the *shared arithmetic*: the greedy engine
/// (search/list_miner) and the naive differential reference both compute
/// gain through `ListGainFromMoments` from kernel-produced moments, so
/// their outputs are bit-identical whenever their moments are — which the
/// kernel lane contract guarantees (see kernels/kernels.hpp: masked lanes
/// are unobservable, so moments over `a & b` equal moments over the
/// materialized intersection, bit for bit).
///
/// All costs are in nats (natural log), matching the SI statistics.

#ifndef SISD_SI_LIST_GAIN_HPP_
#define SISD_SI_LIST_GAIN_HPP_

#include <cstddef>

#include "common/status.hpp"
#include "kernels/kernels.hpp"
#include "linalg/vector.hpp"

namespace sisd::si {

/// \brief Per-rule local model: an independent normal per target dimension
/// (the SSD++ rule statistic; diagonal by construction).
struct LocalNormalModel {
  linalg::Vector mean;      ///< per-dimension ML mean of the captured rows
  linalg::Vector variance;  ///< per-dimension ML variance (floored)

  bool operator==(const LocalNormalModel& other) const {
    return mean == other.mean && variance == other.variance;
  }
};

/// \brief Knobs of the list-gain criterion.
struct ListGainParams {
  /// Model cost per condition of a rule's intention (nats).
  double alpha = 0.5;
  /// Fixed model cost per rule (nats).
  double beta = 1.0;
  /// Lower bound applied to every fitted variance; keeps the criterion
  /// finite on constant targets (a zero-variance rule cannot claim
  /// infinite compression).
  double variance_floor = 1e-9;
  /// Divide the gain by the captured count (compression per captured
  /// instance, the SSD++ "normalized gain" that resists tiny-but-perfect
  /// rules). The sign of the gain is unaffected.
  bool normalized = true;
};

/// \brief Returns InvalidArgument unless `params` keep every rule's model
/// cost non-negative and every fitted variance positive: `alpha` and `beta`
/// finite and >= 0, `variance_floor` finite and > 0. A negative cost lets a
/// rule claim compression it never earned.
Status ValidateListGainParams(const ListGainParams& params);

/// \brief Fits `out` from per-dimension moments of one row set: ML mean and
/// floored ML variance per dimension. `moments[j].count` must be equal for
/// all `j` (same mask) and positive.
void FitLocalNormalModel(const kernels::MaskedMoments* moments, size_t dy,
                         double variance_floor, LocalNormalModel* out);

/// \brief Negative log-likelihood (nats) of the rows summarized by
/// `moments` under an `N(mean, variance)` code — the data cost of routing
/// those rows to a normal model. Exposed so tests can audit the gain
/// decomposition.
double NormalDataCost(const kernels::MaskedMoments& moments, double mean,
                      double variance);

/// \brief List-level compression gain of one candidate rule.
///
/// `moments[j]` are the kernel moments of target dimension `j` over the
/// rows the rule would *capture* (its extension intersected with the rows
/// not yet covered by the list); all counts are equal. The gain is the data
/// bits saved by re-routing those rows from `default_model` to the rule's
/// own fitted normal model, minus the rule's model cost
/// (`alpha * num_conditions + beta + dy * log(count)` — half a log(count)
/// per fitted parameter, two parameters per dimension), optionally
/// normalized by the captured count. Deterministic: fixed dimension order,
/// no reassociation.
double ListGainFromMoments(const kernels::MaskedMoments* moments, size_t dy,
                           const LocalNormalModel& default_model,
                           size_t num_conditions,
                           const ListGainParams& params);

}  // namespace sisd::si

#endif  // SISD_SI_LIST_GAIN_HPP_
