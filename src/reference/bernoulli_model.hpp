/// \file bernoulli_model.hpp
/// \brief Bernoulli background model for binary target attributes — the
/// extension the paper sketches but leaves as future work (§III-B: "That
/// the attributes are binary is another form of background knowledge that
/// could in principle be incorporated into the method, but it would lead
/// to different derivations"; §V: "study similar pattern syntaxes for
/// binary ... target attributes").
///
/// The belief state is a product of independent Bernoulli variables, one
/// per (row, attribute): `P(Y) = prod_{i,j} p_{ij}^{y_ij}(1-p_{ij})^{1-y_ij}`
/// — the MaxEnt distribution subject to the user's expectations about
/// per-attribute presence rates. Assimilating a location pattern (the
/// subgroup's observed mean vector) is the minimal-KL update, which for an
/// exponential family is an exponential tilt: per attribute j,
/// `logit(p'_ij) = logit(p_ij) + lambda_j` for rows in the extension, with
/// `lambda_j` the unique solution of the mean constraint. This mirrors
/// Theorem 1 exactly, with the Gaussian natural parameters replaced by
/// log-odds.
///
/// The IC of a location pattern uses a per-attribute normal approximation
/// to the Poisson-binomial law of the subgroup's presence counts (exact
/// mean and variance; attributes are independent under the model, so the
/// joint IC is the sum). Spread patterns are intentionally unsupported:
/// a Bernoulli variance is determined by its mean, the very observation
/// that led the paper to mine location patterns only on the mammals data.
///
/// No production path uses this model: it backs the
/// `bench_ext_bernoulli_mammals` comparison and is the starting point of a
/// pluggable target-likelihood family.

#ifndef SISD_REFERENCE_BERNOULLI_MODEL_HPP_
#define SISD_REFERENCE_BERNOULLI_MODEL_HPP_

#include <vector>

#include "common/status.hpp"
#include "linalg/matrix.hpp"
#include "linalg/vector.hpp"
#include "pattern/extension.hpp"

namespace sisd::reference {

/// \brief Rows sharing identical Bernoulli parameters.
struct BernoulliGroup {
  linalg::Vector p;            ///< success probability per attribute
  pattern::Extension rows{0};  ///< rows carrying these parameters

  size_t count() const { return rows.count(); }
};

/// \brief Product-of-Bernoullis belief state over a binary target matrix.
class BernoulliBackgroundModel {
 public:
  /// Initial model: every row has success probabilities `p` (entries
  /// strictly inside (0, 1)).
  static Result<BernoulliBackgroundModel> Create(size_t num_rows,
                                                 linalg::Vector p);

  /// Initial model from the empirical column means of binary matrix `y`,
  /// clamped into `[clamp, 1 - clamp]` so degenerate columns keep a proper
  /// exponential-family representation.
  static Result<BernoulliBackgroundModel> CreateFromData(
      const linalg::Matrix& y, double clamp = 1e-3);

  size_t num_rows() const { return num_rows_; }
  size_t dim() const { return dim_; }
  size_t num_groups() const { return groups_.size(); }

  size_t GroupOf(size_t row) const {
    SISD_DCHECK(row < num_rows_);
    return group_of_row_[row];
  }

  const BernoulliGroup& group(size_t g) const {
    SISD_DCHECK(g < groups_.size());
    return groups_[g];
  }

  /// Success probabilities of one row.
  const linalg::Vector& ProbabilitiesOf(size_t row) const {
    return groups_[GroupOf(row)].p;
  }

  /// Expected subgroup mean `E[sum_{i in I} y_i / |I|]`.
  linalg::Vector ExpectedSubgroupMean(
      const pattern::Extension& extension) const;

  /// \brief Minimal-KL update so the expected subgroup mean equals
  /// `target_mean` (entries clamped away from 0/1 by half a count).
  /// Returns the largest |lambda_j| applied (0 means no-op).
  Result<double> UpdateLocation(const pattern::Extension& extension,
                                const linalg::Vector& target_mean);

  /// \brief IC of a location pattern: per attribute, the negative log of
  /// the (normal-approximated) density of the observed presence count
  /// under the model's Poisson-binomial law; summed over attributes.
  double LocationIC(const pattern::Extension& extension,
                    const linalg::Vector& observed_mean) const;

  /// Per-attribute IC (the Fig. 5 ranking under the Bernoulli model).
  linalg::Vector PerAttributeIC(const pattern::Extension& extension,
                                const linalg::Vector& observed_mean) const;

  /// Row-wise KL divergence `sum_i KL(this_i || other_i)` (diagnostics).
  double KlDivergenceFrom(const BernoulliBackgroundModel& other) const;

 private:
  BernoulliBackgroundModel() = default;

  std::vector<size_t> SplitGroupsFor(const pattern::Extension& extension);

  size_t num_rows_ = 0;
  size_t dim_ = 0;
  std::vector<BernoulliGroup> groups_;
  std::vector<uint32_t> group_of_row_;
};

/// \brief Solves the tilt `lambda` with
/// `sum_g count_g * sigmoid(logit_g + lambda) = target_count` for
/// monotone-increasing LHS; `target_count` must lie strictly between 0 and
/// the total count. Exposed for testing.
Result<double> SolveBernoulliTilt(const std::vector<double>& logits,
                                  const std::vector<double>& counts,
                                  double target_count,
                                  double tolerance = 1e-12,
                                  int max_iterations = 200);

}  // namespace sisd::reference

#endif  // SISD_REFERENCE_BERNOULLI_MODEL_HPP_
