/// \file patterns.hpp
/// \brief Location and spread patterns (paper §II-A).
///
/// A *location pattern* tells the user the mean vector of the targets within
/// a subgroup; a *spread pattern* tells the user the variance of the targets
/// within the subgroup along a unit direction `w` (the paper only ever shows
/// spread patterns for subgroups whose location pattern was shown first).

#ifndef SISD_PATTERN_PATTERNS_HPP_
#define SISD_PATTERN_PATTERNS_HPP_

#include <string>

#include "data/table.hpp"
#include "linalg/vector.hpp"
#include "pattern/condition.hpp"
#include "pattern/extension.hpp"

namespace sisd::pattern {

/// \brief A subgroup: intention plus the extension it induces.
struct Subgroup {
  Intention intention;
  Extension extension{0};

  /// Builds the subgroup induced by `intention` on `table`.
  static Subgroup FromIntention(const data::DataTable& table,
                                Intention intention);

  /// Number of covered rows.
  size_t Coverage() const { return extension.count(); }
};

/// \brief Location pattern: subgroup + empirical target mean
/// `f_I(Yhat) = sum_{i in I} y_i / |I|` (Eq. 1).
struct LocationPattern {
  Subgroup subgroup;
  linalg::Vector mean;  ///< empirical mean of targets within the subgroup

  /// Computes the pattern for `subgroup` from target matrix `y`.
  static LocationPattern Compute(Subgroup subgroup, const linalg::Matrix& y);

  /// Renders a one-line description of the pattern.
  std::string ToString(const data::DataTable& table) const;
};

/// \brief Spread pattern: subgroup + unit direction `w` + empirical variance
/// `g^w_I(Yhat) = sum_{i in I} ((y_i - yhat_I)' w)^2 / |I|` (Eq. 2).
struct SpreadPattern {
  Subgroup subgroup;
  linalg::Vector direction;  ///< unit vector w
  double variance = 0.0;     ///< empirical variance along w

  /// Computes the pattern for `subgroup` and direction `w` (normalized
  /// internally) from target matrix `y`.
  static SpreadPattern Compute(Subgroup subgroup, const linalg::Matrix& y,
                               const linalg::Vector& w);

  /// Renders a one-line description of the pattern.
  std::string ToString(const data::DataTable& table) const;
};

/// \brief Empirical subgroup mean of targets: Eq. (1) evaluated on data.
/// Shorthand for `MaskedSubgroupMeanInto(y, e, e, e.count(), ...)`.
linalg::Vector SubgroupMean(const linalg::Matrix& y,
                            const Extension& extension);

/// \brief The empirical mean of `y` over the rows of `a & b`, without
/// materializing the intersection; writes into `*out` (resized to `y.cols()`
/// if needed, no allocation once sized). `count` must equal
/// `Extension::IntersectionCount(a, b)` and be positive. A caller holding a
/// materialized extension `e` passes `(e, e, e.count())`.
void MaskedSubgroupMeanInto(const linalg::Matrix& y, const Extension& a,
                            const Extension& b, size_t count,
                            linalg::Vector* out);

/// \brief Empirical subgroup variance along `w`: Eq. (2) evaluated on data
/// (spread measured around the subgroup's own empirical mean).
double SubgroupVarianceAlong(const linalg::Matrix& y,
                             const Extension& extension,
                             const linalg::Vector& w);

}  // namespace sisd::pattern

#endif  // SISD_PATTERN_PATTERNS_HPP_
