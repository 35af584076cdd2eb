/// \file quality_measures.hpp
/// \brief The dispersion-corrected objective quality family of Boley et al.
/// (2017), for contrast with the subjective measure.
///
/// The paper contrasts its subjective measure with objective ones only
/// qualitatively (Related Work). `bench_ablation_search_optimality` runs
/// this family through the exhaustive search to show how its optimum moves
/// with the family's knobs. The measure works on one designated column of
/// the target matrix.

#ifndef SISD_REFERENCE_QUALITY_MEASURES_HPP_
#define SISD_REFERENCE_QUALITY_MEASURES_HPP_

#include "linalg/matrix.hpp"
#include "pattern/extension.hpp"

namespace sisd::reference {

/// \brief Summary of the full data needed by the objective measure.
struct TargetSummary {
  double mean = 0.0;
  double stddev = 0.0;    ///< population
  double median = 0.0;
  size_t n = 0;

  /// Computes the summary for column `target` of `y`.
  static TargetSummary Compute(const linalg::Matrix& y, size_t target);
};

/// \brief Parameters of the dispersion-corrected *family* of Boley et al.
/// (2017, §2): `f_a(I) = |I|^a * shift / (1 + AMD_I)` where `AMD_I` is the
/// subgroup's mean absolute deviation around its median and `shift` its
/// median displacement — two-sided (`|median_I - median|`) or one-sided
/// (`max(0, median_I - median)`, the paper's "positive-median-shift"
/// objective). The size exponent `a` trades off generality against effect
/// size: `a = 1` is impact-weighted (WRAcc-like), `a = 0.5` the
/// test-statistic normalization, `a = 0` pure effect size.
struct DispersionCorrectedParams {
  double size_exponent = 0.5;  ///< `a` in `|I|^a`
  bool two_sided = true;       ///< absolute vs. positive-only median shift
};

/// \brief The dispersion-corrected family member selected by `params`.
double DispersionCorrectedFamilyQuality(const linalg::Matrix& y, size_t target,
                                        const TargetSummary& summary,
                                        const pattern::Extension& extension,
                                        const DispersionCorrectedParams& params);

}  // namespace sisd::reference

#endif  // SISD_REFERENCE_QUALITY_MEASURES_HPP_
