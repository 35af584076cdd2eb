#include "reference/quality_measures.hpp"

#include <algorithm>
#include <cmath>

#include "stats/descriptive.hpp"

namespace sisd::reference {

TargetSummary TargetSummary::Compute(const linalg::Matrix& y, size_t target) {
  SISD_CHECK(target < y.cols());
  TargetSummary out;
  stats::RunningStats rs;
  std::vector<double> values;
  values.reserve(y.rows());
  for (size_t i = 0; i < y.rows(); ++i) {
    rs.Add(y(i, target));
    values.push_back(y(i, target));
  }
  out.mean = rs.Mean();
  out.stddev = rs.StdDevPopulation();
  out.median = stats::Quantile(values, 0.5);
  out.n = y.rows();
  return out;
}

double DispersionCorrectedFamilyQuality(
    const linalg::Matrix& y, size_t target, const TargetSummary& summary,
    const pattern::Extension& extension,
    const DispersionCorrectedParams& params) {
  SISD_CHECK(!extension.empty());
  std::vector<double> values;
  for (size_t i : extension.ToRows()) values.push_back(y(i, target));
  const double median_i = stats::Quantile(values, 0.5);
  double amd = 0.0;
  for (double v : values) amd += std::fabs(v - median_i);
  amd /= double(values.size());
  const double raw_shift = median_i - summary.median;
  const double shift =
      params.two_sided ? std::fabs(raw_shift) : std::max(0.0, raw_shift);
  const double m = double(values.size());
  // The default exponent goes through sqrt(), as it always has.
  const double size_term = params.size_exponent == 0.5
                               ? std::sqrt(m)
                               : std::pow(m, params.size_exponent);
  return size_term * shift / (1.0 + amd);
}

}  // namespace sisd::reference
