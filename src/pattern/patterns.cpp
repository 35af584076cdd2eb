#include "pattern/patterns.hpp"

#include <cmath>

#include "common/strings.hpp"
#include "kernels/kernels.hpp"

namespace sisd::pattern {

Subgroup Subgroup::FromIntention(const data::DataTable& table,
                                 Intention intention) {
  Subgroup out;
  out.extension = intention.Evaluate(table);
  out.intention = std::move(intention);
  return out;
}

LocationPattern LocationPattern::Compute(Subgroup subgroup,
                                         const linalg::Matrix& y) {
  LocationPattern out;
  out.mean = SubgroupMean(y, subgroup.extension);
  out.subgroup = std::move(subgroup);
  return out;
}

std::string LocationPattern::ToString(const data::DataTable& table) const {
  return StrFormat("location{%s | n=%zu, mean=%s}",
                   subgroup.intention.ToString(table).c_str(),
                   subgroup.Coverage(), mean.ToString().c_str());
}

SpreadPattern SpreadPattern::Compute(Subgroup subgroup,
                                     const linalg::Matrix& y,
                                     const linalg::Vector& w) {
  SpreadPattern out;
  out.direction = w.Normalized();
  out.variance = SubgroupVarianceAlong(y, subgroup.extension, out.direction);
  out.subgroup = std::move(subgroup);
  return out;
}

std::string SpreadPattern::ToString(const data::DataTable& table) const {
  return StrFormat("spread{%s | n=%zu, w=%s, var=%.6g}",
                   subgroup.intention.ToString(table).c_str(),
                   subgroup.Coverage(), direction.ToString().c_str(),
                   variance);
}

linalg::Vector SubgroupMean(const linalg::Matrix& y,
                            const Extension& extension) {
  linalg::Vector mean;
  MaskedSubgroupMeanInto(y, extension, extension, extension.count(), &mean);
  return mean;
}

void MaskedSubgroupMeanInto(const linalg::Matrix& y, const Extension& a,
                            const Extension& b, size_t count,
                            linalg::Vector* out) {
  SISD_CHECK(count > 0);
  SISD_CHECK(a.universe_size() == y.rows());
  SISD_CHECK(out != nullptr);
  if (out->size() != y.cols()) *out = linalg::Vector(y.cols());
  linalg::Vector& mean = *out;
  const size_t cols = y.cols();
  if (cols == 1) {
    // Univariate targets are one contiguous array; the fused masked-sum
    // kernel folds the a&b intersection into the accumulation (this is the
    // single hottest loop of the whole miner).
    SISD_CHECK(a.universe_size() == b.universe_size());
    a.DebugCheckTailMasked();
    b.DebugCheckTailMasked();
    const double sum =
        kernels::MaskedSumAnd(y.RowData(0), a.blocks().data(),
                              b.blocks().data(), a.blocks().size());
    mean[0] = sum / double(count);
    return;
  }
  mean.Fill(0.0);
  Extension::ForEachRowAnd(a, b, [&y, &mean, cols](size_t i) {
    const double* row = y.RowData(i);
    for (size_t c = 0; c < cols; ++c) mean[c] += row[c];
  });
  mean /= double(count);
}

double SubgroupVarianceAlong(const linalg::Matrix& y,
                             const Extension& extension,
                             const linalg::Vector& w) {
  SISD_CHECK(!extension.empty());
  SISD_CHECK(w.size() == y.cols());
  const linalg::Vector mean = SubgroupMean(y, extension);
  const double center = mean.Dot(w);
  double acc = 0.0;
  for (size_t i : extension.ToRows()) {
    const double* row = y.RowData(i);
    double proj = 0.0;
    for (size_t c = 0; c < y.cols(); ++c) proj += row[c] * w[c];
    const double dev = proj - center;
    acc += dev * dev;
  }
  return acc / double(extension.count());
}

}  // namespace sisd::pattern
