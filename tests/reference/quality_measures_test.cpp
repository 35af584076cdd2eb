#include "reference/quality_measures.hpp"

#include <cmath>

#include <gtest/gtest.h>

namespace sisd::reference {
namespace {

using linalg::Matrix;
using pattern::Extension;

Matrix MakeTargets() {
  // 8 rows; rows 0-3 have elevated values.
  Matrix y(8, 1);
  const double values[8] = {5.0, 6.0, 5.5, 5.5, 1.0, 2.0, 1.5, 1.5};
  for (size_t i = 0; i < 8; ++i) y(i, 0) = values[i];
  return y;
}

TEST(TargetSummaryTest, ComputesMoments) {
  const Matrix y = MakeTargets();
  const TargetSummary summary = TargetSummary::Compute(y, 0);
  EXPECT_DOUBLE_EQ(summary.mean, 3.5);
  EXPECT_EQ(summary.n, 8u);
  EXPECT_GT(summary.stddev, 0.0);
  EXPECT_DOUBLE_EQ(summary.median, 3.5);
}

TEST(DispersionCorrectedFamilyTest, OneSidedIgnoresDownwardShifts) {
  const Matrix y = MakeTargets();
  const TargetSummary summary = TargetSummary::Compute(y, 0);
  const Extension cold = Extension::FromRows(8, {4, 5, 6, 7});
  DispersionCorrectedParams one_sided;
  one_sided.two_sided = false;
  // The cold subgroup's median sits below the global median: one-sided
  // quality clamps to zero while the two-sided default rewards it.
  EXPECT_EQ(DispersionCorrectedFamilyQuality(y, 0, summary, cold, one_sided),
            0.0);
  EXPECT_GT(DispersionCorrectedFamilyQuality(y, 0, summary, cold,
                                             DispersionCorrectedParams{}),
            0.0);
}

TEST(DispersionCorrectedFamilyTest, SizeExponentControlsCoverageReward) {
  Matrix y(100, 1);
  for (size_t i = 0; i < 100; ++i) y(i, 0) = (i < 10) ? 5.0 : 0.0;
  const TargetSummary summary = TargetSummary::Compute(y, 0);
  const Extension small = Extension::FromRows(100, {0, 1});
  std::vector<size_t> rows;
  for (size_t i = 0; i < 8; ++i) rows.push_back(i);
  const Extension big = Extension::FromRows(100, rows);

  // Both subgroups are constant-valued (zero dispersion, same shift), so
  // quality ratios reduce to the pure size term m^a.
  for (const double a : {0.0, 0.5, 1.0}) {
    DispersionCorrectedParams params;
    params.size_exponent = a;
    const double q_small =
        DispersionCorrectedFamilyQuality(y, 0, summary, small, params);
    const double q_big =
        DispersionCorrectedFamilyQuality(y, 0, summary, big, params);
    EXPECT_NEAR(q_big / q_small, std::pow(4.0, a), 1e-9);
  }
}

}  // namespace
}  // namespace sisd::reference
