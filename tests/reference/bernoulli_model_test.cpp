#include "reference/bernoulli_model.hpp"

#include <cmath>

#include <gtest/gtest.h>

#include "random/rng.hpp"

namespace sisd::reference {
namespace {

using linalg::Matrix;
using linalg::Vector;
using pattern::Extension;

BernoulliBackgroundModel MakeModel(size_t n, Vector p) {
  Result<BernoulliBackgroundModel> model =
      BernoulliBackgroundModel::Create(n, std::move(p));
  model.status().CheckOK();
  return std::move(model).MoveValue();
}

TEST(BernoulliModelTest, CreateValidatesInput) {
  EXPECT_FALSE(BernoulliBackgroundModel::Create(0, Vector{0.5}).ok());
  EXPECT_FALSE(BernoulliBackgroundModel::Create(5, Vector{}).ok());
  EXPECT_FALSE(BernoulliBackgroundModel::Create(5, Vector{0.0}).ok());
  EXPECT_FALSE(BernoulliBackgroundModel::Create(5, Vector{1.0}).ok());
  EXPECT_TRUE(BernoulliBackgroundModel::Create(5, Vector{0.5, 0.1}).ok());
}

TEST(BernoulliModelTest, CreateFromDataUsesClampedColumnMeans) {
  Matrix y(4, 3);
  // Column 0: rate 0.5; column 1: all ones; column 2: all zeros.
  for (size_t i = 0; i < 4; ++i) {
    y(i, 0) = (i % 2 == 0) ? 1.0 : 0.0;
    y(i, 1) = 1.0;
    y(i, 2) = 0.0;
  }
  Result<BernoulliBackgroundModel> model =
      BernoulliBackgroundModel::CreateFromData(y, 0.01);
  ASSERT_TRUE(model.ok());
  EXPECT_DOUBLE_EQ(model.Value().ProbabilitiesOf(0)[0], 0.5);
  EXPECT_DOUBLE_EQ(model.Value().ProbabilitiesOf(0)[1], 0.99);
  EXPECT_DOUBLE_EQ(model.Value().ProbabilitiesOf(0)[2], 0.01);
}

TEST(BernoulliModelTest, CreateFromDataRejectsNonBinary) {
  Matrix y(2, 1);
  y(0, 0) = 0.5;
  EXPECT_FALSE(BernoulliBackgroundModel::CreateFromData(y).ok());
}

TEST(BernoulliModelTest, UpdateLocationSatisfiesConstraint) {
  BernoulliBackgroundModel model = MakeModel(20, Vector{0.3, 0.7});
  const Extension ext = Extension::FromRows(20, {0, 1, 2, 3, 4});
  const Vector target{0.8, 0.2};
  Result<double> tilt = model.UpdateLocation(ext, target);
  ASSERT_TRUE(tilt.ok()) << tilt.status().ToString();
  EXPECT_GT(tilt.Value(), 0.0);
  EXPECT_LT(MaxAbsDiff(model.ExpectedSubgroupMean(ext), target), 1e-9);
  // Rows outside the extension keep the prior.
  EXPECT_DOUBLE_EQ(model.ProbabilitiesOf(10)[0], 0.3);
  EXPECT_EQ(model.num_groups(), 2u);
}

TEST(BernoulliModelTest, UpdateIsIdempotentAtFixpoint) {
  BernoulliBackgroundModel model = MakeModel(10, Vector{0.4});
  const Extension ext = Extension::FromRows(10, {0, 1, 2});
  ASSERT_TRUE(model.UpdateLocation(ext, Vector{0.9}).ok());
  Result<double> second = model.UpdateLocation(ext, Vector{0.9});
  ASSERT_TRUE(second.ok());
  EXPECT_NEAR(second.Value(), 0.0, 1e-9);
}

TEST(BernoulliModelTest, DegenerateTargetsAreClampedNotFatal) {
  BernoulliBackgroundModel model = MakeModel(10, Vector{0.5});
  const Extension ext = Extension::FromRows(10, {0, 1, 2, 3});
  // All-present subgroup: target mean 1.0 is clamped half a count away.
  Result<double> tilt = model.UpdateLocation(ext, Vector{1.0});
  ASSERT_TRUE(tilt.ok());
  const double expected = model.ExpectedSubgroupMean(ext)[0];
  EXPECT_GT(expected, 0.8);
  EXPECT_LT(expected, 1.0);
}

TEST(BernoulliModelTest, OverlappingUpdatesSplitGroups) {
  BernoulliBackgroundModel model = MakeModel(12, Vector{0.5});
  ASSERT_TRUE(model
                  .UpdateLocation(Extension::FromRows(12, {0, 1, 2, 3}),
                                  Vector{0.9})
                  .ok());
  ASSERT_TRUE(model
                  .UpdateLocation(Extension::FromRows(12, {2, 3, 4, 5}),
                                  Vector{0.25})
                  .ok());
  EXPECT_EQ(model.num_groups(), 4u);
  EXPECT_EQ(model.GroupOf(0), model.GroupOf(1));
  EXPECT_EQ(model.GroupOf(2), model.GroupOf(3));
  EXPECT_NE(model.GroupOf(0), model.GroupOf(2));
  // Most recent constraint holds exactly (0.25 * 4 = 1 count, above the
  // half-count clamp floor).
  EXPECT_NEAR(
      model.ExpectedSubgroupMean(Extension::FromRows(12, {2, 3, 4, 5}))[0],
      0.25, 1e-9);
}

TEST(BernoulliModelTest, IcPositiveForSurpriseAndCollapsesAfterUpdate) {
  BernoulliBackgroundModel model = MakeModel(100, Vector{0.2});
  std::vector<size_t> rows;
  for (size_t i = 0; i < 30; ++i) rows.push_back(i);
  const Extension ext = Extension::FromRows(100, rows);
  const Vector observed{0.9};
  const double ic_before = model.LocationIC(ext, observed);
  EXPECT_GT(ic_before, 10.0);
  ASSERT_TRUE(model.UpdateLocation(ext, observed).ok());
  const double ic_after = model.LocationIC(ext, observed);
  EXPECT_LT(ic_after, 0.25 * ic_before);
}

TEST(BernoulliModelTest, IcMatchesBinomialPmf) {
  // Homogeneous probabilities: the count is Binomial(n, p); the normal
  // approximation of the pmf should be close near the mode for moderate n.
  const double p = 0.3;
  const size_t k = 60;
  BernoulliBackgroundModel model = MakeModel(200, Vector{p});
  std::vector<size_t> rows;
  for (size_t i = 0; i < k; ++i) rows.push_back(i);
  const Extension ext = Extension::FromRows(200, rows);
  for (int count : {14, 18, 22, 26}) {
    const Vector observed{double(count) / double(k)};
    const double ic = model.LocationIC(ext, observed);
    // Exact binomial log pmf.
    double log_pmf = std::lgamma(double(k) + 1.0) -
                     std::lgamma(double(count) + 1.0) -
                     std::lgamma(double(k - count) + 1.0) +
                     count * std::log(p) + (k - count) * std::log(1.0 - p);
    EXPECT_NEAR(ic, -log_pmf, 0.05 * std::fabs(log_pmf) + 0.1)
        << "count=" << count;
  }
}

TEST(BernoulliModelTest, PerAttributeIcRanksDisplacedAttributesFirst) {
  BernoulliBackgroundModel model = MakeModel(50, Vector{0.5, 0.5, 0.5});
  const Extension ext = Extension::FromRows(50, {0, 1, 2, 3, 4, 5, 6, 7});
  const Vector observed{0.55, 1.0, 0.5};
  const Vector ic = model.PerAttributeIC(ext, observed);
  EXPECT_GT(ic[1], ic[0]);
  EXPECT_GT(ic[0], ic[2]);
}

TEST(BernoulliModelTest, KlDivergenceZeroForIdenticalPositiveAfterUpdate) {
  BernoulliBackgroundModel model = MakeModel(20, Vector{0.4, 0.6});
  BernoulliBackgroundModel other = model;
  EXPECT_NEAR(model.KlDivergenceFrom(other), 0.0, 1e-12);
  ASSERT_TRUE(other
                  .UpdateLocation(Extension::FromRows(20, {0, 1, 2}),
                                  Vector{0.9, 0.1})
                  .ok());
  EXPECT_GT(other.KlDivergenceFrom(model), 0.0);
}

TEST(SolveBernoulliTiltTest, ClosedFormSingleGroup) {
  // One group: sigmoid(logit(p) + lambda) = m => lambda = logit(m)-logit(p).
  const double p = 0.25, m = 0.75;
  Result<double> lambda =
      SolveBernoulliTilt({std::log(p / (1 - p))}, {10.0}, 7.5);
  ASSERT_TRUE(lambda.ok());
  EXPECT_NEAR(lambda.Value(),
              std::log(m / (1 - m)) - std::log(p / (1 - p)), 1e-9);
}

TEST(SolveBernoulliTiltTest, RejectsOutOfRangeTargets) {
  EXPECT_FALSE(SolveBernoulliTilt({0.0}, {5.0}, 0.0).ok());
  EXPECT_FALSE(SolveBernoulliTilt({0.0}, {5.0}, 5.0).ok());
  EXPECT_FALSE(SolveBernoulliTilt({0.0}, {5.0}, 6.0).ok());
  EXPECT_TRUE(SolveBernoulliTilt({0.0}, {5.0}, 2.5).ok());
}

TEST(SolveBernoulliTiltTest, MixedGroupsSatisfyConstraint) {
  const std::vector<double> logits{-2.0, 0.5, 1.5};
  const std::vector<double> counts{10.0, 5.0, 3.0};
  const double target = 9.0;
  Result<double> lambda = SolveBernoulliTilt(logits, counts, target);
  ASSERT_TRUE(lambda.ok());
  double achieved = 0.0;
  for (size_t k = 0; k < logits.size(); ++k) {
    achieved += counts[k] / (1.0 + std::exp(-(logits[k] + lambda.Value())));
  }
  EXPECT_NEAR(achieved, target, 1e-8);
}

}  // namespace
}  // namespace sisd::reference
