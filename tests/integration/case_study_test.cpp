/// Integration tests for the three case studies (§III-B, C, D): the miner
/// must recover the planted structure of each generated dataset — the same
/// qualitative findings the paper reports on the real data.

#include <cmath>

#include <gtest/gtest.h>

#include "core/session.hpp"
#include "datagen/crime.hpp"
#include "datagen/gse.hpp"
#include "datagen/water.hpp"

namespace sisd {
namespace {

TEST(CrimeCaseStudyTest, TopPatternIsTheDriverUpperTail) {
  const datagen::CrimeData data = datagen::MakeCrimeLike();
  core::MinerConfig config;
  config.mix = core::PatternMix::kLocationOnly;
  config.search.max_depth = 2;  // keep runtime moderate on 122 attributes
  config.search.beam_width = 20;
  config.search.min_coverage = 20;
  Result<core::MiningSession> session =
      core::MiningSession::Create(data.dataset, config);
  ASSERT_TRUE(session.ok()) << session.status().ToString();
  Result<core::IterationResult> result = session.Value().MineNext();
  ASSERT_TRUE(result.ok()) << result.status().ToString();

  // Paper §I: top pattern "PctIlleg >= 0.39", 20.5% coverage, mean 0.53 vs
  // 0.24 overall. Shape check: the driver attribute with >= and an upper
  // tail covering ~20% with strongly elevated mean.
  const auto& intention = result.Value().location.pattern.subgroup.intention;
  ASSERT_GE(intention.size(), 1u);
  const pattern::Condition& top_cond = intention.conditions()[0];
  EXPECT_EQ(data.dataset.descriptions.column(top_cond.attribute).name(),
            data.truth.driver_name);
  EXPECT_EQ(top_cond.op, pattern::ConditionOp::kGreaterEqual);
  EXPECT_NEAR(top_cond.threshold, data.truth.driver_threshold, 0.1);

  const double coverage =
      double(result.Value().location.pattern.subgroup.Coverage()) /
      double(data.dataset.num_rows());
  EXPECT_NEAR(coverage, 0.205, 0.06);
  EXPECT_GT(result.Value().location.pattern.mean[0],
            data.truth.overall_mean + 0.15);
}

TEST(GseCaseStudyTest, FirstPatternIsLowChildrenEastWithLeftElevated) {
  const datagen::GseData data = datagen::MakeGseLike();
  core::MinerConfig config;
  config.spread_sparsity = 2;  // the paper's §III-C 2-sparsity constraint
  config.search.min_coverage = 10;
  Result<core::MiningSession> session =
      core::MiningSession::Create(data.dataset, config);
  ASSERT_TRUE(session.ok());
  Result<core::IterationResult> result = session.Value().MineNext();
  ASSERT_TRUE(result.ok()) << result.status().ToString();

  // Top pattern: a low-children condition (paper: "Children Pop. <= 14.1").
  const auto& intention = result.Value().location.pattern.subgroup.intention;
  bool has_children_le = false;
  for (const pattern::Condition& c : intention.conditions()) {
    if (c.attribute == data.truth.children_attribute &&
        c.op == pattern::ConditionOp::kLessEqual) {
      has_children_le = true;
    }
  }
  EXPECT_TRUE(has_children_le)
      << "top intention: "
      << intention.ToString(data.dataset.descriptions);

  // Extension mostly covers the East stratum.
  const auto& ext = result.Value().location.pattern.subgroup.extension;
  const size_t east_overlap =
      pattern::Extension::IntersectionCount(ext, data.truth.east);
  EXPECT_GT(double(east_overlap), 0.6 * double(ext.count()));

  // LEFT elevated within the subgroup vs the overall mean.
  double left_overall = 0.0;
  for (size_t i = 0; i < data.dataset.num_rows(); ++i) {
    left_overall += data.dataset.targets(i, data.truth.left_target);
  }
  left_overall /= double(data.dataset.num_rows());
  EXPECT_GT(result.Value().location.pattern.mean[data.truth.left_target],
            left_overall + 8.0);
}

TEST(GseCaseStudyTest, SpreadPatternFindsCduSpdLowVarianceDirection) {
  const datagen::GseData data = datagen::MakeGseLike();
  core::MinerConfig config;
  config.spread_sparsity = 2;
  config.search.min_coverage = 10;
  Result<core::MiningSession> session =
      core::MiningSession::Create(data.dataset, config);
  ASSERT_TRUE(session.ok());
  Result<core::IterationResult> result = session.Value().MineNext();
  ASSERT_TRUE(result.ok());
  ASSERT_TRUE(result.Value().spread.has_value());
  const core::ScoredSpreadPattern& spread = *result.Value().spread;

  // 2-sparse direction supported on (CDU, SPD) — the anti-correlated pair.
  std::vector<size_t> support;
  for (size_t k = 0; k < spread.pattern.direction.size(); ++k) {
    if (std::fabs(spread.pattern.direction[k]) > 1e-9) support.push_back(k);
  }
  ASSERT_EQ(support.size(), 2u);
  EXPECT_EQ(support[0], data.truth.cdu_target);
  EXPECT_EQ(support[1], data.truth.spd_target);

  // Observed variance along w far below the model's expectation at scoring
  // time (paper Fig. 8: "variance much smaller than expected"). The
  // surrogate's mean is exactly that expectation.
  const double expected = spread.score.approx.MeanValue();
  EXPECT_LT(spread.pattern.variance, 0.4 * expected);

  // Direction close to the planted (0.5704, 0.8214) up to sign.
  linalg::Vector planted(5);
  planted[data.truth.cdu_target] = 0.5704;
  planted[data.truth.spd_target] = 0.8214;
  EXPECT_GT(std::fabs(spread.pattern.direction.Dot(planted)), 0.95);
}

TEST(WaterCaseStudyTest, TopPatternMatchesBioindicatorSignature) {
  const datagen::WaterData data = datagen::MakeWaterLike();
  core::MinerConfig config;
  config.search.min_coverage = 20;
  config.search.max_depth = 2;
  Result<core::MiningSession> session =
      core::MiningSession::Create(data.dataset, config);
  ASSERT_TRUE(session.ok());
  Result<core::IterationResult> result = session.Value().MineNext();
  ASSERT_TRUE(result.ok()) << result.status().ToString();

  // The subgroup must be pollution-driven: strong overlap with the planted
  // "Gammarus absent AND Tubifex abundant" rows.
  const auto& ext = result.Value().location.pattern.subgroup.extension;
  const size_t overlap =
      pattern::Extension::IntersectionCount(ext, data.truth.polluted);
  EXPECT_GT(double(overlap), 0.5 * double(std::min(
                                  ext.count(), data.truth.polluted.count())));

  // BOD elevated within the subgroup (paper Fig. 10). Targets are
  // standardized, so the gap is in global-SD units.
  double bod_overall = 0.0;
  for (size_t i = 0; i < data.dataset.num_rows(); ++i) {
    bod_overall += data.dataset.targets(i, data.truth.bod_target);
  }
  bod_overall /= double(data.dataset.num_rows());
  EXPECT_GT(result.Value().location.pattern.mean[data.truth.bod_target],
            bod_overall + 0.6);
}

TEST(WaterCaseStudyTest, SpreadPatternIsHighVarianceDirection) {
  const datagen::WaterData data = datagen::MakeWaterLike();
  core::MinerConfig config;
  config.search.min_coverage = 20;
  config.search.max_depth = 2;
  config.spread_optimizer.num_random_starts = 4;
  Result<core::MiningSession> session =
      core::MiningSession::Create(data.dataset, config);
  ASSERT_TRUE(session.ok());
  Result<core::IterationResult> result = session.Value().MineNext();
  ASSERT_TRUE(result.ok());
  ASSERT_TRUE(result.Value().spread.has_value());
  const core::ScoredSpreadPattern& spread = *result.Value().spread;

  // Paper §III-D headline: the top spread direction has variance LARGER
  // than expected (unusual — displaced subgroups typically shrink). The
  // surrogate's mean is the model's expectation at scoring time.
  const double expected = spread.score.approx.MeanValue();
  EXPECT_GT(spread.pattern.variance, 1.3 * expected);
}

}  // namespace
}  // namespace sisd
