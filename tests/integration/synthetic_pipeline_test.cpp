/// Integration test: the full paper pipeline on the §III-A synthetic data.
/// Reproduces the qualitative claims behind Fig. 2 and Table I:
///  - the three embedded subgroups are the top patterns of iterations 1-3;
///  - redundant longer descriptions rank strictly below their shorter
///    equivalents (pure DL effect);
///  - after assimilation, the SI of a found pattern collapses (~ -1 in the
///    paper) and stays low;
///  - the recovered spread direction matches each cluster's planted main
///    axis.

#include <cmath>
#include <set>

#include <gtest/gtest.h>

#include "core/session.hpp"
#include "datagen/synthetic.hpp"

namespace sisd {
namespace {

core::MinerConfig PaperConfig() {
  core::MinerConfig config;  // defaults are the paper's Cortana settings
  config.search.min_coverage = 5;
  return config;
}

class SyntheticPipelineTest : public ::testing::Test {
 protected:
  void SetUp() override {
    data_ = datagen::MakeSyntheticEmbedded();
    Result<core::MiningSession> session =
        core::MiningSession::Create(data_.dataset, PaperConfig());
    session.status().CheckOK();
    session_ = std::make_unique<core::MiningSession>(
        std::move(session).MoveValue());
  }

  /// Which planted cluster (0-2) matches this extension exactly, or -1.
  int MatchingCluster(const pattern::Extension& ext) const {
    for (size_t k = 0; k < data_.truth.cluster_extensions.size(); ++k) {
      if (ext == data_.truth.cluster_extensions[k]) {
        return static_cast<int>(k);
      }
    }
    return -1;
  }

  datagen::SyntheticData data_;
  std::unique_ptr<core::MiningSession> session_;
};

TEST_F(SyntheticPipelineTest, RecoversAllThreeClustersInOrder) {
  std::set<int> found;
  for (int iter = 0; iter < 3; ++iter) {
    Result<core::IterationResult> result = session_->MineNext();
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    const int cluster =
        MatchingCluster(result.Value().location.pattern.subgroup.extension);
    EXPECT_GE(cluster, 0) << "iteration " << iter
                          << " did not return a planted cluster";
    EXPECT_TRUE(found.insert(cluster).second)
        << "iteration " << iter << " repeated cluster " << cluster;
    // Single-condition description (the true label attribute).
    EXPECT_EQ(result.Value().location.pattern.subgroup.intention.size(), 1u);
  }
  EXPECT_EQ(found.size(), 3u);
}

TEST_F(SyntheticPipelineTest, SpreadDirectionMatchesPlantedCovarianceAxis) {
  // Every direction of a tight embedded cluster has less variance than the
  // full-data expectation, and the IC of the chi-square surrogate diverges
  // as the observed/expected variance ratio tends to 0. The most surprising
  // direction is therefore the cluster's *minor* (most squeezed) axis — the
  // direction along which the subgroup's spread "differs most from the full
  // data covariance" (§III-A). The planted covariance is axis-aligned in
  // (main, minor) coordinates, so the found direction must be orthogonal to
  // the planted main axis.
  for (int iter = 0; iter < 3; ++iter) {
    Result<core::IterationResult> result = session_->MineNext();
    ASSERT_TRUE(result.ok());
    const int cluster =
        MatchingCluster(result.Value().location.pattern.subgroup.extension);
    ASSERT_GE(cluster, 0);
    ASSERT_TRUE(result.Value().spread.has_value());
    const linalg::Vector& found_dir =
        result.Value().spread->pattern.direction;
    const linalg::Vector& main_dir =
        data_.truth.cluster_main_directions[static_cast<size_t>(cluster)];
    const linalg::Vector minor_dir{-main_dir[1], main_dir[0]};
    EXPECT_GT(std::fabs(found_dir.Dot(minor_dir)), 0.85)
        << "iteration " << iter;
    // And the observed variance along it is far below the expectation the
    // model had when the pattern was scored (the surrogate's mean equals
    // the expected directional variance before the spread update).
    const double expected = result.Value().spread->score.approx.MeanValue();
    EXPECT_LT(result.Value().spread->pattern.variance, 0.25 * expected);
  }
}

TEST_F(SyntheticPipelineTest, TableOneSiCollapseAfterAssimilation) {
  // Mine iteration 1 and remember the top-10 ranked patterns.
  Result<core::IterationResult> first = session_->MineNext();
  ASSERT_TRUE(first.ok());
  const size_t kTrack = std::min<size_t>(10, first.Value().ranked.size());
  std::vector<pattern::Intention> tracked;
  std::vector<double> si_iter1;
  for (size_t r = 0; r < kTrack; ++r) {
    tracked.push_back(first.Value().ranked[r].pattern.subgroup.intention);
    si_iter1.push_back(first.Value().ranked[r].score.si);
  }
  const pattern::Extension top_ext =
      first.Value().location.pattern.subgroup.extension;

  // After assimilating the top pattern, every tracked pattern whose
  // extension equals the assimilated one collapses; the others keep (or
  // nearly keep) their SI.
  for (size_t r = 0; r < kTrack; ++r) {
    Result<core::ScoredLocationPattern> rescored =
        session_->ScoreIntention(tracked[r]);
    ASSERT_TRUE(rescored.ok());
    const bool same_extension =
        rescored.Value().pattern.subgroup.extension == top_ext;
    if (same_extension) {
      EXPECT_LT(rescored.Value().score.si, 2.0)
          << "rank " << r << " should have collapsed";
      EXPECT_LT(rescored.Value().score.si, 0.1 * si_iter1[r]);
    } else {
      EXPECT_GT(rescored.Value().score.si, 0.5 * si_iter1[r])
          << "rank " << r << " should have been preserved";
    }
  }
}

TEST_F(SyntheticPipelineTest, RedundantLongerDescriptionsRankLower) {
  Result<core::IterationResult> first = session_->MineNext();
  ASSERT_TRUE(first.ok());
  // Find pairs in the ranked list with identical extensions but different
  // description lengths: the shorter one must have strictly higher SI
  // (Table I: "a4 = '0' AND a3 = '1'" ranks below "a3 = '1'").
  const auto& ranked = first.Value().ranked;
  int pairs_checked = 0;
  for (size_t a = 0; a < ranked.size(); ++a) {
    for (size_t b = a + 1; b < ranked.size(); ++b) {
      if (ranked[a].pattern.subgroup.extension ==
              ranked[b].pattern.subgroup.extension &&
          ranked[a].pattern.subgroup.intention.size() !=
              ranked[b].pattern.subgroup.intention.size()) {
        const auto& shorter =
            ranked[a].pattern.subgroup.intention.size() <
                    ranked[b].pattern.subgroup.intention.size()
                ? ranked[a]
                : ranked[b];
        const auto& longer = &shorter == &ranked[a] ? ranked[b] : ranked[a];
        EXPECT_GT(shorter.score.si, longer.score.si);
        EXPECT_DOUBLE_EQ(shorter.score.ic, longer.score.ic);
        ++pairs_checked;
      }
    }
  }
  EXPECT_GT(pairs_checked, 0) << "expected redundant variants in the top-k";
}

TEST_F(SyntheticPipelineTest, FourthIterationHasMuchLowerSi) {
  double si_first = 0.0, si_fourth = 0.0;
  for (int iter = 0; iter < 4; ++iter) {
    Result<core::IterationResult> result = session_->MineNext();
    ASSERT_TRUE(result.ok());
    if (iter == 0) si_first = result.Value().location.score.si;
    if (iter == 3) si_fourth = result.Value().location.score.si;
  }
  // All planted structure explained after 3 iterations: whatever is found
  // next is far less interesting.
  EXPECT_LT(si_fourth, 0.35 * si_first);
}

TEST_F(SyntheticPipelineTest, DeterministicAcrossRuns) {
  Result<core::MiningSession> other =
      core::MiningSession::Create(data_.dataset, PaperConfig());
  ASSERT_TRUE(other.ok());
  Result<core::IterationResult> a = session_->MineNext();
  Result<core::IterationResult> b = other.Value().MineNext();
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(a.Value().location.pattern.subgroup.intention
                .CanonicalSignature(),
            b.Value().location.pattern.subgroup.intention
                .CanonicalSignature());
  EXPECT_DOUBLE_EQ(a.Value().location.score.si,
                   b.Value().location.score.si);
}

}  // namespace
}  // namespace sisd
