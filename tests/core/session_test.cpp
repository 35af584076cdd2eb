/// MiningSession: owning-dataset semantics and snapshot save/restore
/// mechanics.

#include "core/session.hpp"

#include <cmath>
#include <cstdio>
#include <initializer_list>
#include <limits>
#include <memory>
#include <optional>
#include <string>
#include <utility>

#include <gtest/gtest.h>

#include "datagen/synthetic.hpp"

namespace sisd::core {
namespace {

MinerConfig FastConfig() {
  MinerConfig config;
  config.search.beam_width = 10;
  config.search.max_depth = 2;
  config.search.top_k = 20;
  config.search.min_coverage = 5;
  config.spread_optimizer.num_random_starts = 2;
  return config;
}

TEST(MiningSessionTest, OwnsItsDataset) {
  // The dataset handed to Create is moved into the session: no external
  // object needs to stay alive.
  Result<MiningSession> session = MiningSession::Create(
      datagen::MakeSyntheticEmbedded().dataset, FastConfig());
  ASSERT_TRUE(session.ok()) << session.status().ToString();
  Result<IterationResult> iteration = session.Value().MineNext();
  ASSERT_TRUE(iteration.ok()) << iteration.status().ToString();
  EXPECT_EQ(iteration.Value().location.pattern.subgroup.Coverage(), 40u);
  EXPECT_EQ(session.Value().history().size(), 1u);
}

TEST(MiningSessionTest, SharedDatasetCreateValidates) {
  EXPECT_FALSE(MiningSession::Create(
                   std::shared_ptr<const data::Dataset>(), FastConfig())
                   .ok());
  auto dataset = std::make_shared<const data::Dataset>(
      datagen::MakeSyntheticEmbedded().dataset);
  Result<MiningSession> session =
      MiningSession::Create(dataset, FastConfig());
  ASSERT_TRUE(session.ok());
  EXPECT_EQ(session.Value().shared_dataset().get(), dataset.get());
}

TEST(MiningSessionTest, SnapshotTextRoundTripIsByteIdentical) {
  Result<MiningSession> session = MiningSession::Create(
      datagen::MakeSyntheticEmbedded().dataset, FastConfig());
  ASSERT_TRUE(session.ok());
  ASSERT_TRUE(session.Value().MineNext().ok());

  const std::string saved = session.Value().SaveToString();
  Result<MiningSession> restored = MiningSession::RestoreFromString(saved);
  ASSERT_TRUE(restored.ok()) << restored.status().ToString();
  // Re-saving the restored session reproduces the exact snapshot bytes.
  EXPECT_EQ(restored.Value().SaveToString(), saved);
  // Restored session state mirrors the original.
  EXPECT_EQ(restored.Value().history().size(), 1u);
  EXPECT_EQ(restored.Value().model().num_groups(),
            session.Value().model().num_groups());
  EXPECT_EQ(restored.Value().assimilator().num_constraints(),
            session.Value().assimilator().num_constraints());
  EXPECT_EQ(restored.Value().condition_pool().size(),
            session.Value().condition_pool().size());
}

TEST(MiningSessionTest, SaveRestoreFileRoundTrip) {
  const std::string path = "/tmp/sisd_session_test_snapshot.json";
  Result<MiningSession> session = MiningSession::Create(
      datagen::MakeSyntheticEmbedded().dataset, FastConfig());
  ASSERT_TRUE(session.ok());
  ASSERT_TRUE(session.Value().MineNext().ok());
  ASSERT_TRUE(session.Value().Save(path).ok());

  Result<MiningSession> restored = MiningSession::Restore(path);
  ASSERT_TRUE(restored.ok()) << restored.status().ToString();
  EXPECT_EQ(restored.Value().SaveToString(), session.Value().SaveToString());
  std::remove(path.c_str());
  EXPECT_FALSE(MiningSession::Restore(path).ok());
}

TEST(MiningSessionTest, RestoreRejectsForeignAndFutureSnapshots) {
  EXPECT_FALSE(MiningSession::RestoreFromString("not json").ok());
  EXPECT_FALSE(MiningSession::RestoreFromString("{}").ok());
  EXPECT_FALSE(MiningSession::RestoreFromString(
                   "{\"format\":\"something-else\",\"schema_version\":1}")
                   .ok());
  // A future schema version is rejected loudly, not half-parsed.
  Result<MiningSession> session = MiningSession::Create(
      datagen::MakeSyntheticEmbedded().dataset, FastConfig());
  ASSERT_TRUE(session.ok());
  std::string text = session.Value().SaveToString();
  const std::string tag = "\"schema_version\":1";
  const size_t pos = text.find(tag);
  ASSERT_NE(pos, std::string::npos);
  text.replace(pos, tag.size(), "\"schema_version\":999");
  Result<MiningSession> future = MiningSession::RestoreFromString(text);
  EXPECT_FALSE(future.ok());
  EXPECT_NE(future.status().message().find("schema version"),
            std::string::npos);
}

TEST(MiningSessionTest, CreateRejectsSearchConfigsTheSearchCannotRun) {
  const auto create = [](const MinerConfig& config) {
    return MiningSession::Create(datagen::MakeSyntheticEmbedded().dataset,
                                 config);
  };
  MinerConfig config = FastConfig();
  config.search.beam_width = 0;
  EXPECT_EQ(create(config).status().code(), StatusCode::kInvalidArgument);
  config = FastConfig();
  config.search.max_depth = -3;
  EXPECT_EQ(create(config).status().code(), StatusCode::kInvalidArgument);
  config = FastConfig();
  config.search.num_split_points = 0;
  EXPECT_EQ(create(config).status().code(), StatusCode::kInvalidArgument);
  config = FastConfig();
  config.search.max_coverage_fraction =
      std::numeric_limits<double>::quiet_NaN();
  EXPECT_EQ(create(config).status().code(), StatusCode::kInvalidArgument);
  config = FastConfig();
  config.search.top_k = 0;
  EXPECT_EQ(create(config).status().code(), StatusCode::kInvalidArgument);
  // Description lengths must be positive for every pattern.
  for (const auto& [gamma, eta] :
       {std::pair<double, double>{0.0, 0.0}, {-1.0, 0.5}, {0.1, -1.0},
        {std::numeric_limits<double>::infinity(), 1.0},
        {0.1, std::numeric_limits<double>::quiet_NaN()}}) {
    config = FastConfig();
    config.dl.gamma = gamma;
    config.dl.eta = eta;
    EXPECT_EQ(create(config).status().code(), StatusCode::kInvalidArgument)
        << "gamma=" << gamma << " eta=" << eta;
  }
  for (const int sparsity : {-3, 1, 7}) {
    config = FastConfig();
    config.spread_sparsity = sparsity;
    EXPECT_EQ(create(config).status().code(), StatusCode::kInvalidArgument)
        << sparsity;
  }
  // The shared-pool overload checks the same rules.
  config = FastConfig();
  config.spread_sparsity = 7;
  auto dataset = std::make_shared<const data::Dataset>(
      datagen::MakeSyntheticEmbedded().dataset);
  auto pool = std::make_shared<const search::ConditionPool>(
      search::ConditionPool::Build(dataset->descriptions, 4, false));
  EXPECT_EQ(MiningSession::Create(dataset, config, pool, std::nullopt)
                .status()
                .code(),
            StatusCode::kInvalidArgument);
}

TEST(MiningSessionTest, RestoreRejectsSnapshotsWithInvalidSearchConfig) {
  // A snapshot's config is client data too: a setting the miner cannot
  // use, or an int field beyond the int range, fails the load with
  // InvalidArgument instead of aborting at the first mine or wrapping.
  Result<MiningSession> session = MiningSession::Create(
      datagen::MakeSyntheticEmbedded().dataset, FastConfig());
  ASSERT_TRUE(session.ok());
  const std::string saved = session.Value().SaveToString();
  const std::string beam_tag = "\"beam_width\":10";
  const std::string top_k_tag = "\"top_k\":20";
  const std::string gamma_tag = "\"gamma\":0.10000000000000001";
  const std::string sparsity_tag = "\"spread_sparsity\":0";
  for (const auto& [tag, bad] : std::initializer_list<
           std::pair<std::string, std::string>>{
           {beam_tag, "\"beam_width\":0"},
           {beam_tag, "\"beam_width\":-3"},
           {beam_tag, "\"beam_width\":4294967297"},
           {top_k_tag, "\"top_k\":0"},
           {gamma_tag, "\"gamma\":-1"},
           {sparsity_tag, "\"spread_sparsity\":7"}}) {
    std::string text = saved;
    ASSERT_NE(text.find(tag), std::string::npos) << tag;
    text.replace(text.find(tag), tag.size(), bad);
    Result<MiningSession> restored = MiningSession::RestoreFromString(text);
    ASSERT_FALSE(restored.ok()) << bad;
    EXPECT_EQ(restored.status().code(), StatusCode::kInvalidArgument) << bad;
  }
}

TEST(MiningSessionTest, ConfigRoundTripsThroughSnapshots) {
  MinerConfig config = FastConfig();
  config.mix = PatternMix::kLocationOnly;
  config.spread_sparsity = 2;
  config.dl.gamma = 0.25;
  config.search.time_budget_seconds =
      std::numeric_limits<double>::infinity();  // nonfinite must survive
  config.prior_mean = linalg::Vector{0.1, -0.2};
  config.prior_covariance = linalg::Matrix{{2.0, 0.3}, {0.3, 1.5}};
  config.use_optimal_search = true;

  Result<MiningSession> session = MiningSession::Create(
      datagen::MakeSyntheticEmbedded().dataset, config);
  ASSERT_TRUE(session.ok()) << session.status().ToString();
  Result<MiningSession> restored =
      MiningSession::RestoreFromString(session.Value().SaveToString());
  ASSERT_TRUE(restored.ok()) << restored.status().ToString();
  const MinerConfig& back = restored.Value().config();
  EXPECT_EQ(back.mix, PatternMix::kLocationOnly);
  EXPECT_EQ(back.spread_sparsity, 2);
  EXPECT_EQ(back.dl.gamma, 0.25);
  EXPECT_TRUE(std::isinf(back.search.time_budget_seconds));
  ASSERT_TRUE(back.prior_mean.has_value());
  EXPECT_EQ(*back.prior_mean, *config.prior_mean);
  ASSERT_TRUE(back.prior_covariance.has_value());
  EXPECT_EQ(*back.prior_covariance, *config.prior_covariance);
  EXPECT_TRUE(back.use_optimal_search);
}

TEST(MiningSessionTest, OptimalSearchMinesTheProvableOptimum) {
  // On the synthetic data the beam reaches the global optimum, so the
  // branch-and-bound session must return the exact same first pattern.
  MinerConfig config = FastConfig();
  config.mix = PatternMix::kLocationOnly;
  Result<MiningSession> beam = MiningSession::Create(
      datagen::MakeSyntheticEmbedded().dataset, config);
  ASSERT_TRUE(beam.ok());
  Result<IterationResult> beam_it = beam.Value().MineNext();
  ASSERT_TRUE(beam_it.ok()) << beam_it.status().ToString();

  config.use_optimal_search = true;
  Result<MiningSession> optimal = MiningSession::Create(
      datagen::MakeSyntheticEmbedded().dataset, config);
  ASSERT_TRUE(optimal.ok());
  Result<IterationResult> optimal_it = optimal.Value().MineNext();
  ASSERT_TRUE(optimal_it.ok()) << optimal_it.status().ToString();

  EXPECT_EQ(optimal_it.Value().location.score.si,
            beam_it.Value().location.score.si);
  EXPECT_EQ(optimal_it.Value().location.pattern.subgroup.Coverage(), 40u);
}

}  // namespace
}  // namespace sisd::core
