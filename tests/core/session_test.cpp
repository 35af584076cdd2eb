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
#include <vector>

#include <gtest/gtest.h>

#include "core/export.hpp"
#include "data/csv.hpp"
#include "datagen/scenarios.hpp"
#include "datagen/synthetic.hpp"
#include "serialize/json.hpp"

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
  const std::string tag = "\"schema_version\":2";
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
  // A negative budget fails every mine and NaN ignores the budget.
  for (const double budget :
       {-1.0, -5.0, std::numeric_limits<double>::quiet_NaN(),
        -std::numeric_limits<double>::infinity()}) {
    config = FastConfig();
    config.search.time_budget_seconds = budget;
    EXPECT_EQ(create(config).status().code(), StatusCode::kInvalidArgument)
        << "time_budget_seconds=" << budget;
  }
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
  // List-gain costs must be non-negative and the variance floor positive.
  constexpr double kInf = std::numeric_limits<double>::infinity();
  constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();
  for (const double cost : {-1e9, -5.0, kInf, kNaN}) {
    config = FastConfig();
    config.list_gain.alpha = cost;
    EXPECT_EQ(create(config).status().code(), StatusCode::kInvalidArgument)
        << "alpha=" << cost;
    config = FastConfig();
    config.list_gain.beta = cost;
    EXPECT_EQ(create(config).status().code(), StatusCode::kInvalidArgument)
        << "beta=" << cost;
  }
  for (const double floor : {0.0, -1e-9, kInf, kNaN}) {
    config = FastConfig();
    config.list_gain.variance_floor = floor;
    EXPECT_EQ(create(config).status().code(), StatusCode::kInvalidArgument)
        << "variance_floor=" << floor;
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
  const std::string list_gain_tag =
      "\"list_gain\":{\"alpha\":0.5,\"beta\":1.0,"
      "\"variance_floor\":1.0000000000000001e-09";
  for (const auto& [tag, bad] : std::initializer_list<
           std::pair<std::string, std::string>>{
           {beam_tag, "\"beam_width\":0"},
           {beam_tag, "\"beam_width\":-3"},
           {beam_tag, "\"beam_width\":4294967297"},
           {top_k_tag, "\"top_k\":0"},
           {gamma_tag, "\"gamma\":-1"},
           {sparsity_tag, "\"spread_sparsity\":7"},
           {list_gain_tag,
            "\"list_gain\":{\"alpha\":0.5,\"beta\":-1e9,"
            "\"variance_floor\":1.0000000000000001e-09"},
           {list_gain_tag,
            "\"list_gain\":{\"alpha\":-5,\"beta\":1.0,"
            "\"variance_floor\":1.0000000000000001e-09"},
           {list_gain_tag,
            "\"list_gain\":{\"alpha\":0.5,\"beta\":1.0,"
            "\"variance_floor\":0"}}) {
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

TEST(MiningSessionTest, SnapshotStoresEachHistoryFactOnce) {
  // A ranked entry is its intention and IC; the location is ranked[0] and
  // the spread pattern shares its subgroup, so neither is stored again.
  Result<MiningSession> session = MiningSession::Create(
      datagen::MakeSyntheticEmbedded().dataset, FastConfig());
  ASSERT_TRUE(session.ok());
  ASSERT_TRUE(session.Value().MineNext().ok());
  Result<serialize::JsonValue> root =
      serialize::JsonValue::Parse(session.Value().SaveToString());
  ASSERT_TRUE(root.ok());
  const serialize::JsonValue& iteration =
      root.Value().Find("history")->items().front();
  EXPECT_EQ(iteration.Find("location"), nullptr);
  ASSERT_NE(iteration.Find("spread"), nullptr);
  EXPECT_EQ(iteration.Find("spread")->Find("subgroup"), nullptr);
  const serialize::JsonValue& ranked = *iteration.Find("ranked");
  ASSERT_EQ(ranked.size(), session.Value().history()[0].ranked.size());
  for (const serialize::JsonValue& entry : ranked.items()) {
    ASSERT_EQ(entry.size(), 2u);
    EXPECT_EQ(entry.members()[0].first, "intention");
    EXPECT_EQ(entry.members()[1].first, "ic");
  }
}

/// Sixty rows with one numeric and one binary description attribute.
data::Dataset MixedDataset() {
  constexpr size_t kRows = 60;
  std::vector<double> x(kRows);
  std::vector<bool> flag(kRows);
  data::Dataset out;
  out.name = "mixed";
  out.targets = linalg::Matrix(kRows, 1);
  out.target_names = {"y"};
  for (size_t i = 0; i < kRows; ++i) {
    x[i] = double(i) / double(kRows);
    flag[i] = i % 3 == 0;
    out.targets(i, 0) = (flag[i] ? 2.0 : 0.0) + 0.01 * double(i % 7);
  }
  out.descriptions.AddColumn(data::Column::Numeric("x", x)).CheckOK();
  out.descriptions.AddColumn(data::Column::Binary("flag", flag)).CheckOK();
  return out;
}

TEST(MiningSessionTest, RestoreRejectsIntentionsTheDatasetCannotEvaluate) {
  // Snapshot intentions are client data: one naming a column the dataset
  // lacks, an op the column kind does not support, or a level outside the
  // label table fails the load instead of reading out of bounds later.
  MinerConfig config = FastConfig();
  config.mix = PatternMix::kLocationOnly;
  Result<MiningSession> session = MiningSession::Create(MixedDataset(), config);
  ASSERT_TRUE(session.ok()) << session.status().ToString();
  ASSERT_TRUE(session.Value()
                  .AssimilateIntention(pattern::Intention(
                      {pattern::Condition::LessEqual(0, 0.5),
                       pattern::Condition::Equals(1, 1)}))
                  .ok());
  ASSERT_TRUE(session.Value().MineList(1).ok());
  ASSERT_EQ(session.Value().list_history().size(), 1u);
  const std::string saved = session.Value().SaveToString();
  ASSERT_TRUE(MiningSession::RestoreFromString(saved).ok());

  for (const char* section : {"\"history\":", "\"list_history\":"}) {
    for (const auto& [bad, reason] : std::initializer_list<
             std::pair<const char*, const char*>>{
             {R"({"attribute":99,"op":"le","threshold":0.5,"level":0})",
              "attribute 99"},
             {R"({"attribute":0,"op":"eq","threshold":0.0,"level":1})",
              "does not suit numeric attribute 'x'"},
             {R"({"attribute":1,"op":"eq","threshold":0.0,"level":1000})",
              "level 1000"},
             {R"({"attribute":1,"op":"eq","threshold":0.0,"level":4294967297})",
              "out of int range"}}) {
      // Replace the first condition of the section's first intention.
      std::string text = saved;
      const size_t intention =
          text.find("\"intention\":[{", text.find(section));
      ASSERT_NE(intention, std::string::npos) << section;
      const size_t begin = text.find('{', intention);
      text.replace(begin, text.find('}', begin) + 1 - begin, bad);
      Result<MiningSession> restored = MiningSession::RestoreFromString(text);
      ASSERT_FALSE(restored.ok()) << section << bad;
      EXPECT_EQ(restored.status().code(), StatusCode::kInvalidArgument)
          << section << bad;
      EXPECT_NE(restored.status().message().find(reason), std::string::npos)
          << restored.status().ToString();
    }
  }
}

TEST(MiningSessionTest, RestoresVersionOneSnapshots) {
  // Written by a schema-version-1 build with `sisd_cli mine --scenario
  // synthetic --iterations 2 --top-k 5 --beam-width 8 --max-depth 2
  // --session-save`, then grown with `sisd_cli list --rules 1
  // --session-save`. Its stored extensions, means, DLs and SIs are ignored
  // and rebuilt; the rebuilt session must equal a fresh one.
  Result<std::string> text = serialize::ReadTextFile(SISD_SESSION_V1_FIXTURE);
  ASSERT_TRUE(text.ok()) << text.status().ToString();
  ASSERT_NE(text.Value().find("\"schema_version\":1,"), std::string::npos);
  Result<MiningSession> restored =
      MiningSession::RestoreFromString(text.Value());
  ASSERT_TRUE(restored.ok()) << restored.status().ToString();

  Result<data::Dataset> dataset = datagen::MakeScenarioDataset("synthetic");
  ASSERT_TRUE(dataset.ok());
  Result<MiningSession> fresh = MiningSession::Create(
      std::move(dataset).MoveValue(), restored.Value().config());
  ASSERT_TRUE(fresh.ok());
  ASSERT_TRUE(fresh.Value().MineIterations(2).ok());
  ASSERT_TRUE(fresh.Value().MineList(1).ok());

  MiningSession& a = restored.Value();
  MiningSession& b = fresh.Value();
  const data::DataTable& table = b.dataset().descriptions;
  ASSERT_EQ(a.history().size(), 2u);
  ASSERT_EQ(b.history().size(), 2u);
  for (size_t i = 0; i < 2; ++i) {
    const IterationResult& x = a.history()[i];
    const IterationResult& y = b.history()[i];
    EXPECT_EQ(x.location.Describe(table), y.location.Describe(table));
    ASSERT_TRUE(x.spread.has_value());
    ASSERT_TRUE(y.spread.has_value());
    EXPECT_EQ(x.spread->Describe(table), y.spread->Describe(table));
    EXPECT_EQ(data::WriteCsvText(RankedListTable(x, table)),
              data::WriteCsvText(RankedListTable(y, table)));
    ASSERT_EQ(x.ranked.size(), y.ranked.size());
    for (size_t j = 0; j < x.ranked.size(); ++j) {
      EXPECT_EQ(x.ranked[j].pattern.subgroup.extension,
                y.ranked[j].pattern.subgroup.extension);
      EXPECT_EQ(x.ranked[j].pattern.mean, y.ranked[j].pattern.mean);
    }
  }
  EXPECT_EQ(a.list_history().size(), b.list_history().size());

  Result<IterationResult> next_a = a.MineNext();
  Result<IterationResult> next_b = b.MineNext();
  ASSERT_TRUE(next_a.ok());
  ASSERT_TRUE(next_b.ok());
  EXPECT_EQ(data::WriteCsvText(RankedListTable(next_a.Value(), table)),
            data::WriteCsvText(RankedListTable(next_b.Value(), table)));
  // Everything else agrees too: both sessions now save the same bytes.
  EXPECT_EQ(a.SaveToString(), b.SaveToString());
}

}  // namespace
}  // namespace sisd::core
