// SessionManager semantics: protocol-driven sessions must be
// indistinguishable from direct MiningSession use (including across LRU
// eviction + restore), generation counters must gate mutations, and the
// lifecycle verbs (save/evict/close) must behave as documented.

#include "serve/session_manager.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <string>
#include <utility>

#include "common/strings.hpp"
#include "datagen/scenarios.hpp"
#include "serialize/json.hpp"
#include "serve/service.hpp"

namespace sisd::serve {
namespace {

core::MinerConfig FastConfig() {
  core::MinerConfig config;
  config.search.beam_width = 8;
  config.search.max_depth = 2;
  config.search.top_k = 20;
  config.search.min_coverage = 5;
  return config;
}

data::Dataset Synthetic() {
  return datagen::MakeScenarioDataset("synthetic").Value();
}

TEST(SessionManagerTest, MineMatchesDirectSessionByteForByte) {
  SessionManager manager(ServeConfig{});
  ASSERT_TRUE(manager.Open("s1", Synthetic(), FastConfig()).ok());
  Result<MineOutcome> outcome = manager.Mine("s1", 3, std::nullopt);
  ASSERT_TRUE(outcome.ok()) << outcome.status().ToString();
  ASSERT_EQ(outcome.Value().iterations.size(), 3u);

  Result<core::MiningSession> direct =
      core::MiningSession::Create(Synthetic(), FastConfig());
  ASSERT_TRUE(direct.ok());
  for (int i = 0; i < 3; ++i) {
    Result<core::IterationResult> iteration = direct.Value().MineNext();
    ASSERT_TRUE(iteration.ok());
    const IterationSummary& summary = outcome.Value().iterations[size_t(i)];
    EXPECT_EQ(summary.location,
              iteration.Value().location.Describe(
                  direct.Value().dataset().descriptions));
    ASSERT_TRUE(summary.spread.has_value());
    EXPECT_EQ(*summary.spread,
              iteration.Value().spread->Describe(
                  direct.Value().dataset().descriptions));
    EXPECT_EQ(summary.candidates, iteration.Value().candidates_evaluated);
  }
  EXPECT_EQ(outcome.Value().generation, 3u);
}

TEST(SessionManagerTest, LruEvictionRoundTripsByteIdentically) {
  // Capacity 1: every touch of one session spills the other through the
  // snapshot codec (in-memory spill here; the disk path is covered below).
  ServeConfig config;
  config.max_resident = 1;
  SessionManager manager(config);
  ASSERT_TRUE(manager.Open("a", Synthetic(), FastConfig()).ok());
  ASSERT_TRUE(manager.Open("b", Synthetic(), FastConfig()).ok());

  // Interleave: each mine forces the other session out and back.
  std::vector<std::string> a_summaries;
  std::vector<std::string> b_summaries;
  for (int i = 0; i < 3; ++i) {
    Result<MineOutcome> a = manager.Mine("a", 1, std::nullopt);
    ASSERT_TRUE(a.ok()) << a.status().ToString();
    a_summaries.push_back(a.Value().iterations.at(0).location);
    Result<MineOutcome> b = manager.Mine("b", 1, std::nullopt);
    ASSERT_TRUE(b.ok()) << b.status().ToString();
    b_summaries.push_back(b.Value().iterations.at(0).location);
  }
  const ManagerStats stats = manager.Stats();
  EXPECT_EQ(stats.resident, 1u);
  EXPECT_GE(stats.evictions, 5u);  // every switch spilled the other
  EXPECT_GE(stats.restores, 4u);

  // An unbroken single session produces the same sequence.
  Result<core::MiningSession> direct =
      core::MiningSession::Create(Synthetic(), FastConfig());
  ASSERT_TRUE(direct.ok());
  for (int i = 0; i < 3; ++i) {
    Result<core::IterationResult> iteration = direct.Value().MineNext();
    ASSERT_TRUE(iteration.ok());
    const std::string expected = iteration.Value().location.Describe(
        direct.Value().dataset().descriptions);
    EXPECT_EQ(a_summaries[size_t(i)], expected);
    EXPECT_EQ(b_summaries[size_t(i)], expected);
  }

  // And the full snapshots agree byte for byte.
  Result<core::MiningSession> a_clone = manager.CloneSession("a");
  ASSERT_TRUE(a_clone.ok());
  EXPECT_EQ(a_clone.Value().SaveToString(),
            direct.Value().SaveToString());
}

TEST(SessionManagerTest, DiskSpillRoundTripsThroughSpillDir) {
  const std::string dir = "/tmp/sisd_session_manager_test_spill";
  std::system(("rm -rf " + dir + " && mkdir -p " + dir).c_str());
  ServeConfig config;
  config.max_resident = 1;
  config.spill_dir = dir;
  SessionManager manager(config);
  ASSERT_TRUE(manager.Open("a", Synthetic(), FastConfig()).ok());
  ASSERT_TRUE(manager.Mine("a", 2, std::nullopt).ok());
  ASSERT_TRUE(manager.Open("b", Synthetic(), FastConfig()).ok());
  // Opening b evicted a to disk; its spill file must exist and restore.
  const std::string path = manager.SpillPathFor("a");
  Result<std::string> spilled = serialize::ReadTextFile(path);
  ASSERT_TRUE(spilled.ok()) << "expected spill file at " << path;
  Result<MineOutcome> resumed = manager.Mine("a", 1, std::nullopt);
  ASSERT_TRUE(resumed.ok()) << resumed.status().ToString();

  Result<core::MiningSession> direct =
      core::MiningSession::Create(Synthetic(), FastConfig());
  ASSERT_TRUE(direct.ok());
  ASSERT_TRUE(direct.Value().MineIterations(2).ok());
  Result<core::IterationResult> third = direct.Value().MineNext();
  ASSERT_TRUE(third.ok());
  EXPECT_EQ(resumed.Value().iterations.at(0).location,
            third.Value().location.Describe(
                direct.Value().dataset().descriptions));

  // Closing a spilled session must not leak its snapshot file.
  ASSERT_TRUE(manager.Evict("b").ok());
  const std::string b_path = manager.SpillPathFor("b");
  ASSERT_TRUE(serialize::ReadTextFile(b_path).ok());
  ASSERT_TRUE(manager.Close("b", /*save=*/false, "").ok());
  EXPECT_FALSE(serialize::ReadTextFile(b_path).ok())
      << "close left a stale spill snapshot at " << b_path;
  // Close with save keeps the (default-path) snapshot on purpose.
  ASSERT_TRUE(manager.Evict("a").ok());
  ASSERT_TRUE(manager.Close("a", /*save=*/true, "").ok());
  EXPECT_TRUE(serialize::ReadTextFile(manager.SpillPathFor("a")).ok());
}

TEST(SessionManagerTest, GenerationCountersGateMutations) {
  SessionManager manager(ServeConfig{});
  ASSERT_TRUE(manager.Open("s", Synthetic(), FastConfig()).ok());
  // Stale generation: rejected with Conflict before any mining happens.
  Result<MineOutcome> stale = manager.Mine("s", 1, uint64_t{5});
  ASSERT_FALSE(stale.ok());
  EXPECT_EQ(stale.status().code(), StatusCode::kConflict);
  EXPECT_EQ(manager.Info("s").Value().iterations, 0u);

  // Matching generation: accepted, generation advances per iteration.
  Result<MineOutcome> ok = manager.Mine("s", 2, uint64_t{0});
  ASSERT_TRUE(ok.ok());
  EXPECT_EQ(ok.Value().generation, 2u);
  Result<MineOutcome> next = manager.Mine("s", 1, uint64_t{2});
  ASSERT_TRUE(next.ok());
  EXPECT_EQ(next.Value().generation, 3u);
}

TEST(SessionManagerTest, AssimilateRegistersIntentionWithoutSearch) {
  SessionManager manager(ServeConfig{});
  ASSERT_TRUE(manager.Open("s", Synthetic(), FastConfig()).ok());
  serialize::JsonValue conditions = serialize::JsonValue::Array();
  serialize::JsonValue condition = serialize::JsonValue::Object();
  condition.Set("attribute", serialize::JsonValue::Str("a3"));
  condition.Set("op", serialize::JsonValue::Str("="));
  condition.Set("level", serialize::JsonValue::Str("1"));
  conditions.Append(std::move(condition));

  Result<MineOutcome> outcome = manager.Assimilate(
      "s",
      [&conditions](const core::MiningSession& session) {
        return ParseConditionSpec(conditions,
                                  session.dataset().descriptions);
      },
      std::nullopt);
  ASSERT_TRUE(outcome.ok()) << outcome.status().ToString();
  ASSERT_EQ(outcome.Value().iterations.size(), 1u);
  EXPECT_EQ(outcome.Value().iterations.at(0).candidates, 0u);
  EXPECT_NE(outcome.Value().iterations.at(0).location.find("a3 = '1'"),
            std::string::npos);
  // Location + spread constraints registered; generation bumped once.
  const SessionInfo info = manager.Info("s").Value();
  EXPECT_EQ(info.generation, 1u);
  EXPECT_EQ(info.iterations, 1u);
  EXPECT_EQ(info.constraints, 2u);

  // Matches MiningSession::AssimilateIntention directly.
  Result<core::MiningSession> direct =
      core::MiningSession::Create(Synthetic(), FastConfig());
  ASSERT_TRUE(direct.ok());
  Result<pattern::Intention> intention = ParseConditionSpec(
      conditions, direct.Value().dataset().descriptions);
  ASSERT_TRUE(intention.ok()) << intention.status().ToString();
  Result<core::IterationResult> direct_result =
      direct.Value().AssimilateIntention(intention.Value());
  ASSERT_TRUE(direct_result.ok());
  EXPECT_EQ(outcome.Value().iterations.at(0).location,
            direct_result.Value().location.Describe(
                direct.Value().dataset().descriptions));

  // After assimilation, mining continues identically in both.
  Result<MineOutcome> mined = manager.Mine("s", 1, std::nullopt);
  ASSERT_TRUE(mined.ok());
  Result<core::IterationResult> direct_mined = direct.Value().MineNext();
  ASSERT_TRUE(direct_mined.ok());
  EXPECT_EQ(mined.Value().iterations.at(0).location,
            direct_mined.Value().location.Describe(
                direct.Value().dataset().descriptions));
}

TEST(SessionManagerTest, CloneIsDetachedFromOriginal) {
  SessionManager manager(ServeConfig{});
  ASSERT_TRUE(manager.Open("s", Synthetic(), FastConfig()).ok());
  ASSERT_TRUE(manager.Mine("s", 1, std::nullopt).ok());
  Result<core::MiningSession> clone = manager.CloneSession("s");
  ASSERT_TRUE(clone.ok());
  EXPECT_EQ(clone.Value().history().size(), 1u);
  // Clone mines ahead; the managed session does not move.
  ASSERT_TRUE(clone.Value().MineNext().ok());
  EXPECT_EQ(manager.Info("s").Value().iterations, 1u);
  // Managed session's next iteration equals the clone's (same state fork).
  Result<MineOutcome> managed = manager.Mine("s", 1, std::nullopt);
  ASSERT_TRUE(managed.ok());
  EXPECT_EQ(managed.Value().iterations.at(0).location,
            clone.Value().history().back().location.Describe(
                clone.Value().dataset().descriptions));
}

TEST(SessionManagerTest, FailedOperationsKeepResidentWithinBudget) {
  // Capacity 1: every call below restores the spilled session and then
  // fails (or takes the no-op rebase path). The eviction policy must
  // still run afterwards, so the session touched before is spilled again.
  ServeConfig config;
  config.max_resident = 1;  // and no spill dir
  SessionManager manager(config);
  Result<catalog::PinnedDataset> preloaded =
      PreloadDataset(*manager.catalog(), "synthetic");
  ASSERT_TRUE(preloaded.ok()) << preloaded.status().ToString();
  const std::string ref = preloaded.Value().dataset->name;
  ASSERT_TRUE(manager.OpenRef("a", ref, FastConfig()).ok());
  ASSERT_TRUE(manager.OpenRef("b", ref, FastConfig()).ok());
  ASSERT_EQ(manager.Stats().resident, 1u);

  std::string spilled = "a";  // opening b spilled a
  std::string resident = "b";
  auto expect_within_budget = [&](StatusCode got, StatusCode want,
                                  const char* call) {
    EXPECT_EQ(got, want) << call << " on " << spilled;
    EXPECT_EQ(manager.Stats().resident, 1u) << call << " on " << spilled;
    std::swap(spilled, resident);  // the call restored `spilled`
  };
  expect_within_budget(manager.Mine(spilled, 1, 7).status().code(),
                       StatusCode::kConflict, "Mine");
  const IntentionBuilder never_called =
      [](const core::MiningSession&) -> Result<pattern::Intention> {
    return pattern::Intention();
  };
  expect_within_budget(
      manager.Assimilate(spilled, never_called, 7).status().code(),
      StatusCode::kConflict, "Assimilate");
  expect_within_budget(
      manager.ExportCsv(spilled, "ranked", std::nullopt).status().code(),
      StatusCode::kInvalidArgument, "ExportCsv");
  expect_within_budget(manager.Save(spilled, "").status().code(),
                       StatusCode::kInvalidArgument, "Save");
  expect_within_budget(manager.Close(spilled, true, "").code(),
                       StatusCode::kInvalidArgument, "Close");
  Result<RebaseInfo> rebased =
      manager.Rebase(spilled, ref, std::nullopt);
  ASSERT_TRUE(rebased.ok()) << rebased.status().ToString();
  EXPECT_TRUE(rebased.Value().reused);
  expect_within_budget(StatusCode::kOk, StatusCode::kOk, "Rebase");

  EXPECT_EQ(manager.Stats().sessions, 2u);
}

TEST(SessionManagerTest, LifecycleErrorsAreTyped) {
  SessionManager manager(ServeConfig{});  // no spill dir
  EXPECT_EQ(manager.Mine("ghost", 1, std::nullopt).status().code(),
            StatusCode::kNotFound);
  ASSERT_TRUE(manager.Open("s", Synthetic(), FastConfig()).ok());
  EXPECT_EQ(manager.Open("s", Synthetic(), FastConfig()).status().code(),
            StatusCode::kAlreadyExists);
  // Save without a spill dir needs an explicit path.
  EXPECT_EQ(manager.Save("s", "").status().code(),
            StatusCode::kInvalidArgument);
  const std::string path = "/tmp/sisd_session_manager_test_save.json";
  Result<SaveOutcome> saved = manager.Save("s", path);
  ASSERT_TRUE(saved.ok());
  EXPECT_EQ(saved.Value().path, path);
  EXPECT_GT(saved.Value().bytes, 0u);
  // The saved file is a loadable snapshot equal to the live state.
  Result<core::MiningSession> restored = core::MiningSession::Restore(path);
  ASSERT_TRUE(restored.ok());
  std::remove(path.c_str());

  // Evict is idempotent; close frees the name for reuse.
  EXPECT_TRUE(manager.Evict("s").ok());
  EXPECT_TRUE(manager.Evict("s").ok());
  EXPECT_TRUE(manager.Close("s", /*save=*/false, "").ok());
  EXPECT_EQ(manager.Close("s", false, "").code(), StatusCode::kNotFound);
  EXPECT_TRUE(manager.Open("s", Synthetic(), FastConfig()).ok());
  const ManagerStats stats = manager.Stats();
  EXPECT_EQ(stats.opens, 2u);
  EXPECT_EQ(stats.closes, 1u);
  EXPECT_EQ(stats.sessions, 1u);
}

TEST(SessionManagerTest, ExportCsvShapes) {
  SessionManager manager(ServeConfig{});
  ASSERT_TRUE(manager.Open("s", Synthetic(), FastConfig()).ok());
  ASSERT_TRUE(manager.Mine("s", 1, std::nullopt).ok());
  Result<std::string> history = manager.ExportCsv("s", "history",
                                                  std::nullopt);
  ASSERT_TRUE(history.ok());
  EXPECT_NE(history.Value().find("iteration,intention"), std::string::npos);
  Result<std::string> ranked = manager.ExportCsv("s", "ranked", size_t{1});
  ASSERT_TRUE(ranked.ok());
  EXPECT_NE(ranked.Value().find("rank,intention"), std::string::npos);
  EXPECT_EQ(manager.ExportCsv("s", "ranked", size_t{9}).status().code(),
            StatusCode::kOutOfRange);
  EXPECT_EQ(manager.ExportCsv("s", "nope", std::nullopt).status().code(),
            StatusCode::kInvalidArgument);
}

TEST(SessionManagerTest, SixtyFourSessionsShareDatasetAndPoolInstances) {
  // The tentpole guarantee: 64 sessions opened on one catalog dataset
  // share a single Dataset and a single ConditionPool instance (pointer
  // identity), and mining output is byte-identical to sessions that own
  // private per-session copies.
  SessionManager manager(ServeConfig{});
  Result<catalog::PinnedDataset> loaded =
      manager.catalog()->Intern(Synthetic(), /*pin=*/false, /*retain=*/true);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  const std::string ref = loaded.Value().dataset->name;

  constexpr int kSessions = 64;
  for (int i = 0; i < kSessions; ++i) {
    Result<SessionInfo> opened =
        manager.OpenRef(StrFormat("s%d", i), ref, FastConfig());
    ASSERT_TRUE(opened.ok()) << opened.status().ToString();
  }
  // Exactly one catalog entry with one pool and 64 pins.
  const std::vector<catalog::CatalogEntryInfo> listing =
      manager.catalog()->List();
  ASSERT_EQ(listing.size(), 1u);
  EXPECT_EQ(listing[0].sessions, 64u);
  EXPECT_EQ(listing[0].pools, 1u);

  // Pointer identity across all sessions (clones share the originals'
  // dataset/pool pointers).
  const data::Dataset* dataset_instance = nullptr;
  const search::ConditionPool* pool_instance = nullptr;
  for (int i = 0; i < kSessions; ++i) {
    Result<core::MiningSession> clone =
        manager.CloneSession(StrFormat("s%d", i));
    ASSERT_TRUE(clone.ok());
    if (i == 0) {
      dataset_instance = clone.Value().shared_dataset().get();
      pool_instance = clone.Value().shared_condition_pool().get();
      ASSERT_NE(dataset_instance, nullptr);
      ASSERT_NE(pool_instance, nullptr);
    } else {
      EXPECT_EQ(clone.Value().shared_dataset().get(), dataset_instance);
      EXPECT_EQ(clone.Value().shared_condition_pool().get(), pool_instance);
    }
  }

  // Catalog-shared sessions mine byte-identically to a per-session copy.
  Result<MineOutcome> shared_mine = manager.Mine("s0", 2, std::nullopt);
  ASSERT_TRUE(shared_mine.ok());
  Result<core::MiningSession> copy =
      core::MiningSession::Create(Synthetic(), FastConfig());
  ASSERT_TRUE(copy.ok());
  for (int i = 0; i < 2; ++i) {
    Result<core::IterationResult> iteration = copy.Value().MineNext();
    ASSERT_TRUE(iteration.ok());
    EXPECT_EQ(shared_mine.Value().iterations.at(size_t(i)).location,
              iteration.Value().location.Describe(
                  copy.Value().dataset().descriptions));
  }
}

TEST(SessionManagerTest, DatasetRefSpillRoundTripsByteIdentically) {
  // Eviction spills catalog-origin sessions in dataset_ref form (no
  // embedded dataset); restore resolves through the catalog and mining
  // continues byte-identically to an unbroken session.
  const std::string dir = "/tmp/sisd_session_manager_test_ref_spill";
  std::system(("rm -rf " + dir + " && mkdir -p " + dir).c_str());
  ServeConfig config;
  config.spill_dir = dir;
  SessionManager manager(config);
  Result<catalog::PinnedDataset> loaded =
      manager.catalog()->Intern(Synthetic(), /*pin=*/false, /*retain=*/true);
  ASSERT_TRUE(loaded.ok());
  ASSERT_TRUE(
      manager.OpenRef("s", loaded.Value().dataset->name, FastConfig()).ok());
  ASSERT_TRUE(manager.Mine("s", 1, std::nullopt).ok());
  ASSERT_TRUE(manager.Evict("s").ok());

  // The spill snapshot addresses the dataset by fingerprint, not inline.
  Result<std::string> spilled =
      serialize::ReadTextFile(manager.SpillPathFor("s"));
  ASSERT_TRUE(spilled.ok());
  EXPECT_NE(spilled.Value().find("\"dataset_ref\":"), std::string::npos);
  EXPECT_EQ(spilled.Value().find("\"dataset\":"), std::string::npos);
  EXPECT_NE(spilled.Value().find(catalog::FingerprintToHex(
                loaded.Value().fingerprint)),
            std::string::npos);

  // Restore-on-touch: identical continuation, and the restored session
  // shares the catalog instances again.
  Result<MineOutcome> resumed = manager.Mine("s", 1, std::nullopt);
  ASSERT_TRUE(resumed.ok()) << resumed.status().ToString();
  Result<core::MiningSession> direct =
      core::MiningSession::Create(Synthetic(), FastConfig());
  ASSERT_TRUE(direct.ok());
  ASSERT_TRUE(direct.Value().MineNext().ok());
  Result<core::IterationResult> second = direct.Value().MineNext();
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(resumed.Value().iterations.at(0).location,
            second.Value().location.Describe(
                direct.Value().dataset().descriptions));
  Result<core::MiningSession> clone = manager.CloneSession("s");
  ASSERT_TRUE(clone.ok());
  EXPECT_EQ(clone.Value().shared_dataset().get(),
            loaded.Value().dataset.get());
  // Full state equality with the unbroken session (inline snapshots).
  EXPECT_EQ(clone.Value().SaveToString(), direct.Value().SaveToString());

  // While the session exists (even spilled), the dataset cannot be
  // dropped; after close it can.
  ASSERT_TRUE(manager.Evict("s").ok());
  EXPECT_EQ(manager.catalog()->Drop(loaded.Value().dataset->name).code(),
            StatusCode::kConflict);
  ASSERT_TRUE(manager.Close("s", /*save=*/false, "").ok());
  EXPECT_TRUE(manager.catalog()->Drop(loaded.Value().dataset->name).ok());
  std::system(("rm -rf " + dir).c_str());
}

TEST(SessionManagerTest, InlineRestoreAdoptsCatalogInstances) {
  // A self-contained (inline) snapshot restored through a catalog that
  // already holds the same content adopts the shared dataset + pool.
  SessionManager manager(ServeConfig{});
  ASSERT_TRUE(manager.Open("s", Synthetic(), FastConfig()).ok());
  Result<core::MiningSession> clone = manager.CloneSession("s");
  ASSERT_TRUE(clone.ok());
  const std::string inline_snapshot = clone.Value().SaveToString();
  EXPECT_NE(inline_snapshot.find("\"dataset\":"), std::string::npos);

  Result<core::MiningSession> restored =
      core::MiningSession::RestoreFromString(inline_snapshot,
                                             manager.catalog().get());
  ASSERT_TRUE(restored.ok()) << restored.status().ToString();
  EXPECT_EQ(restored.Value().shared_dataset().get(),
            clone.Value().shared_dataset().get());
  EXPECT_EQ(restored.Value().shared_condition_pool().get(),
            clone.Value().shared_condition_pool().get());
  ASSERT_TRUE(restored.Value().dataset_origin().has_value());

  // Without a catalog the same snapshot still restores (private copies).
  Result<core::MiningSession> standalone =
      core::MiningSession::RestoreFromString(inline_snapshot);
  ASSERT_TRUE(standalone.ok());
  EXPECT_NE(standalone.Value().shared_dataset().get(),
            clone.Value().shared_dataset().get());
  // A ref-form snapshot without a catalog is a typed error.
  const std::string ref_snapshot =
      clone.Value().SaveToString(core::SnapshotForm::kDatasetRef);
  EXPECT_EQ(core::MiningSession::RestoreFromString(ref_snapshot)
                .status()
                .code(),
            StatusCode::kInvalidArgument);
}

}  // namespace
}  // namespace sisd::serve
