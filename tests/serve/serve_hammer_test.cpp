// Concurrency hammer for the SessionManager: N threads interleave
// open/mine/save/history/evict/clone/close against one manager with a
// tight residency budget, so LRU spills, restores and the shared scoring
// pool all run under contention. Run under ThreadSanitizer by
// scripts/check_tsan.sh; the assertions here check the invariants that
// must survive any interleaving (typed errors only, consistent final
// counters, byte-identical per-session results afterwards).

#include <gtest/gtest.h>

#include <atomic>
#include <string>
#include <thread>
#include <vector>

#include "common/strings.hpp"
#include "datagen/scenarios.hpp"
#include "serve/session_manager.hpp"

namespace sisd::serve {
namespace {

core::MinerConfig TinyConfig() {
  core::MinerConfig config;
  config.search.beam_width = 4;
  config.search.max_depth = 1;
  config.search.top_k = 5;
  config.search.min_coverage = 5;
  config.mix = core::PatternMix::kLocationOnly;
  return config;
}

TEST(ServeHammerTest, InterleavedVerbsStayRaceFreeAndTyped) {
  ServeConfig config;
  config.max_resident = 2;  // force eviction churn under contention
  config.num_threads = 2;   // shared pool exercised concurrently
  SessionManager manager(config);

  constexpr int kThreads = 4;
  constexpr int kOpsPerThread = 14;  // two full cycles of the op schedule
  std::atomic<int> hard_failures{0};

  auto worker = [&](int worker_id) {
    const std::string mine_name = "worker-" + std::to_string(worker_id);
    if (!manager
             .Open(mine_name,
                   datagen::MakeScenarioDataset("synthetic").Value(),
                   TinyConfig())
             .ok()) {
      hard_failures.fetch_add(1);
      return;
    }
    for (int op = 0; op < kOpsPerThread; ++op) {
      // Every thread also pokes a neighbour's session, so map and entry
      // locks interleave across threads (not just across names).
      const std::string other =
          "worker-" + std::to_string((worker_id + 1) % kThreads);
      switch (op % 7) {
        case 0:
        case 1: {
          Result<MineOutcome> mined =
              manager.Mine(mine_name, 1, std::nullopt);
          // NotFound = search exhausted — legal; anything else is a bug.
          if (!mined.ok() &&
              mined.status().code() != StatusCode::kNotFound) {
            hard_failures.fetch_add(1);
          }
          break;
        }
        case 2: {
          const Status status = manager.Evict(other);
          if (!status.ok() && status.code() != StatusCode::kNotFound) {
            hard_failures.fetch_add(1);
          }
          break;
        }
        case 3: {
          Result<std::vector<IterationSummary>> history =
              manager.History(other);
          if (!history.ok() &&
              history.status().code() != StatusCode::kNotFound) {
            hard_failures.fetch_add(1);
          }
          break;
        }
        case 4: {
          Result<SaveOutcome> saved = manager.Save(
              mine_name, "/tmp/sisd_hammer_" + mine_name + ".json");
          if (!saved.ok()) hard_failures.fetch_add(1);
          break;
        }
        case 5: {
          Result<core::MiningSession> clone =
              manager.CloneSession(other);
          if (!clone.ok() &&
              clone.status().code() != StatusCode::kNotFound) {
            hard_failures.fetch_add(1);
          }
          break;
        }
        case 6: {
          // Subgroup-list round on the own session: exhaustion is a
          // success with zero rules, so any error is a bug.
          Result<MineListOutcome> listed =
              manager.MineList(mine_name, 1, std::nullopt);
          if (!listed.ok()) hard_failures.fetch_add(1);
          break;
        }
      }
      (void)manager.Stats();
    }
  };

  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) threads.emplace_back(worker, t);
  for (std::thread& t : threads) t.join();

  EXPECT_EQ(hard_failures.load(), 0);
  // Every call re-runs the eviction policy on its way out, failed ones
  // (an exhausted first mine after a restore) included, so the budget
  // holds once the threads have joined.
  const ManagerStats stats = manager.Stats();
  EXPECT_EQ(stats.sessions, size_t(kThreads));
  EXPECT_LE(stats.resident, config.max_resident);
  EXPECT_EQ(stats.opens, uint64_t(kThreads));
  EXPECT_EQ(manager.SessionNames().size(), size_t(kThreads));

  // After the storm every session still mines deterministically: the ops
  // each worker ran on its own session form a fixed schedule (mine on
  // op%7 in {0,1}, a list round on op%7 == 6; neighbour pokes never
  // mutate), so a fresh session replaying that schedule must produce a
  // byte-identical snapshot — iterative history, subgroup list and all.
  for (int t = 0; t < kThreads; ++t) {
    const std::string name = "worker-" + std::to_string(t);
    Result<core::MiningSession> clone = manager.CloneSession(name);
    ASSERT_TRUE(clone.ok()) << clone.status().ToString();
    Result<core::MiningSession> replay = core::MiningSession::Create(
        datagen::MakeScenarioDataset("synthetic").Value(), TinyConfig());
    ASSERT_TRUE(replay.ok());
    for (int op = 0; op < kOpsPerThread; ++op) {
      const int kind = op % 7;
      if (kind == 0 || kind == 1) {
        Result<core::IterationResult> mined = replay.Value().MineNext();
        if (!mined.ok()) {
          ASSERT_EQ(mined.status().code(), StatusCode::kNotFound)
              << mined.status().ToString();
        }
      } else if (kind == 6) {
        ASSERT_TRUE(replay.Value().MineList(1).ok());
      }
    }
    EXPECT_EQ(clone.Value().SaveToString(), replay.Value().SaveToString())
        << "session " << name << " diverged from a deterministic replay";
  }
}

TEST(ServeHammerTest, ConcurrentOpenCloseOnOneNameIsSafe) {
  SessionManager manager((ServeConfig()));
  constexpr int kThreads = 4;
  std::atomic<int> unexpected{0};
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&manager, &unexpected] {
      for (int i = 0; i < 8; ++i) {
        Result<SessionInfo> opened = manager.Open(
            "contested", datagen::MakeScenarioDataset("synthetic").Value(),
            TinyConfig());
        if (!opened.ok() &&
            opened.status().code() != StatusCode::kAlreadyExists) {
          unexpected.fetch_add(1);
        }
        const Status closed = manager.Close("contested", false, "");
        if (!closed.ok() && closed.code() != StatusCode::kNotFound) {
          unexpected.fetch_add(1);
        }
      }
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(unexpected.load(), 0);
  // The map is consistent afterwards: the name is open or free, and if
  // free it can be opened exactly once.
  (void)manager.Close("contested", false, "");
  Result<SessionInfo> reopen = manager.Open(
      "contested", datagen::MakeScenarioDataset("synthetic").Value(),
      TinyConfig());
  EXPECT_TRUE(reopen.ok()) << reopen.status().ToString();
}

}  // namespace
}  // namespace sisd::serve
