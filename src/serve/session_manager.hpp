/// \file session_manager.hpp
/// \brief Concurrent multi-session service core: many named
/// `core::MiningSession`s behind one mutex-guarded session map.
///
/// The paper's workflow is one analyst holding one dialogue; serving many
/// analysts means many live dialogues in one process. The manager provides:
///
///  - **Two-level locking.** One map mutex guards only the name→entry
///    map (lookup, insert, erase, scan); each entry carries its own mutex
///    held for the duration of an operation. Long operations (a mine can
///    run seconds) therefore never block unrelated sessions. The map lock
///    is never taken while an entry lock is held, so there are no lock
///    cycles.
///  - **One access path.** Every operation on a named session finds and
///    locks its entry, restores it if spilled, runs, unlocks and re-runs
///    the eviction policy through one helper, so no return path (errors
///    included) can leave more than `max_resident` sessions in memory.
///  - **LRU snapshot eviction.** At most `max_resident` sessions stay in
///    memory. Colder sessions (by a logical touch clock, not wall time, so
///    behaviour is reproducible) are spilled through the PR 3 snapshot
///    codec — to `spill_dir` when configured, else to an in-memory
///    snapshot string — and restored transparently on next touch. Because
///    snapshots round-trip bit-exactly, eviction is invisible in results:
///    mine-after-restore output is byte-identical to an always-resident
///    session.
///  - **Optimistic concurrency.** Every session carries a generation
///    counter bumped once per assimilated iteration. Mutating requests may
///    pass the generation they last saw; a mismatch fails with
///    `StatusCode::kConflict` before any work, so two analysts sharing a
///    session cannot silently interleave model updates.
///  - **One worker pool.** All sessions score through a single shared
///    `search::ThreadPool` (instead of a pool per search call), so a busy
///    server never oversubscribes the machine. Results are bit-identical
///    for any worker count.
///  - **One dataset, many sessions.** Every open interns its dataset into
///    a `catalog::DatasetCatalog` (content-addressed), so N sessions over
///    one dataset share a single immutable `data::Dataset` and a single
///    memoized `search::ConditionPool`: the marginal cost of an extra
///    session is its model state. Eviction spills in `dataset_ref` form,
///    so restores resolve through the catalog and never rebuild either.

#ifndef SISD_SERVE_SESSION_MANAGER_HPP_
#define SISD_SERVE_SESSION_MANAGER_HPP_

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "catalog/dataset_catalog.hpp"
#include "common/status.hpp"
#include "core/session.hpp"
#include "data/table.hpp"
#include "search/thread_pool.hpp"

namespace sisd::serve {

/// \brief Service-layer configuration.
struct ServeConfig {
  /// Sessions kept in memory before LRU spill (floor 1).
  size_t max_resident = 64;
  /// Directory for eviction snapshots; "" spills to in-memory strings
  /// (same codec, no filesystem).
  std::string spill_dir;
  /// Workers in the shared scoring pool: >= 1 literal, 0 = auto
  /// (`SISD_THREADS`, then hardware concurrency).
  int num_threads = 1;
  /// Byte budget of the dataset catalog the manager constructs when none
  /// is injected (0 = unlimited; see `catalog::CatalogConfig`).
  size_t catalog_max_bytes = 0;
};

/// \brief One history entry rendered for transport (Describe() text plus
/// the scalar diagnostics a client ranks by).
struct IterationSummary {
  size_t index = 0;  ///< 1-based position in the session history
  std::string location;
  std::optional<std::string> spread;
  /// Why the spread step failed after location assimilation ("" normally).
  std::string spread_error;
  double si = 0.0;          ///< location-pattern SI
  size_t coverage = 0;      ///< subgroup size
  size_t candidates = 0;    ///< search evaluations (0 for `assimilate`)
  bool hit_time_budget = false;
};

/// \brief Shape and progress of one session.
struct SessionInfo {
  std::string name;
  uint64_t generation = 0;
  size_t iterations = 0;
  size_t constraints = 0;
  std::string dataset;
  size_t rows = 0;
  size_t descriptions = 0;
  size_t targets = 0;
  bool resident = true;
};

/// \brief Result of a `Mine` / `Assimilate` call.
struct MineOutcome {
  uint64_t generation = 0;
  std::vector<IterationSummary> iterations;  ///< entries added by this call
  /// True when the search ran out of acceptable subgroups before the
  /// requested iteration count (the entries mined until then are kept).
  bool exhausted = false;
  /// Set when a later iteration failed after earlier ones had already
  /// been assimilated: the completed entries and the new generation are
  /// reported (they are committed session state), plus why mining
  /// stopped. Empty on full success and on `exhausted`.
  std::string stopped;
};

/// \brief One appended subgroup-list rule rendered for transport.
struct RuleSummary {
  size_t index = 0;         ///< 1-based position in the subgroup list
  std::string description;  ///< rule intention over attribute names
  double gain = 0.0;        ///< normalized MDL gain at append time
  size_t coverage = 0;      ///< rows matching the rule anywhere
  size_t captured = 0;      ///< rows the rule actually captures (first match)
};

/// \brief Result of a `MineList` call.
struct MineListOutcome {
  uint64_t generation = 0;
  std::vector<RuleSummary> rules;  ///< rules appended by this call
  double total_gain = 0.0;         ///< list-level gain after the call
  size_t list_size = 0;            ///< rules in the list after the call
  size_t uncovered = 0;            ///< rows still on the default rule
  size_t candidates = 0;           ///< search evaluations this call
  /// True when the miner ran out of positive-gain candidates before the
  /// requested rule count (rules appended until then are kept).
  bool exhausted = false;
  bool hit_time_budget = false;
};

/// \brief Result of a `Save` call.
struct SaveOutcome {
  std::string path;
  size_t bytes = 0;
};

/// \brief Result of a `Rebase` call.
struct RebaseInfo {
  SessionInfo info;  ///< session shape after the rebase (new generation)
  uint64_t previous_fingerprint = 0;  ///< dataset mined before the call
  uint64_t fingerprint = 0;           ///< dataset mined after the call
  size_t appended_rows = 0;
  size_t replayed_iterations = 0;
  size_t replayed_rules = 0;
  /// The session was already on the requested version (no-op; the
  /// generation did not bump).
  bool reused = false;
};

/// \brief Manager-wide counters (logical, deterministic for a given
/// request script — no wall-clock fields).
struct ManagerStats {
  size_t sessions = 0;   ///< open sessions, resident or spilled
  size_t resident = 0;   ///< sessions currently in memory
  size_t max_resident = 0;
  uint64_t opens = 0;
  uint64_t evictions = 0;
  uint64_t restores = 0;
  uint64_t closes = 0;
};

/// \brief Builds the intention an `Assimilate` call should register, given
/// the locked session (used to resolve attribute names against its
/// dataset).
using IntentionBuilder =
    std::function<Result<pattern::Intention>(const core::MiningSession&)>;

/// \brief Owns the named sessions and every policy above. Thread-safe:
/// all public methods may be called concurrently.
class SessionManager {
 public:
  /// Constructs a manager with its own private catalog (sized by
  /// `config.catalog_max_bytes`).
  explicit SessionManager(ServeConfig config);

  /// Constructs a manager over a shared catalog (several managers — or a
  /// manager plus direct catalog users — can serve one dataset pool).
  /// Falls back to a private catalog when `catalog` is null.
  SessionManager(ServeConfig config,
                 std::shared_ptr<catalog::DatasetCatalog> catalog);

  ~SessionManager();  // releases the catalog pins of open sessions

  SessionManager(const SessionManager&) = delete;
  SessionManager& operator=(const SessionManager&) = delete;

  /// Creates a session named `name` over `dataset`. The dataset is
  /// interned into the catalog first (content-addressed dedup), so
  /// identical content is stored once no matter how many sessions open
  /// it. AlreadyExists when the name is taken.
  Result<SessionInfo> Open(const std::string& name, data::Dataset dataset,
                           core::MinerConfig config);

  /// Creates a session over a dataset already in the catalog:
  /// `dataset_ref` is a registered name or a 16-hex-digit fingerprint.
  /// This is the zero-copy open — no dataset ingest, no pool build beyond
  /// the first session's.
  Result<SessionInfo> OpenRef(const std::string& name,
                              const std::string& dataset_ref,
                              core::MinerConfig config);

  /// Runs up to `iterations` mining iterations. `if_generation` (when set)
  /// must equal the session's current generation or the call fails with
  /// Conflict before mining. Exhausting the search after at least one
  /// iteration is success with `exhausted = true`.
  Result<MineOutcome> Mine(const std::string& name, int iterations,
                           std::optional<uint64_t> if_generation);

  /// Greedily appends up to `rules` rules to the session's subgroup list
  /// (SSD++-style MDL mining; the list is created on first call). Same
  /// `if_generation` contract as `Mine`; the generation bumps once per
  /// appended rule. Running dry before `rules` is success with
  /// `exhausted = true`.
  Result<MineListOutcome> MineList(const std::string& name, int rules,
                                   std::optional<uint64_t> if_generation);

  /// Assimilates the intention produced by `builder` (no search).
  Result<MineOutcome> Assimilate(const std::string& name,
                                 const IntentionBuilder& builder,
                                 std::optional<uint64_t> if_generation);

  /// Moves the session onto `dataset_spec` — a registered name or
  /// fingerprint that must be an *appended version* of the dataset the
  /// session currently mines (a descendant in the catalog's version
  /// chain; InvalidArgument otherwise). The background model is rebased
  /// through the rank-one replay path (`core::MiningSession::Rebase`),
  /// the session's catalog pin moves to the new version, and the
  /// generation bumps once. Rebasing onto the version the session already
  /// mines is a no-op (`reused`, no generation bump). Same
  /// `if_generation` contract as `Mine`.
  Result<RebaseInfo> Rebase(const std::string& name,
                            const std::string& dataset_spec,
                            std::optional<uint64_t> if_generation);

  /// The full iteration history as transport summaries.
  Result<std::vector<IterationSummary>> History(const std::string& name);

  /// Flattens session state to CSV text: `what` = "history" (one row per
  /// iteration) or "ranked" (the top-k list of iteration `iteration`,
  /// default the last).
  Result<std::string> ExportCsv(const std::string& name,
                                const std::string& what,
                                std::optional<size_t> iteration);

  /// Writes the session snapshot to `path` (default: the session's spill
  /// path; fails when neither a path nor a spill_dir exists). Inline
  /// (self-contained) form by default; `dataset_ref = true` writes the
  /// compact catalog-addressed form instead (restorable only where the
  /// dataset is loaded).
  Result<SaveOutcome> Save(const std::string& name, const std::string& path,
                           bool dataset_ref = false);

  /// Force-spills the session now (idempotent). The next touch restores
  /// it transparently; results are unaffected.
  Status Evict(const std::string& name);

  /// Removes the session. `save` first persists a snapshot to `path` (or
  /// the spill path). The name becomes reusable.
  Status Close(const std::string& name, bool save, const std::string& path);

  /// Shape/progress of one session (restores it if spilled).
  Result<SessionInfo> Info(const std::string& name);

  /// Deep-copies the session for consistent read-only work; the copy is
  /// detached from the manager.
  Result<core::MiningSession> CloneSession(const std::string& name);

  /// Open session names, sorted (deterministic).
  std::vector<std::string> SessionNames() const;

  /// Manager-wide counters.
  ManagerStats Stats() const;

  /// The shared scoring pool (never null).
  const std::shared_ptr<search::ThreadPool>& thread_pool() const {
    return pool_;
  }

  /// The dataset catalog (never null).
  const std::shared_ptr<catalog::DatasetCatalog>& catalog() const {
    return catalog_;
  }

  /// Where `name` spills/saves by default ("" without a spill_dir).
  std::string SpillPathFor(const std::string& name) const;

 private:
  struct SessionEntry;

  std::shared_ptr<SessionEntry> FindEntry(const std::string& name) const;
  void RemoveEntry(const std::string& name, const SessionEntry* expected);

  /// Shared tail of `Open`/`OpenRef`: `pinned` carries one catalog pin,
  /// which this either hands to the created session's entry or releases
  /// on failure.
  Result<SessionInfo> OpenPinned(const std::string& name,
                                 catalog::PinnedDataset pinned,
                                 core::MinerConfig config);

  /// The one session-access path. Finds and locks the entry named `name`
  /// (NotFound when absent or closed), restores and touches it when
  /// `restore` is set, and runs `op(entry)` under the entry lock. Then it
  /// unlocks, drops the entry from the map if `op` closed it, and runs
  /// `MaybeEvict` — on every return path, errors included.
  template <typename Op>
  auto WithSession(const std::string& name, bool restore, Op&& op)
      -> decltype(op(std::declval<SessionEntry&>()));

  /// Resolves `path` (default: the spill path; `verb` names the caller in
  /// the error when neither exists) and writes the locked entry's
  /// snapshot there in `form`.
  Result<SaveOutcome> WriteSnapshot(const SessionEntry& entry,
                                    const std::string& path,
                                    core::SnapshotForm form,
                                    const char* verb);

  /// Restores a spilled session (entry mutex held).
  Status EnsureResident(SessionEntry* entry);
  /// Spills a resident session (entry mutex held).
  Status EvictEntryLocked(SessionEntry* entry);
  /// Spills coldest sessions until the resident count fits. Takes the
  /// map and entry locks itself; callers must hold none.
  void MaybeEvict();

  SessionInfo InfoLocked(const SessionEntry& entry) const;
  uint64_t NextTouch() { return touch_clock_.fetch_add(1) + 1; }

  ServeConfig config_;
  std::shared_ptr<catalog::DatasetCatalog> catalog_;
  std::shared_ptr<search::ThreadPool> pool_;
  mutable std::mutex mu_;  ///< guards `sessions_` only
  std::unordered_map<std::string, std::shared_ptr<SessionEntry>> sessions_;

  std::atomic<uint64_t> touch_clock_{0};
  std::atomic<size_t> resident_count_{0};
  std::atomic<uint64_t> opens_{0};
  std::atomic<uint64_t> evictions_{0};
  std::atomic<uint64_t> restores_{0};
  std::atomic<uint64_t> closes_{0};
};

}  // namespace sisd::serve

#endif  // SISD_SERVE_SESSION_MANAGER_HPP_
