#include "serve/session_manager.hpp"

#include <algorithm>
#include <cstdio>
#include <utility>

#include "common/strings.hpp"
#include "core/export.hpp"
#include "data/csv.hpp"
#include "serialize/json.hpp"

namespace sisd::serve {

/// One named session slot. The entry mutex guards every non-atomic field
/// and is held for the whole of an operation; `resident`/`last_touch` are
/// atomics so the eviction scan can rank entries without taking their
/// locks.
struct SessionManager::SessionEntry {
  explicit SessionEntry(std::string session_name)
      : name(std::move(session_name)) {}

  const std::string name;

  std::mutex mu;
  bool closed = false;
  uint64_t generation = 0;
  std::unique_ptr<core::MiningSession> session;  ///< null while spilled
  std::string spill_text;  ///< in-memory spill (no spill_dir)
  std::string spill_path;  ///< on-disk spill
  /// The catalog pin this session holds (kept while spilled, so a
  /// dataset_ref spill snapshot always resolves on restore). Released on
  /// close / failed open / manager teardown.
  std::optional<uint64_t> pinned_fingerprint;

  std::atomic<bool> resident{false};
  std::atomic<uint64_t> last_touch{0};
};

namespace {

IterationSummary Summarize(const core::IterationResult& iteration,
                           size_t index, const data::DataTable& desc) {
  IterationSummary out;
  out.index = index;
  out.location = iteration.location.Describe(desc);
  if (iteration.spread.has_value()) {
    out.spread = iteration.spread->Describe(desc);
  }
  out.spread_error = iteration.spread_error;
  out.si = iteration.location.score.si;
  out.coverage = iteration.location.pattern.subgroup.Coverage();
  out.candidates = iteration.candidates_evaluated;
  out.hit_time_budget = iteration.hit_time_budget;
  return out;
}

Status CheckGeneration(uint64_t current,
                       const std::optional<uint64_t>& expected) {
  if (expected.has_value() && *expected != current) {
    return Status::Conflict(StrFormat(
        "generation mismatch: session is at %llu, request expected %llu",
        static_cast<unsigned long long>(current),
        static_cast<unsigned long long>(*expected)));
  }
  return Status::OK();
}

}  // namespace

SessionManager::SessionManager(ServeConfig config)
    : SessionManager(std::move(config), nullptr) {}

SessionManager::SessionManager(
    ServeConfig config, std::shared_ptr<catalog::DatasetCatalog> catalog)
    : config_(std::move(config)), catalog_(std::move(catalog)) {
  config_.max_resident = std::max<size_t>(config_.max_resident, 1);
  if (catalog_ == nullptr) {
    catalog::CatalogConfig catalog_config;
    catalog_config.max_bytes = config_.catalog_max_bytes;
    catalog_ = std::make_shared<catalog::DatasetCatalog>(catalog_config);
  }
  pool_ = std::make_shared<search::ThreadPool>(
      search::ThreadPool::ResolveNumThreads(config_.num_threads));
}

SessionManager::~SessionManager() {
  // Release the catalog pins of still-open sessions: a shared catalog
  // outlives this manager, and orphaned pins would block dataset_drop
  // forever.
  std::lock_guard<std::mutex> lock(mu_);
  for (const auto& [name, entry] : sessions_) {
    std::lock_guard<std::mutex> entry_lock(entry->mu);
    if (!entry->closed && entry->pinned_fingerprint.has_value()) {
      catalog_->Unpin(*entry->pinned_fingerprint);
      entry->pinned_fingerprint.reset();
    }
  }
}

std::shared_ptr<SessionManager::SessionEntry> SessionManager::FindEntry(
    const std::string& name) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = sessions_.find(name);
  return it == sessions_.end() ? nullptr : it->second;
}

void SessionManager::RemoveEntry(const std::string& name,
                                 const SessionEntry* expected) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = sessions_.find(name);
  if (it != sessions_.end() && it->second.get() == expected) {
    sessions_.erase(it);
  }
}

std::string SessionManager::SpillPathFor(const std::string& name) const {
  if (config_.spill_dir.empty()) return "";
  // Sanitized name + name hash: collision-safe even when distinct names
  // sanitize identically ("a b" vs "a_b").
  std::string safe;
  safe.reserve(name.size());
  for (char c : name) {
    const bool keep = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                      (c >= '0' && c <= '9') || c == '-' || c == '_';
    safe.push_back(keep ? c : '_');
  }
  return StrFormat("%s/%s-%016zx.session.json", config_.spill_dir.c_str(),
                   safe.c_str(), std::hash<std::string>{}(name));
}

Status SessionManager::EnsureResident(SessionEntry* entry) {
  if (entry->session != nullptr) return Status::OK();
  // The spill stays untouched until the restore has succeeded, so a
  // failed restore (I/O error, codec failure) is retryable and never
  // destroys the only copy of the session state.
  std::string loaded;
  const std::string* text = nullptr;
  if (!entry->spill_path.empty()) {
    SISD_ASSIGN_OR_RETURN(read, serialize::ReadTextFile(entry->spill_path));
    loaded = std::move(read);
    text = &loaded;
  } else if (!entry->spill_text.empty()) {
    text = &entry->spill_text;
  } else {
    return Status::Unknown("session '" + entry->name +
                           "' has neither live state nor a spill snapshot");
  }
  SISD_ASSIGN_OR_RETURN(session, core::MiningSession::RestoreFromString(
                                     *text, catalog_.get()));
  entry->session = std::make_unique<core::MiningSession>(std::move(session));
  entry->session->set_thread_pool(pool_);
  // The live session owns the state again: drop the spill (including the
  // on-disk file — it is stale the moment the session mutates, and
  // leaving it would leak one snapshot per evict/restore/close cycle).
  // A swap, unlike `clear()`, also frees the buffer.
  std::string().swap(entry->spill_text);
  if (!entry->spill_path.empty()) {
    std::remove(entry->spill_path.c_str());
    entry->spill_path.clear();
  }
  entry->resident.store(true);
  resident_count_.fetch_add(1);
  restores_.fetch_add(1);
  return Status::OK();
}

Status SessionManager::EvictEntryLocked(SessionEntry* entry) {
  SISD_CHECK(entry->session != nullptr);
  // Catalog-origin sessions spill in dataset_ref form: the snapshot skips
  // the dataset bytes and the restore reuses the shared dataset + pool.
  // The entry's catalog pin stays held across the spill, so the ref always
  // resolves. Sessions without an origin (none are created by this
  // manager, but restores of foreign inline snapshots could lack one)
  // fall back to the self-contained inline form.
  std::string text =
      entry->session->SaveToString(core::SnapshotForm::kDatasetRef);
  if (!config_.spill_dir.empty()) {
    const std::string path = SpillPathFor(entry->name);
    SISD_RETURN_NOT_OK(serialize::WriteTextFile(path, text));
    entry->spill_path = path;
    entry->spill_text.clear();
  } else {
    text.shrink_to_fit();  // drop the writer's growth slack
    entry->spill_text = std::move(text);
    entry->spill_path.clear();
  }
  entry->session.reset();
  entry->resident.store(false);
  resident_count_.fetch_sub(1);
  evictions_.fetch_add(1);
  return Status::OK();
}

void SessionManager::MaybeEvict() {
  while (resident_count_.load() > config_.max_resident) {
    // Rank resident entries by logical touch (coldest first). The scan
    // holds the map lock and no entry locks.
    std::vector<std::pair<uint64_t, std::shared_ptr<SessionEntry>>>
        candidates;
    {
      std::lock_guard<std::mutex> lock(mu_);
      for (const auto& [name, entry] : sessions_) {
        if (entry->resident.load()) {
          candidates.emplace_back(entry->last_touch.load(), entry);
        }
      }
    }
    std::sort(candidates.begin(), candidates.end(),
              [](const auto& a, const auto& b) { return a.first < b.first; });
    bool evicted = false;
    for (auto& [touch, entry] : candidates) {
      (void)touch;
      // Busy sessions (operation in flight) are skipped, not waited on.
      std::unique_lock<std::mutex> lock(entry->mu, std::try_to_lock);
      if (!lock.owns_lock()) continue;
      if (entry->closed || !entry->resident.load()) continue;
      if (EvictEntryLocked(entry.get()).ok()) {
        evicted = true;
        break;
      }
    }
    // Everything cold is busy or spilled already: give up for now; the
    // next operation re-runs the policy.
    if (!evicted) break;
  }
}

template <typename Op>
auto SessionManager::WithSession(const std::string& name, bool restore,
                                 Op&& op)
    -> decltype(op(std::declval<SessionEntry&>())) {
  using R = decltype(op(std::declval<SessionEntry&>()));
  std::shared_ptr<SessionEntry> entry = FindEntry(name);
  if (entry == nullptr) {
    return Status::NotFound("no session named '" + name + "'");
  }
  std::unique_lock<std::mutex> lock(entry->mu);
  R result = [&]() -> R {
    if (entry->closed) {
      return Status::NotFound("session '" + name + "' is closed");
    }
    if (restore) {
      SISD_RETURN_NOT_OK(EnsureResident(entry.get()));
      entry->last_touch.store(NextTouch());
    }
    return op(*entry);
  }();
  const bool closed = entry->closed;
  lock.unlock();
  if (closed) RemoveEntry(name, entry.get());
  MaybeEvict();
  return result;
}

Result<SaveOutcome> SessionManager::WriteSnapshot(const SessionEntry& entry,
                                                  const std::string& path,
                                                  core::SnapshotForm form,
                                                  const char* verb) {
  std::string out_path = !path.empty() ? path : SpillPathFor(entry.name);
  if (out_path.empty()) {
    return Status::InvalidArgument(StrFormat(
        "%s needs a 'path' when the server has no spill directory", verb));
  }
  const std::string text = entry.session->SaveToString(form);
  SISD_RETURN_NOT_OK(serialize::WriteTextFile(out_path, text));
  return SaveOutcome{std::move(out_path), text.size()};
}

SessionInfo SessionManager::InfoLocked(const SessionEntry& entry) const {
  SISD_DCHECK(entry.session != nullptr);
  const core::MiningSession& session = *entry.session;
  SessionInfo info;
  info.name = entry.name;
  info.generation = entry.generation;
  info.iterations = session.history().size();
  info.constraints = session.assimilator().num_constraints();
  info.dataset = session.dataset().name;
  info.rows = session.dataset().num_rows();
  info.descriptions = session.dataset().num_descriptions();
  info.targets = session.dataset().num_targets();
  info.resident = true;
  return info;
}

Result<SessionInfo> SessionManager::Open(const std::string& name,
                                         data::Dataset dataset,
                                         core::MinerConfig config) {
  if (name.empty()) {
    return Status::InvalidArgument("session name must be non-empty");
  }
  SISD_ASSIGN_OR_RETURN(pinned,
                        catalog_->Intern(std::move(dataset), /*pin=*/true,
                                        /*retain=*/false));
  return OpenPinned(name, std::move(pinned), std::move(config));
}

Result<SessionInfo> SessionManager::OpenRef(const std::string& name,
                                            const std::string& dataset_ref,
                                            core::MinerConfig config) {
  if (name.empty()) {
    return Status::InvalidArgument("session name must be non-empty");
  }
  SISD_ASSIGN_OR_RETURN(
      pinned, catalog_->FindByNameOrFingerprint(dataset_ref, /*pin=*/true));
  return OpenPinned(name, std::move(pinned), std::move(config));
}

Result<SessionInfo> SessionManager::OpenPinned(const std::string& name,
                                               catalog::PinnedDataset pinned,
                                               core::MinerConfig config) {
  // Checked before the catalog builds a pool from the config.
  if (Status valid = core::ValidateMinerConfig(config);
      !valid.ok()) {
    catalog_->Unpin(pinned.fingerprint);
    return valid;
  }
  auto entry = std::make_shared<SessionEntry>(name);
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto [it, inserted] = sessions_.emplace(name, entry);
    if (!inserted) {
      catalog_->Unpin(pinned.fingerprint);
      return Status::AlreadyExists("session '" + name + "' already exists");
    }
  }
  // Built under the entry lock (racers block on it, not on the map).
  // The condition pool comes from the catalog's artifact cache: the first
  // session on a (dataset, alphabet) pays the build, every later one
  // shares the same immutable instance.
  std::unique_lock<std::mutex> entry_lock(entry->mu);
  std::shared_ptr<const search::ConditionPool> shared_pool =
      catalog_->PoolFor(pinned, config.search.num_split_points,
                        config.search.include_exclusions);
  Result<core::MiningSession> session = core::MiningSession::Create(
      pinned.dataset, std::move(config), std::move(shared_pool),
      pinned.ref());
  if (!session.ok()) {
    entry->closed = true;
    entry_lock.unlock();
    RemoveEntry(name, entry.get());
    catalog_->Unpin(pinned.fingerprint);
    return session.status();
  }
  entry->session =
      std::make_unique<core::MiningSession>(std::move(session).MoveValue());
  entry->session->set_thread_pool(pool_);
  entry->pinned_fingerprint = pinned.fingerprint;
  entry->resident.store(true);
  resident_count_.fetch_add(1);
  opens_.fetch_add(1);
  entry->last_touch.store(NextTouch());
  SessionInfo info = InfoLocked(*entry);
  entry_lock.unlock();
  MaybeEvict();
  return info;
}

Result<MineOutcome> SessionManager::Mine(
    const std::string& name, int iterations,
    std::optional<uint64_t> if_generation) {
  if (iterations < 1) {
    return Status::InvalidArgument("mine needs iterations >= 1");
  }
  return WithSession(name, true, [&](SessionEntry& entry)
                                     -> Result<MineOutcome> {
    SISD_RETURN_NOT_OK(CheckGeneration(entry.generation, if_generation));
    core::MiningSession& session = *entry.session;
    MineOutcome outcome;
    for (int i = 0; i < iterations; ++i) {
      Result<core::IterationResult> iteration = session.MineNext();
      if (!iteration.ok()) {
        // An error on the first iteration mutated nothing: report it as
        // the request's failure. After at least one assimilated iteration
        // the session HAS moved, so the committed entries and new
        // generation must reach the client: exhaustion is the expected
        // end of the dialogue, anything else is surfaced via `stopped`.
        if (i == 0) return iteration.status();
        if (iteration.status().code() == StatusCode::kNotFound) {
          outcome.exhausted = true;
        } else {
          outcome.stopped = iteration.status().ToString();
        }
        break;
      }
      ++entry.generation;
      outcome.iterations.push_back(Summarize(iteration.Value(),
                                             session.history().size(),
                                             session.dataset().descriptions));
    }
    outcome.generation = entry.generation;
    return outcome;
  });
}

Result<MineListOutcome> SessionManager::MineList(
    const std::string& name, int rules,
    std::optional<uint64_t> if_generation) {
  if (rules < 1) {
    return Status::InvalidArgument("mine_list needs rules >= 1");
  }
  return WithSession(name, true, [&](SessionEntry& entry)
                                     -> Result<MineListOutcome> {
    SISD_RETURN_NOT_OK(CheckGeneration(entry.generation, if_generation));
    core::MiningSession& session = *entry.session;
    SISD_ASSIGN_OR_RETURN(result, session.MineList(rules));
    entry.generation += result.rules.size();
    const search::SubgroupList* list = session.subgroup_list();
    SISD_CHECK(list != nullptr);  // MineList materializes the list
    MineListOutcome outcome;
    outcome.generation = entry.generation;
    outcome.total_gain = list->total_gain;
    outcome.list_size = list->rules.size();
    outcome.uncovered = list->uncovered.count();
    outcome.candidates = result.candidates_evaluated;
    outcome.exhausted = result.exhausted;
    outcome.hit_time_budget = result.hit_time_budget;
    const size_t first = list->rules.size() - result.rules.size();
    for (size_t i = 0; i < result.rules.size(); ++i) {
      const search::SubgroupRule& rule = result.rules[i];
      RuleSummary summary;
      summary.index = first + i + 1;
      summary.description =
          rule.intention.ToString(session.dataset().descriptions);
      summary.gain = rule.gain;
      summary.coverage = rule.extension.count();
      summary.captured = rule.captured.count();
      outcome.rules.push_back(std::move(summary));
    }
    return outcome;
  });
}

Result<RebaseInfo> SessionManager::Rebase(
    const std::string& name, const std::string& dataset_spec,
    std::optional<uint64_t> if_generation) {
  return WithSession(name, true, [&](SessionEntry& entry)
                                     -> Result<RebaseInfo> {
    SISD_RETURN_NOT_OK(CheckGeneration(entry.generation, if_generation));
    core::MiningSession& session = *entry.session;
    // Every manager session is catalog-opened, so it always has a pin.
    SISD_CHECK(entry.pinned_fingerprint.has_value());
    const uint64_t current_fp = *entry.pinned_fingerprint;

    SISD_ASSIGN_OR_RETURN(target, catalog_->FindByNameOrFingerprint(
                                      dataset_spec, /*pin=*/true));
    RebaseInfo out;
    out.previous_fingerprint = current_fp;
    out.fingerprint = target.fingerprint;
    if (target.fingerprint == current_fp) {
      catalog_->Unpin(target.fingerprint);
      out.reused = true;
      out.info = InfoLocked(entry);
      return out;
    }
    if (!catalog_->IsDescendantOf(target.fingerprint, current_fp)) {
      catalog_->Unpin(target.fingerprint);
      return Status::InvalidArgument(
          "dataset '" + dataset_spec +
          "' is not an appended version of the session's current dataset");
    }
    // The pool comes from the artifact cache — `DatasetCatalog::Append`
    // has already refreshed the parent's pools incrementally for this
    // version, so this is a cache hit, not a scratch build.
    std::shared_ptr<const search::ConditionPool> pool = catalog_->PoolFor(
        target, session.config().search.num_split_points,
        session.config().search.include_exclusions);
    Result<core::RebaseOutcome> rebased =
        session.Rebase(target.dataset, std::move(pool), target.ref());
    if (!rebased.ok()) {
      catalog_->Unpin(target.fingerprint);
      return rebased.status();
    }
    // The target pin transfers to the entry; the old version's pin drops.
    catalog_->Unpin(current_fp);
    entry.pinned_fingerprint = target.fingerprint;
    ++entry.generation;
    out.appended_rows = rebased.Value().appended_rows;
    out.replayed_iterations = rebased.Value().replayed_iterations;
    out.replayed_rules = rebased.Value().replayed_rules;
    out.info = InfoLocked(entry);
    return out;
  });
}

Result<MineOutcome> SessionManager::Assimilate(
    const std::string& name, const IntentionBuilder& builder,
    std::optional<uint64_t> if_generation) {
  return WithSession(name, true, [&](SessionEntry& entry)
                                     -> Result<MineOutcome> {
    SISD_RETURN_NOT_OK(CheckGeneration(entry.generation, if_generation));
    core::MiningSession& session = *entry.session;
    SISD_ASSIGN_OR_RETURN(intention, builder(session));
    SISD_ASSIGN_OR_RETURN(iteration,
                          session.AssimilateIntention(intention));
    ++entry.generation;
    MineOutcome outcome;
    outcome.generation = entry.generation;
    outcome.iterations.push_back(Summarize(iteration,
                                           session.history().size(),
                                           session.dataset().descriptions));
    return outcome;
  });
}

Result<std::vector<IterationSummary>> SessionManager::History(
    const std::string& name) {
  return WithSession(name, true, [](SessionEntry& entry)
                                     -> Result<std::vector<IterationSummary>> {
    const core::MiningSession& session = *entry.session;
    std::vector<IterationSummary> out;
    out.reserve(session.history().size());
    for (size_t i = 0; i < session.history().size(); ++i) {
      out.push_back(Summarize(session.history()[i], i + 1,
                              session.dataset().descriptions));
    }
    return out;
  });
}

Result<std::string> SessionManager::ExportCsv(
    const std::string& name, const std::string& what,
    std::optional<size_t> iteration) {
  return WithSession(name, true, [&](SessionEntry& entry)
                                     -> Result<std::string> {
    const core::MiningSession& session = *entry.session;
    if (what == "history") {
      return data::WriteCsvText(core::IterationSummaryTable(
          session.history(), session.dataset().descriptions,
          session.dataset().target_names));
    }
    if (what != "ranked") {
      return Status::InvalidArgument("export 'what' must be history|ranked");
    }
    if (session.history().empty()) {
      return Status::InvalidArgument("session has no iterations to export");
    }
    const size_t k = iteration.value_or(session.history().size());
    if (k < 1 || k > session.history().size()) {
      return Status::OutOfRange(StrFormat("iteration %zu outside 1..%zu", k,
                                          session.history().size()));
    }
    return data::WriteCsvText(core::RankedListTable(
        session.history()[k - 1], session.dataset().descriptions));
  });
}

Result<SaveOutcome> SessionManager::Save(const std::string& name,
                                         const std::string& path,
                                         bool dataset_ref) {
  return WithSession(name, true, [&](SessionEntry& entry) {
    return WriteSnapshot(entry, path,
                         dataset_ref ? core::SnapshotForm::kDatasetRef
                                     : core::SnapshotForm::kInlineDataset,
                         "save");
  });
}

Status SessionManager::Evict(const std::string& name) {
  return WithSession(name, false, [this](SessionEntry& entry) {
    if (entry.session == nullptr) return Status::OK();  // already spilled
    return EvictEntryLocked(&entry);
  });
}

Status SessionManager::Close(const std::string& name, bool save,
                             const std::string& path) {
  return WithSession(name, save, [&](SessionEntry& entry) -> Status {
    if (save) {
      // The restore already dropped the spill; a save to the spill path
      // is the file the close deliberately keeps.
      SISD_RETURN_NOT_OK(WriteSnapshot(entry, path,
                                       core::SnapshotForm::kInlineDataset,
                                       "close with save")
                             .status());
    }
    entry.closed = true;
    if (entry.session != nullptr) {
      entry.session.reset();
      entry.resident.store(false);
      resident_count_.fetch_sub(1);
    }
    // A spilled session closed without a save leaves no stale snapshot
    // behind in spill_dir.
    if (!entry.spill_path.empty()) std::remove(entry.spill_path.c_str());
    entry.spill_text.clear();
    entry.spill_path.clear();
    if (entry.pinned_fingerprint.has_value()) {
      catalog_->Unpin(*entry.pinned_fingerprint);
      entry.pinned_fingerprint.reset();
    }
    closes_.fetch_add(1);
    return Status::OK();
  });
}

Result<SessionInfo> SessionManager::Info(const std::string& name) {
  return WithSession(name, true, [this](SessionEntry& entry)
                                     -> Result<SessionInfo> {
    return InfoLocked(entry);
  });
}

Result<core::MiningSession> SessionManager::CloneSession(
    const std::string& name) {
  return WithSession(name, true, [](SessionEntry& entry)
                                     -> Result<core::MiningSession> {
    return entry.session->Clone();
  });
}

std::vector<std::string> SessionManager::SessionNames() const {
  std::vector<std::string> names;
  {
    std::lock_guard<std::mutex> lock(mu_);
    for (const auto& [name, entry] : sessions_) names.push_back(name);
  }
  std::sort(names.begin(), names.end());
  return names;
}

ManagerStats SessionManager::Stats() const {
  ManagerStats stats;
  {
    std::lock_guard<std::mutex> lock(mu_);
    stats.sessions = sessions_.size();
  }
  stats.resident = resident_count_.load();
  stats.max_resident = config_.max_resident;
  stats.opens = opens_.load();
  stats.evictions = evictions_.load();
  stats.restores = restores_.load();
  stats.closes = closes_.load();
  return stats;
}

}  // namespace sisd::serve
