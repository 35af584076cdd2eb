#include "search/beam_search.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <limits>
#include <optional>
#include <span>
#include <unordered_set>

#include "common/strings.hpp"
#include "search/thread_pool.hpp"

namespace sisd::search {

namespace {

using Clock = std::chrono::steady_clock;

/// Scoring (and generation) chunk size: the wall-clock budget is checked
/// once per chunk instead of per candidate (`steady_clock::now()` is
/// measurable on the hot path).
constexpr size_t kCandidateChunk = 256;

/// Beam entry: intention as pool-condition indices (sorted = canonical).
struct BeamEntry {
  std::vector<uint32_t> condition_ids;
  pattern::Extension extension{0};
  double quality = -std::numeric_limits<double>::infinity();
};

pattern::Intention MakeIntention(const ConditionPool& pool,
                                 std::span<const uint32_t> ids) {
  std::vector<pattern::Condition> conditions;
  conditions.reserve(ids.size());
  for (uint32_t id : ids) conditions.push_back(pool.condition(id));
  return pattern::Intention(std::move(conditions));
}

/// 64-bit hash of a sorted id set (multiply-xorshift per id).
uint64_t HashIds(std::span<const uint32_t> ids) {
  uint64_t h = 0x9E3779B97F4A7C15ull ^ ids.size();
  for (uint32_t id : ids) {
    h ^= id;
    h *= 0xBF58476D1CE4E5B9ull;
    h ^= h >> 31;
  }
  return h;
}

/// Per-level candidate dedup: an open-addressing table of candidate indices
/// into a batch's flat id arena, probed by a 64-bit hash and confirmed by an
/// exact compare of the arena slices. Starts small and doubles at 50% load,
/// so its size follows the candidates actually kept, never parents x pool
/// (`beam_width` is client-controlled). `Reset` empties it between levels
/// and keeps the capacity.
class LevelDedup {
 public:
  void Reset() {
    std::fill(slots_.begin(), slots_.end(), Slot{});
    size_ = 0;
  }

  /// Registers candidate `index`, whose `depth` ids sit at
  /// `arena[index * depth]`. Returns false, registering nothing, when an
  /// earlier candidate has the same ids.
  bool Insert(const std::vector<uint32_t>& arena, size_t depth,
              uint32_t index) {
    const uint32_t* ids = arena.data() + size_t(index) * depth;
    const uint64_t hash = HashIds({ids, depth});
    const size_t mask = slots_.size() - 1;
    for (size_t s = hash & mask;; s = (s + 1) & mask) {
      const Slot& slot = slots_[s];
      if (slot.index == kEmpty) break;
      if (slot.hash == hash &&
          std::equal(ids, ids + depth,
                     arena.data() + size_t(slot.index) * depth)) {
        return false;
      }
    }
    if (2 * (size_ + 1) > slots_.size()) Grow();
    Place({hash, index});
    ++size_;
    return true;
  }

 private:
  static constexpr uint32_t kEmpty = std::numeric_limits<uint32_t>::max();
  static constexpr size_t kInitialSlots = 1024;  // a power of two

  struct Slot {
    uint64_t hash = 0;
    uint32_t index = kEmpty;
  };

  void Place(Slot entry) {
    const size_t mask = slots_.size() - 1;
    size_t s = entry.hash & mask;
    while (slots_[s].index != kEmpty) s = (s + 1) & mask;
    slots_[s] = entry;
  }

  void Grow() {
    std::vector<Slot> old(2 * slots_.size());
    old.swap(slots_);
    for (const Slot& slot : old) {
      if (slot.index != kEmpty) Place(slot);
    }
  }

  std::vector<Slot> slots_ = std::vector<Slot>(kInitialSlots);
  size_t size_ = 0;
};

/// Bounded best-list with canonical-signature dedup.
class TopList {
 public:
  TopList(size_t capacity) : capacity_(capacity) {}

  /// True iff an offer with this quality could enter the list (the
  /// candidate-materialization gate: extensions are only built for
  /// candidates some list would accept).
  bool WouldAccept(double quality) const {
    return entries_.size() < capacity_ || quality > WorstQuality();
  }

  void Offer(std::span<const uint32_t> ids,
             const pattern::Extension& extension, double quality) {
    if (entries_.size() >= capacity_ && quality <= WorstQuality()) return;
    std::vector<uint32_t> condition_ids(ids.begin(), ids.end());
    if (!seen_.insert(condition_ids).second) return;
    BeamEntry entry;
    entry.condition_ids = std::move(condition_ids);
    entry.extension = extension;
    entry.quality = quality;
    entries_.push_back(std::move(entry));
    std::push_heap(entries_.begin(), entries_.end(), BetterQuality);
    if (entries_.size() > capacity_) {
      std::pop_heap(entries_.begin(), entries_.end(), BetterQuality);
      entries_.pop_back();
    }
  }

  /// Consumes the list: entries are moved out (bitset copies are not free),
  /// leaving it empty.
  std::vector<BeamEntry> SortedDescending() {
    std::vector<BeamEntry> out = std::move(entries_);
    entries_.clear();
    std::sort(out.begin(), out.end(), [](const BeamEntry& a,
                                         const BeamEntry& b) {
      return a.quality > b.quality;
    });
    return out;
  }

 private:
  /// Min-heap comparator on quality (heap root = worst entry).
  static bool BetterQuality(const BeamEntry& a, const BeamEntry& b) {
    return a.quality > b.quality;
  }

  double WorstQuality() const {
    return entries_.empty()
               ? -std::numeric_limits<double>::infinity()
               : entries_.front().quality;
  }

  /// Hash for sorted condition-id vectors.
  struct IdVectorHash {
    size_t operator()(const std::vector<uint32_t>& ids) const {
      return size_t(HashIds(ids));
    }
  };

  size_t capacity_;
  std::vector<BeamEntry> entries_;  // min-heap on quality
  // Signatures evicted from the list stay in `seen_` on purpose: an evicted
  // candidate had lower quality than everything kept, so re-offering it can
  // never improve the list.
  std::unordered_set<std::vector<uint32_t>, IdVectorHash> seen_;
};

}  // namespace

Status ValidateSearchConfig(const SearchConfig& config) {
  for (const auto& [name, value] :
       {std::pair<const char*, int>{"beam_width", config.beam_width},
        {"max_depth", config.max_depth},
        {"num_split_points", config.num_split_points}}) {
    if (value < 1) {
      return Status::InvalidArgument(
          StrFormat("%s must be >= 1 (got %d)", name, value));
    }
  }
  if (config.top_k == 0) {
    return Status::InvalidArgument("top_k must be >= 1 (got 0)");
  }
  if (!(config.max_coverage_fraction >= 0.0 &&
        config.max_coverage_fraction <= 1.0)) {
    return Status::InvalidArgument(
        StrFormat("max_coverage_fraction must be in [0, 1] (got %g)",
                  config.max_coverage_fraction));
  }
  return ValidateTimeBudget(config.time_budget_seconds);
}

Status ValidateTimeBudget(double seconds) {
  if (!(seconds >= 0.0)) {
    return Status::InvalidArgument(
        StrFormat("time budget must be >= 0 seconds (got %g)", seconds));
  }
  return Status::OK();
}

SearchResult BeamSearch(const data::DataTable& table,
                        const ConditionPool& pool, const SearchConfig& config,
                        BatchEvaluator& evaluator,
                        ThreadPool* shared_workers) {
  SISD_CHECK(config.beam_width >= 1);
  SISD_CHECK(config.max_depth >= 1);
  const size_t n = table.num_rows();
  // Empty extensions are never valid subgroups (their statistics are
  // undefined), so the coverage floor is at least 1.
  const size_t min_coverage = std::max<size_t>(config.min_coverage, 1);
  const size_t max_coverage = static_cast<size_t>(
      config.max_coverage_fraction * double(n));

  const size_t num_workers =
      evaluator.SupportsParallelScoring()
          ? (shared_workers != nullptr
                 ? shared_workers->num_workers()
                 : ThreadPool::ResolveNumThreads(config.num_threads))
          : 1;
  evaluator.Prepare(num_workers);
  std::optional<ThreadPool> local_workers;
  ThreadPool* workers = nullptr;
  if (num_workers > 1) {
    if (shared_workers != nullptr) {
      workers = shared_workers;
    } else {
      local_workers.emplace(num_workers);
      workers = &*local_workers;
    }
  }

  SearchResult result;
  TopList top_list(config.top_k);
  const Clock::time_point deadline =
      Clock::now() + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(
                             std::isfinite(config.time_budget_seconds)
                                 ? config.time_budget_seconds
                                 : 1e9));

  LevelDedup dedup;
  std::vector<uint8_t> used_by_parent;
  std::vector<BeamEntry> beam;
  const std::vector<uint32_t> empty_ids;
  const pattern::Extension full_extension(n, /*full=*/true);

  std::vector<double> scores;
  std::vector<uint8_t> chunk_scored;
  size_t generation_ticks = 0;

  // Level 1 candidates: every pool condition. Deeper levels: beam x pool.
  for (int depth = 1; depth <= config.max_depth; ++depth) {
    if (Clock::now() >= deadline) {
      result.hit_time_budget = true;
      break;
    }

    // ---- Phase 1: generate this level's candidate batch ----------------
    // One serial pass. Deterministic order: parents in beam order,
    // conditions ascending; a candidate whose id set an earlier one of this
    // level already has is dropped. Dedup per level is exact: every
    // level-d candidate has exactly d ids, so candidates of different
    // levels are never equal.
    CandidateBatch batch;
    batch.pool = &pool;
    batch.depth = static_cast<size_t>(depth);
    if (depth == 1) {
      batch.parents.push_back(&full_extension);
      batch.parent_ids.push_back(&empty_ids);
    } else {
      batch.parents.reserve(beam.size());
      batch.parent_ids.reserve(beam.size());
      for (const BeamEntry& entry : beam) {
        batch.parents.push_back(&entry.extension);
        batch.parent_ids.push_back(&entry.condition_ids);
      }
    }
    if (batch.parents.empty()) break;

    // Only a candidate whose new condition some parent of this level
    // already uses can have a duplicate: beam entries are distinct id sets
    // of equal size, so if P + {c} = P' + {c'} for parents P != P', then P'
    // lies inside P + {c} without being P, and c is in P'. Every other
    // candidate skips the dedup table.
    dedup.Reset();
    used_by_parent.assign(pool.size(), 0);
    for (const std::vector<uint32_t>* ids : batch.parent_ids) {
      for (uint32_t id : *ids) used_by_parent[id] = 1;
    }
    for (uint32_t pi = 0;
         pi < batch.parents.size() && !result.hit_time_budget; ++pi) {
      const std::vector<uint32_t>& parent_ids = *batch.parent_ids[pi];
      SISD_DCHECK(parent_ids.size() + 1 == batch.depth);
      // Reconstruct the parent's intention once for the constraint checks.
      const pattern::Intention parent_intention =
          MakeIntention(pool, parent_ids);
      const pattern::Extension& parent_extension = *batch.parents[pi];
      for (uint32_t cid = 0; cid < pool.size(); ++cid) {
        if ((++generation_ticks & (kCandidateChunk - 1)) == 0 &&
            Clock::now() >= deadline) {
          result.hit_time_budget = true;
          break;
        }
        const pattern::Condition& cond = pool.condition(cid);
        if (!parent_intention.AllowsRefinementWith(cond)) continue;
        // Filter before the dedup probe: an id set's extension, and so its
        // count, does not depend on which parent generated it, so every
        // duplicate of a filtered candidate is filtered too.
        const size_t count = pattern::Extension::IntersectionCount(
            parent_extension, pool.extension(cid));
        if (count < min_coverage || count > max_coverage || count == n) {
          continue;
        }
        // Append the sorted ids (parent ids with `cid` inserted) to the
        // arena; take them back off when the set is a duplicate.
        const size_t offset = batch.ids.size();
        const auto split =
            std::upper_bound(parent_ids.begin(), parent_ids.end(), cid);
        SISD_DCHECK(split == parent_ids.begin() || *(split - 1) != cid);
        batch.ids.insert(batch.ids.end(), parent_ids.begin(), split);
        batch.ids.push_back(cid);
        batch.ids.insert(batch.ids.end(), split, parent_ids.end());
        if (used_by_parent[cid] &&
            !dedup.Insert(batch.ids, batch.depth,
                          static_cast<uint32_t>(batch.items.size()))) {
          batch.ids.resize(offset);
          continue;
        }
        batch.items.push_back({pi, cid, static_cast<uint32_t>(count)});
      }
    }
    SISD_DCHECK(batch.ids.size() == batch.items.size() * batch.depth);

    // ---- Phase 2: score the batch in chunks ----------------------------
    // Scores land at fixed candidate indices, so parallel scheduling cannot
    // change the outcome (see the determinism note in beam_search.hpp for
    // the finite-budget caveat). When the budget already expired during
    // generation, only a small fixed prefix of the batch is scored
    // sequentially: the level still contributes partial results, while the
    // overshoot past the deadline stays bounded by ~kExpiredSliceChunks
    // chunks of evaluation instead of a whole beam level.
    scores.assign(batch.size(), -std::numeric_limits<double>::infinity());
    chunk_scored.assign(batch.size(), 0);
    if (result.hit_time_budget) {
      constexpr size_t kExpiredSliceChunks = 4;
      const size_t slice =
          std::min(batch.size(), kExpiredSliceChunks * kCandidateChunk);
      for (size_t begin = 0; begin < slice; begin += kCandidateChunk) {
        const size_t end = std::min(begin + kCandidateChunk, slice);
        evaluator.ScoreChunk(batch, begin, end, /*worker=*/0,
                             scores.data());
        std::fill(chunk_scored.begin() + ptrdiff_t(begin),
                  chunk_scored.begin() + ptrdiff_t(end), uint8_t{1});
      }
    } else {
      std::atomic<bool> expired{false};
      const auto score_chunk = [&](size_t begin, size_t end,
                                   size_t worker) {
        if (expired.load(std::memory_order_relaxed)) return;
        if (Clock::now() >= deadline) {
          expired.store(true, std::memory_order_relaxed);
          return;
        }
        evaluator.ScoreChunk(batch, begin, end, worker, scores.data());
        std::fill(chunk_scored.begin() + ptrdiff_t(begin),
                  chunk_scored.begin() + ptrdiff_t(end), uint8_t{1});
      };
      if (workers != nullptr) {
        workers->ParallelChunks(batch.size(), kCandidateChunk, score_chunk);
      } else {
        for (size_t begin = 0; begin < batch.size();
             begin += kCandidateChunk) {
          score_chunk(begin,
                      std::min(begin + kCandidateChunk, batch.size()), 0);
        }
      }
      if (expired.load(std::memory_order_relaxed)) {
        result.hit_time_budget = true;
      }
    }

    // ---- Phase 3: merge in candidate-index order -----------------------
    // Sequential and order-fixed: output is bit-identical to a
    // single-threaded run. Extensions are materialized only for candidates
    // some list would accept.
    TopList level_best(static_cast<size_t>(config.beam_width));
    for (size_t i = 0; i < batch.size(); ++i) {
      if (!chunk_scored[i]) continue;
      ++result.num_evaluated;
      const double q = scores[i];
      if (q == -std::numeric_limits<double>::infinity()) continue;
      if (!level_best.WouldAccept(q) && !top_list.WouldAccept(q)) continue;
      const CandidateBatch::Item& item = batch.items[i];
      const pattern::Extension extension = pattern::Extension::Intersect(
          batch.parent_extension(item), batch.condition_extension(item));
      level_best.Offer(batch.ids_of(i), extension, q);
      top_list.Offer(batch.ids_of(i), extension, q);
    }
    beam = level_best.SortedDescending();
    if (result.hit_time_budget) break;
  }

  for (BeamEntry& entry : top_list.SortedDescending()) {
    ScoredSubgroup scored;
    scored.intention = MakeIntention(pool, entry.condition_ids);
    scored.extension = std::move(entry.extension);
    scored.quality = entry.quality;
    result.top.push_back(std::move(scored));
  }
  return result;
}

}  // namespace sisd::search
