#include "search/optimal_search.hpp"

#include <algorithm>
#include <atomic>
#include <bit>
#include <chrono>
#include <cmath>
#include <memory>
#include <mutex>
#include <numeric>
#include <optional>
#include <utility>
#include <vector>

#include "kernels/kernels.hpp"
#include "si/evaluation_context.hpp"

namespace sisd::search {

namespace {

using Clock = std::chrono::steady_clock;

constexpr double kLog2Pi = 1.8378770664093453;
constexpr double kInf = std::numeric_limits<double>::infinity();

/// Deadline-check granularity, matching the batch engine's candidate chunk.
constexpr size_t kDeadlineCheckInterval = 256;

/// \brief Precomputed global target order backing the per-node bound.
///
/// Rows are sorted once, ascending by (target value, row index). A node's
/// member values in sorted order are then exactly the values at its member
/// ranks, visited in ascending rank order — no per-node sort.
struct BoundOracle {
  std::vector<uint32_t> rank_of_row;  ///< row -> rank
  std::vector<double> sorted_values;  ///< rank -> target value
  double mu = 0.0;
  double sigma2 = 1.0;
  double gamma = 0.1;
  double eta = 1.0;
  size_t min_cov = 1;
};

std::optional<BoundOracle> MakeBoundOracle(
    const model::BackgroundModel& model, const linalg::Matrix& targets,
    const si::DescriptionLengthParams& dl, size_t min_cov) {
  // Same applicability as reference::MakeUnivariateSiBound: univariate
  // target, initial single-group model, positive variance.
  if (model.dim() != 1 || model.num_groups() != 1) return std::nullopt;
  if (targets.cols() != 1 || targets.rows() != model.num_rows()) {
    return std::nullopt;
  }
  const double sigma2 = model.group(0).sigma(0, 0);
  if (!(sigma2 > 0.0)) return std::nullopt;

  BoundOracle oracle;
  oracle.mu = model.group(0).mu[0];
  oracle.sigma2 = sigma2;
  oracle.gamma = dl.gamma;
  oracle.eta = dl.eta;
  oracle.min_cov = min_cov;

  const size_t n = targets.rows();
  std::vector<uint32_t> order(n);
  std::iota(order.begin(), order.end(), 0u);
  std::sort(order.begin(), order.end(), [&targets](uint32_t a, uint32_t b) {
    const double va = targets(a, 0);
    const double vb = targets(b, 0);
    if (va != vb) return va < vb;
    return a < b;
  });
  oracle.rank_of_row.resize(n);
  oracle.sorted_values.resize(n);
  for (size_t r = 0; r < n; ++r) {
    oracle.sorted_values[r] = targets(order[r], 0);
    oracle.rank_of_row[order[r]] = uint32_t(r);
  }
  return oracle;
}

/// \brief A frontier node: a canonical condition set (ascending pool ids)
/// with its materialized extension and optimistic bound.
struct Node {
  std::vector<uint32_t> ids;
  pattern::Extension ext{0};
  double bound = kInf;
  uint64_t seq = 0;  ///< insertion order; FIFO tie-break keeps 1-thread
                     ///< counters reproducible
};

struct NodeCmp {
  bool operator()(const Node& a, const Node& b) const {
    if (a.bound != b.bound) return a.bound < b.bound;  // max-heap on bound
    return a.seq > b.seq;                              // then FIFO
  }
};

/// \brief Per-worker reusable scratch (contexts, rank bitset, prefix sums).
struct WorkerScratch {
  si::EvaluationContext ctx;
  std::vector<uint64_t> rank_blocks;  ///< rank-space bitset, kept all-zero
                                      ///< between bound computations
  std::vector<double> values;
  std::vector<double> prefix;
  size_t ticks = 0;
  size_t evaluated = 0;
  size_t pruned = 0;

  WorkerScratch(const model::BackgroundModel& model,
                const linalg::Matrix* targets, size_t n)
      : ctx(model, targets),
        rank_blocks((n + 63) / 64, 0),
        values(n, 0.0),
        prefix(n + 1, 0.0) {}
};

/// \brief Shared incumbent: best (quality, ids) seen by any worker, under a
/// canonical total order so the winner is independent of discovery order.
struct Incumbent {
  std::mutex mu;
  std::atomic<double> quality{-kInf};  ///< relaxed snapshot for cheap reads
  std::vector<uint32_t> ids;           ///< guarded by `mu`
};

/// Lexicographic "(prefix ++ [last]) < b" without materializing the
/// candidate's id vector.
bool CandidateLexLess(const std::vector<uint32_t>& prefix, uint32_t last,
                      const std::vector<uint32_t>& b) {
  size_t i = 0;
  for (; i < prefix.size(); ++i) {
    if (i >= b.size()) return false;
    if (prefix[i] != b[i]) return prefix[i] < b[i];
  }
  if (i >= b.size()) return false;
  if (last != b[i]) return last < b[i];
  return prefix.size() + 1 < b.size();
}

/// Offers a scored candidate to the incumbent. Higher quality wins; exact
/// quality ties go to the lexicographically smaller id vector — the same
/// candidate a sequential pre-order DFS would have kept first, which is
/// what makes the returned optimum thread-count-invariant.
void Offer(Incumbent* inc, double q, const std::vector<uint32_t>& prefix,
           uint32_t cid) {
  if (q < inc->quality.load(std::memory_order_relaxed)) return;
  std::lock_guard<std::mutex> lock(inc->mu);
  const double cur = inc->quality.load(std::memory_order_relaxed);
  if (q < cur) return;
  if (q == cur && !CandidateLexLess(prefix, cid, inc->ids)) return;
  inc->ids.assign(prefix.begin(), prefix.end());
  inc->ids.push_back(cid);
  inc->quality.store(q, std::memory_order_relaxed);
}

struct SearchShared {
  const ConditionPool* pool = nullptr;
  const si::DescriptionLengthParams* dl = nullptr;
  const BoundOracle* oracle = nullptr;  ///< null = bound off
  size_t n = 0;
  size_t min_cov = 1;
  int max_depth = 2;
  Clock::time_point deadline;
  std::atomic<bool> expired{false};
  Incumbent inc;
};

/// Optimistic SI bound for the child `parent & cond` (`m` rows, carrying
/// `child_num_conditions` conditions): scatter the child's rows into the
/// worker's rank-space bitset, sweep ascending to gather the values in
/// sorted order (clearing as it goes), and run the bottom-k/top-k
/// prefix-sum maximization of reference::MakeUnivariateSiBound — same
/// arithmetic, no sort, no allocation.
double ChildBound(const BoundOracle& oracle, WorkerScratch* ws,
                  const pattern::Extension& parent,
                  const pattern::Extension& cond, size_t m,
                  size_t child_num_conditions) {
  pattern::Extension::ForEachRowAnd(parent, cond, [&](size_t row) {
    const uint32_t r = oracle.rank_of_row[row];
    ws->rank_blocks[r >> 6] |= uint64_t{1} << (r & 63);
  });
  size_t k = 0;
  ws->prefix[0] = 0.0;
  for (size_t b = 0; b < ws->rank_blocks.size(); ++b) {
    uint64_t block = ws->rank_blocks[b];
    if (block == 0) continue;
    ws->rank_blocks[b] = 0;
    while (block != 0) {
      const size_t r = (b << 6) + size_t(std::countr_zero(block));
      block &= block - 1;
      const double v = oracle.sorted_values[r];
      ws->values[k] = v;
      ws->prefix[k + 1] = ws->prefix[k] + v;
      ++k;
    }
  }
  SISD_DCHECK(k == m);

  const double total = ws->prefix[m];
  double best_ic = -kInf;
  for (size_t j = oracle.min_cov; j <= m; ++j) {
    const double dk = double(j);
    const double bottom_mean = ws->prefix[j] / dk;
    const double top_mean = (total - ws->prefix[m - j]) / dk;
    const double shift = std::max(std::fabs(bottom_mean - oracle.mu),
                                  std::fabs(top_mean - oracle.mu));
    const double ic = 0.5 * (kLog2Pi + std::log(oracle.sigma2 / dk)) +
                      dk * shift * shift / (2.0 * oracle.sigma2);
    best_ic = std::max(best_ic, ic);
  }
  // Every strict refinement carries at least one more condition; negative
  // IC makes 0 the valid supremum (see reference::MakeUnivariateSiBound).
  const double min_descendant_dl =
      oracle.gamma * double(child_num_conditions + 1) + oracle.eta;
  return best_ic >= 0.0 ? best_ic / min_descendant_dl : 0.0;
}

/// Expands one node: enumerates its admissible sibling candidates in
/// canonical order, scores each through the fused kernel path, offers them
/// to the shared incumbent, and emits surviving interior children (bound
/// computed, extension materialized) into `*children`.
void ExpandNode(SearchShared* sh, const Node& node, WorkerScratch* ws,
                std::vector<Node>* children) {
  const size_t num_conds = node.ids.size() + 1;  // each candidate's |C|
  std::vector<pattern::Condition> conds;
  conds.reserve(node.ids.size());
  for (uint32_t id : node.ids) conds.push_back(sh->pool->condition(id));
  const pattern::Intention intention(std::move(conds));

  const bool interior = int(num_conds) < sh->max_depth;
  linalg::Vector& mean = *ws->ctx.scratch_mean();
  const bool univariate = ws->ctx.has_univariate_targets();
  const size_t nb = node.ext.blocks().size();
  const size_t start = node.ids.empty() ? 0 : size_t(node.ids.back()) + 1;
  for (size_t cid = start; cid < sh->pool->size(); ++cid) {
    if ((++ws->ticks & (kDeadlineCheckInterval - 1)) == 0) {
      if (sh->expired.load(std::memory_order_relaxed)) return;
      if (Clock::now() >= sh->deadline) {
        sh->expired.store(true, std::memory_order_relaxed);
        return;
      }
    }
    if (!intention.AllowsRefinementWith(sh->pool->condition(cid))) continue;
    const pattern::Extension& cext = sh->pool->extension(cid);
    size_t count;
    if (univariate) {
      // dy == 1: one fused pass yields count + sum; candidates that fail
      // the coverage filter cost exactly that single pass.
      const kernels::MaskedMoments moments =
          ws->ctx.MaskedTargetMomentsAnd(node.ext, cext);
      count = moments.count;
      if (count < sh->min_cov || count == sh->n) continue;
      mean[0] = moments.sum / double(count);
    } else {
      count = kernels::CountAnd2(node.ext.blocks().data(),
                                 cext.blocks().data(), nb);
      if (count < sh->min_cov || count == sh->n) continue;
      ws->ctx.MaskedSubgroupMeanInto(node.ext, cext, count, &mean);
    }
    const double q = ws->ctx
                         .ScoreLocationMasked(node.ext, cext, count, mean,
                                              num_conds, *sh->dl)
                         .si;
    ++ws->evaluated;
    Offer(&sh->inc, q, node.ids, uint32_t(cid));

    if (!interior) continue;
    double bound = kInf;
    if (sh->oracle != nullptr) {
      bound = ChildBound(*sh->oracle, ws, node.ext, cext, count, num_conds);
      // Strict: a child whose bound *ties* the incumbent may still hold a
      // canonical co-optimum and must be expanded.
      if (bound < sh->inc.quality.load(std::memory_order_relaxed)) {
        ++ws->pruned;
        continue;
      }
    }
    Node child;
    child.ids = node.ids;
    child.ids.push_back(uint32_t(cid));
    child.ext = pattern::Extension(sh->n);
    pattern::Extension::IntersectInto(node.ext, cext, &child.ext);
    child.bound = bound;
    children->push_back(std::move(child));
  }
}

}  // namespace

OptimalResult OptimalLocationSearch(const data::DataTable& table,
                                    const ConditionPool& pool,
                                    const model::BackgroundModel& model,
                                    const linalg::Matrix& targets,
                                    const si::DescriptionLengthParams& dl,
                                    const OptimalConfig& config,
                                    ThreadPool* shared_workers) {
  SISD_CHECK(config.max_depth >= 1);
  const size_t n = table.num_rows();

  SearchShared sh;
  sh.pool = &pool;
  sh.dl = &dl;
  sh.n = n;
  sh.min_cov = std::max<size_t>(config.min_coverage, 1);
  sh.max_depth = config.max_depth;
  sh.deadline =
      Clock::now() + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(
                             std::isfinite(config.time_budget_seconds)
                                 ? config.time_budget_seconds
                                 : 1e9));

  std::optional<BoundOracle> oracle;
  if (config.use_bound) {
    oracle = MakeBoundOracle(model, targets, dl, sh.min_cov);
  }
  sh.oracle = oracle.has_value() ? &*oracle : nullptr;

  OptimalResult result;
  result.used_bound = sh.oracle != nullptr;

  const size_t num_workers =
      shared_workers != nullptr
          ? shared_workers->num_workers()
          : ThreadPool::ResolveNumThreads(config.num_threads);
  std::unique_ptr<ThreadPool> local_pool;
  ThreadPool* workers = shared_workers;
  if (workers == nullptr && num_workers > 1) {
    local_pool = std::make_unique<ThreadPool>(num_workers);
    workers = local_pool.get();
  }

  std::vector<WorkerScratch> scratch;
  scratch.reserve(num_workers);
  for (size_t w = 0; w < num_workers; ++w) {
    scratch.emplace_back(model, &targets, n);
  }

  const NodeCmp cmp;
  std::vector<Node> heap;
  uint64_t next_seq = 0;
  {
    Node root;
    root.ext = pattern::Extension(n, /*full=*/true);
    root.seq = next_seq++;
    heap.push_back(std::move(root));
  }

  std::vector<Node> wave;
  std::vector<std::vector<Node>> wave_children;
  const size_t wave_cap = std::max<size_t>(1, num_workers * 2);
  while (!heap.empty()) {
    if (sh.expired.load(std::memory_order_relaxed) ||
        Clock::now() >= sh.deadline) {
      sh.expired.store(true, std::memory_order_relaxed);
      break;
    }
    wave.clear();
    while (wave.size() < wave_cap && !heap.empty()) {
      std::pop_heap(heap.begin(), heap.end(), cmp);
      Node top = std::move(heap.back());
      heap.pop_back();
      // Re-check against the incumbent as of now (it may have tightened
      // since the node was queued).
      if (top.bound < sh.inc.quality.load(std::memory_order_relaxed)) {
        ++result.num_pruned_nodes;
        continue;
      }
      wave.push_back(std::move(top));
    }
    if (wave.empty()) break;

    wave_children.assign(wave.size(), {});
    if (workers != nullptr && wave.size() > 1) {
      workers->ParallelChunks(
          wave.size(), /*grain=*/1, [&](size_t begin, size_t end, size_t w) {
            for (size_t i = begin; i < end; ++i) {
              ExpandNode(&sh, wave[i], &scratch[w], &wave_children[i]);
            }
          });
    } else {
      for (size_t i = 0; i < wave.size(); ++i) {
        ExpandNode(&sh, wave[i], &scratch[0], &wave_children[i]);
      }
    }
    result.num_expanded += wave.size();

    for (std::vector<Node>& kids : wave_children) {
      for (Node& child : kids) {
        if (child.bound < sh.inc.quality.load(std::memory_order_relaxed)) {
          ++result.num_pruned_nodes;
          continue;
        }
        child.seq = next_seq++;
        heap.push_back(std::move(child));
        std::push_heap(heap.begin(), heap.end(), cmp);
      }
    }
  }

  if (sh.expired.load(std::memory_order_relaxed)) result.completed = false;
  for (const WorkerScratch& ws : scratch) {
    result.num_evaluated += ws.evaluated;
    result.num_pruned_nodes += ws.pruned;
  }

  if (!sh.inc.ids.empty()) {
    std::vector<pattern::Condition> best_conds;
    best_conds.reserve(sh.inc.ids.size());
    pattern::Extension best_ext(n, /*full=*/true);
    for (uint32_t cid : sh.inc.ids) {
      best_conds.push_back(pool.condition(cid));
      best_ext.IntersectWith(pool.extension(cid));
    }
    result.best.intention = pattern::Intention(std::move(best_conds));
    result.best.extension = std::move(best_ext);
    result.best.quality = sh.inc.quality.load(std::memory_order_relaxed);
  }
  return result;
}

}  // namespace sisd::search
