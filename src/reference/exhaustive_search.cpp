#include "reference/exhaustive_search.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <vector>

namespace sisd::reference {

namespace {

using Clock = std::chrono::steady_clock;

constexpr double kLog2Pi = 1.8378770664093453;

struct DfsContext {
  const data::DataTable* table;
  const search::ConditionPool* pool;
  const ExhaustiveConfig* config;
  const QualityFunction* quality;
  const OptimisticBound* bound;
  Clock::time_point deadline;

  ExhaustiveResult result;
  double incumbent = -std::numeric_limits<double>::infinity();
  /// Candidates considered since the last deadline check. The deadline is
  /// re-checked every 256 candidates (the batch engine's chunk
  /// granularity), not just at node entry — a single node can have
  /// thousands of children, which used to overshoot the budget by the full
  /// cost of one expansion.
  size_t ticks = 0;
};

/// Expands the node (intention, extension) by conditions with pool index
/// greater than `last_cid` (canonical enumeration: each condition set is
/// visited exactly once, in increasing index order).
void Dfs(DfsContext* ctx, const pattern::Intention& intention,
         const pattern::Extension& extension, size_t last_cid, int depth) {
  if (depth >= ctx->config->max_depth) return;
  if (Clock::now() >= ctx->deadline) {
    ctx->result.completed = false;
    return;
  }
  // Branch-and-bound: can any refinement of this node beat the incumbent?
  if (ctx->bound != nullptr && !intention.empty()) {
    const double optimistic = (*ctx->bound)(intention, extension);
    if (optimistic <= ctx->incumbent) {
      ++ctx->result.num_pruned_nodes;
      return;
    }
  }
  const size_t n = ctx->table->num_rows();
  const size_t start = intention.empty() ? 0 : last_cid + 1;
  for (size_t cid = start; cid < ctx->pool->size(); ++cid) {
    if ((++ctx->ticks & 255) == 0 && Clock::now() >= ctx->deadline) {
      ctx->result.completed = false;
      return;
    }
    const pattern::Condition& cond = ctx->pool->condition(cid);
    if (!intention.AllowsRefinementWith(cond)) continue;
    pattern::Extension child_ext =
        pattern::Extension::Intersect(extension, ctx->pool->extension(cid));
    if (child_ext.count() < std::max<size_t>(ctx->config->min_coverage, 1) ||
        child_ext.count() == n) {
      continue;
    }
    const pattern::Intention child = intention.Extended(cond);
    const double q = (*ctx->quality)(child, child_ext);
    ++ctx->result.num_evaluated;
    if (q > ctx->incumbent) {
      ctx->incumbent = q;
      ctx->result.best.intention = child;
      ctx->result.best.extension = child_ext;
      ctx->result.best.quality = q;
    }
    Dfs(ctx, child, child_ext, cid, depth + 1);
    if (!ctx->result.completed) return;
  }
}

}  // namespace

ExhaustiveResult ExhaustiveSearch(const data::DataTable& table,
                                  const search::ConditionPool& pool,
                                  const ExhaustiveConfig& config,
                                  const QualityFunction& quality,
                                  const OptimisticBound* bound) {
  SISD_CHECK(config.max_depth >= 1);
  DfsContext ctx;
  ctx.table = &table;
  ctx.pool = &pool;
  ctx.config = &config;
  ctx.quality = &quality;
  ctx.bound = bound;
  ctx.deadline =
      Clock::now() + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(
                             std::isfinite(config.time_budget_seconds)
                                 ? config.time_budget_seconds
                                 : 1e9));
  const pattern::Extension all(table.num_rows(), /*full=*/true);
  Dfs(&ctx, pattern::Intention(), all, 0, 0);
  return std::move(ctx.result);
}

Result<OptimisticBound> MakeUnivariateSiBound(
    const model::BackgroundModel& model, const linalg::Matrix& y,
    const si::DescriptionLengthParams& dl_params, size_t min_coverage) {
  if (model.dim() != 1) {
    return Status::InvalidArgument(
        "tight SI bound requires a univariate target");
  }
  if (model.num_groups() != 1) {
    return Status::InvalidArgument(
        "tight SI bound requires the initial (single-group) model");
  }
  if (y.cols() != 1 || y.rows() != model.num_rows()) {
    return Status::InvalidArgument("target matrix shape mismatch");
  }
  const double mu = model.group(0).mu[0];
  const double sigma2 = model.group(0).sigma(0, 0);
  if (!(sigma2 > 0.0)) {
    return Status::NumericalError("nonpositive model variance");
  }
  const double gamma = dl_params.gamma;
  const double eta = dl_params.eta;
  const size_t min_cov = std::max<size_t>(min_coverage, 1);

  // Non-owning: the closure must not outlive the caller's target matrix
  // (see the header's lifetime note). A pointer makes the capture explicit
  // — the previous `[&y, ...]` silently bound a reference to whatever
  // matrix happened to be passed, dangling once it went out of scope.
  const linalg::Matrix* targets = &y;
  OptimisticBound bound = [targets, mu, sigma2, gamma, eta, min_cov](
                              const pattern::Intention& intention,
                              const pattern::Extension& extension) {
    // Collect and sort the node's target values.
    std::vector<double> values;
    values.reserve(extension.count());
    for (size_t i : extension.ToRows()) values.push_back((*targets)(i, 0));
    std::sort(values.begin(), values.end());
    const size_t m = values.size();
    if (m < min_cov) return -std::numeric_limits<double>::infinity();

    // Prefix sums for bottom-k and top-k means.
    std::vector<double> prefix(m + 1, 0.0);
    for (size_t i = 0; i < m; ++i) prefix[i + 1] = prefix[i] + values[i];
    const double total = prefix[m];

    double best_ic = -std::numeric_limits<double>::infinity();
    for (size_t k = min_cov; k <= m; ++k) {
      const double dk = double(k);
      const double bottom_mean = prefix[k] / dk;
      const double top_mean = (total - prefix[m - k]) / dk;
      const double shift = std::max(std::fabs(bottom_mean - mu),
                                    std::fabs(top_mean - mu));
      const double ic = 0.5 * (kLog2Pi + std::log(sigma2 / dk)) +
                        dk * shift * shift / (2.0 * sigma2);
      best_ic = std::max(best_ic, ic);
    }
    // Every strict refinement carries at least one more condition, so its
    // DL is at least gamma*(|C|+1)+eta. For nonnegative IC the SI bound is
    // IC/minDL; for negative IC, SI = IC'/DL' <= best_ic/DL' < 0 approaches
    // 0 from below as DL' grows, so 0 is the valid supremum.
    const double min_descendant_dl =
        gamma * double(intention.size() + 1) + eta;
    return best_ic >= 0.0 ? best_ic / min_descendant_dl : 0.0;
  };
  return bound;
}

}  // namespace sisd::reference
