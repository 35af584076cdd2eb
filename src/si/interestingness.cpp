#include "si/interestingness.hpp"

#include <algorithm>
#include <cmath>
#include <utility>
#include <vector>

#include "common/strings.hpp"
#include "linalg/cholesky.hpp"
#include "si/evaluation_context.hpp"

namespace sisd::si {

namespace {

constexpr double kLog2Pi = 1.8378770664093453;

}  // namespace

Status ValidateDescriptionLengthParams(const DescriptionLengthParams& params) {
  for (const auto& [name, value] :
       {std::pair<const char*, double>{"gamma", params.gamma},
        {"eta", params.eta}}) {
    if (!(std::isfinite(value) && value >= 0.0)) {
      return Status::InvalidArgument(
          StrFormat("%s must be finite and >= 0 (got %g)", name, value));
    }
  }
  if (!(params.gamma + params.eta > 0.0)) {
    return Status::InvalidArgument("gamma + eta must be > 0");
  }
  return Status::OK();
}

double LocationDescriptionLength(size_t num_conditions,
                                 const DescriptionLengthParams& params) {
  return params.gamma * double(num_conditions) + params.eta;
}

double SpreadDescriptionLength(size_t num_conditions,
                               const DescriptionLengthParams& params) {
  return params.gamma * double(num_conditions) + params.eta + 1.0;
}

LocationScore LocationScoreFromIC(double ic, size_t num_conditions,
                                  const DescriptionLengthParams& params) {
  const double dl = LocationDescriptionLength(num_conditions, params);
  return {ic, dl, ic / dl};
}

double LocationIC(const model::BackgroundModel& model,
                  const pattern::Extension& extension,
                  const linalg::Vector& empirical_mean) {
  // Thin wrapper over the allocation-free engine path; batch callers hold a
  // long-lived EvaluationContext instead of paying its setup per call.
  EvaluationContext context(model);
  return context.LocationICMasked(extension, extension, extension.count(),
                                  empirical_mean);
}

LocationScore ScoreLocation(const model::BackgroundModel& model,
                            const pattern::Extension& extension,
                            const linalg::Vector& empirical_mean,
                            size_t num_conditions,
                            const DescriptionLengthParams& params) {
  EvaluationContext context(model);
  return context.ScoreLocationMasked(extension, extension, extension.count(),
                                     empirical_mean, num_conditions, params);
}

stats::Chi2MixtureApprox FitSpreadSurrogate(
    const model::BackgroundModel& model, const pattern::Extension& extension,
    const linalg::Vector& w) {
  SISD_CHECK(!extension.empty());
  const double size = double(extension.count());
  const std::vector<size_t> counts = model.GroupCounts(extension);
  double a1 = 0.0, a2 = 0.0, a3 = 0.0;
  for (size_t g = 0; g < counts.size(); ++g) {
    if (counts[g] == 0) continue;
    const double a = model.group(g).sigma.QuadraticForm(w) / size;
    SISD_CHECK(a > 0.0);
    const double c = double(counts[g]);
    a1 += c * a;
    a2 += c * a * a;
    a3 += c * a * a * a;
  }
  return stats::FitChi2MixtureFromPowerSums(a1, a2, a3);
}

double SpreadIC(const model::BackgroundModel& model,
                const pattern::Extension& extension, const linalg::Vector& w,
                double empirical_variance) {
  const stats::Chi2MixtureApprox approx =
      FitSpreadSurrogate(model, extension, w);
  return approx.NegLogPdf(empirical_variance);
}

linalg::Vector PerAttributeLocationIC(const model::BackgroundModel& model,
                                      const pattern::Extension& extension,
                                      const linalg::Vector& empirical_mean) {
  SISD_CHECK(!extension.empty());
  SISD_CHECK(empirical_mean.size() == model.dim());
  const model::MeanStatisticMarginal marginal =
      model.MeanStatMarginal(extension);
  linalg::Vector ic(model.dim());
  for (size_t t = 0; t < model.dim(); ++t) {
    const double var = marginal.cov(t, t);
    SISD_DCHECK(var > 0.0);
    const double diff = empirical_mean[t] - marginal.mean[t];
    ic[t] = 0.5 * (kLog2Pi + std::log(var)) + 0.5 * diff * diff / var;
  }
  return ic;
}

std::vector<size_t> RankAttributesByIC(const model::BackgroundModel& model,
                                       const pattern::Extension& extension,
                                       const linalg::Vector& empirical_mean) {
  const linalg::Vector ic =
      PerAttributeLocationIC(model, extension, empirical_mean);
  std::vector<size_t> order(model.dim());
  for (size_t t = 0; t < order.size(); ++t) order[t] = t;
  std::stable_sort(order.begin(), order.end(),
                   [&ic](size_t a, size_t b) { return ic[a] > ic[b]; });
  return order;
}

SpreadScore ScoreSpread(const model::BackgroundModel& model,
                        const pattern::Extension& extension,
                        const linalg::Vector& w, double empirical_variance,
                        size_t num_conditions,
                        const DescriptionLengthParams& params) {
  SpreadScore score;
  score.approx = FitSpreadSurrogate(model, extension, w);
  score.ic = score.approx.NegLogPdf(empirical_variance);
  score.dl = SpreadDescriptionLength(num_conditions, params);
  score.si = score.ic / score.dl;
  return score;
}

}  // namespace sisd::si
