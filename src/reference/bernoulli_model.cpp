#include "reference/bernoulli_model.hpp"

#include <algorithm>
#include <cmath>

#include "stats/descriptive.hpp"

namespace sisd::reference {

namespace {

constexpr double kLog2Pi = 1.8378770664093453;

double Sigmoid(double x) { return 1.0 / (1.0 + std::exp(-x)); }

double Logit(double p) { return std::log(p / (1.0 - p)); }

}  // namespace

Result<BernoulliBackgroundModel> BernoulliBackgroundModel::Create(
    size_t num_rows, linalg::Vector p) {
  if (num_rows == 0) {
    return Status::InvalidArgument("model needs at least one row");
  }
  if (p.empty()) {
    return Status::InvalidArgument("model needs at least one attribute");
  }
  for (size_t j = 0; j < p.size(); ++j) {
    if (!(p[j] > 0.0 && p[j] < 1.0)) {
      return Status::InvalidArgument(
          "success probabilities must lie strictly inside (0, 1)");
    }
  }
  BernoulliBackgroundModel model;
  model.num_rows_ = num_rows;
  model.dim_ = p.size();
  BernoulliGroup group;
  group.p = std::move(p);
  group.rows = pattern::Extension(num_rows, /*full=*/true);
  model.groups_.push_back(std::move(group));
  model.group_of_row_.assign(num_rows, 0);
  return model;
}

Result<BernoulliBackgroundModel> BernoulliBackgroundModel::CreateFromData(
    const linalg::Matrix& y, double clamp) {
  if (y.rows() == 0 || y.cols() == 0) {
    return Status::InvalidArgument("empty target matrix");
  }
  if (!(clamp > 0.0 && clamp < 0.5)) {
    return Status::InvalidArgument("clamp must lie in (0, 0.5)");
  }
  for (size_t i = 0; i < y.rows(); ++i) {
    for (size_t j = 0; j < y.cols(); ++j) {
      const double v = y(i, j);
      if (v != 0.0 && v != 1.0) {
        return Status::InvalidArgument(
            "Bernoulli model requires a 0/1 target matrix");
      }
    }
  }
  linalg::Vector p = stats::ColumnMeans(y);
  for (size_t j = 0; j < p.size(); ++j) {
    p[j] = std::min(1.0 - clamp, std::max(clamp, p[j]));
  }
  return Create(y.rows(), std::move(p));
}

linalg::Vector BernoulliBackgroundModel::ExpectedSubgroupMean(
    const pattern::Extension& extension) const {
  SISD_CHECK(!extension.empty());
  SISD_CHECK(extension.universe_size() == num_rows_);
  linalg::Vector mean(dim_);
  for (const BernoulliGroup& group : groups_) {
    const size_t overlap =
        pattern::Extension::IntersectionCount(group.rows, extension);
    if (overlap == 0) continue;
    mean.AddScaled(group.p, double(overlap));
  }
  mean /= double(extension.count());
  return mean;
}

Result<double> BernoulliBackgroundModel::UpdateLocation(
    const pattern::Extension& extension, const linalg::Vector& target_mean) {
  if (extension.empty()) {
    return Status::InvalidArgument("empty extension");
  }
  if (target_mean.size() != dim_) {
    return Status::InvalidArgument("target mean dimension mismatch");
  }
  const std::vector<size_t> inside = SplitGroupsFor(extension);
  const double size = double(extension.count());
  double max_tilt = 0.0;
  for (size_t j = 0; j < dim_; ++j) {
    // Clamp the target count half a unit away from the degenerate ends so
    // the tilt stays finite even for all-present / all-absent subgroups.
    const double target_count = std::min(
        size - 0.5, std::max(0.5, target_mean[j] * size));
    std::vector<double> logits, counts;
    logits.reserve(inside.size());
    counts.reserve(inside.size());
    for (size_t g : inside) {
      logits.push_back(Logit(groups_[g].p[j]));
      counts.push_back(double(groups_[g].count()));
    }
    SISD_ASSIGN_OR_RETURN(lambda,
                          SolveBernoulliTilt(logits, counts, target_count));
    for (size_t k = 0; k < inside.size(); ++k) {
      groups_[inside[k]].p[j] = Sigmoid(logits[k] + lambda);
    }
    max_tilt = std::max(max_tilt, std::fabs(lambda));
  }
  return max_tilt;
}

linalg::Vector BernoulliBackgroundModel::PerAttributeIC(
    const pattern::Extension& extension,
    const linalg::Vector& observed_mean) const {
  SISD_CHECK(!extension.empty());
  SISD_CHECK(observed_mean.size() == dim_);
  const double size = double(extension.count());
  // Poisson-binomial mean/variance of the presence count per attribute.
  linalg::Vector mu(dim_), var(dim_);
  for (const BernoulliGroup& group : groups_) {
    const size_t overlap =
        pattern::Extension::IntersectionCount(group.rows, extension);
    if (overlap == 0) continue;
    for (size_t j = 0; j < dim_; ++j) {
      mu[j] += double(overlap) * group.p[j];
      var[j] += double(overlap) * group.p[j] * (1.0 - group.p[j]);
    }
  }
  linalg::Vector ic(dim_);
  for (size_t j = 0; j < dim_; ++j) {
    const double v = std::max(var[j], 1e-12);
    const double s = observed_mean[j] * size;
    const double z2 = (s - mu[j]) * (s - mu[j]) / v;
    // Negative log of the normal density approximating the count's pmf.
    ic[j] = 0.5 * (kLog2Pi + std::log(v)) + 0.5 * z2;
  }
  return ic;
}

double BernoulliBackgroundModel::LocationIC(
    const pattern::Extension& extension,
    const linalg::Vector& observed_mean) const {
  return PerAttributeIC(extension, observed_mean).Sum();
}

double BernoulliBackgroundModel::KlDivergenceFrom(
    const BernoulliBackgroundModel& other) const {
  SISD_CHECK(num_rows_ == other.num_rows_ && dim_ == other.dim_);
  double acc = 0.0;
  for (size_t i = 0; i < num_rows_; ++i) {
    const linalg::Vector& p = ProbabilitiesOf(i);
    const linalg::Vector& q = other.ProbabilitiesOf(i);
    for (size_t j = 0; j < dim_; ++j) {
      acc += p[j] * std::log(p[j] / q[j]) +
             (1.0 - p[j]) * std::log((1.0 - p[j]) / (1.0 - q[j]));
    }
  }
  return acc;
}

std::vector<size_t> BernoulliBackgroundModel::SplitGroupsFor(
    const pattern::Extension& extension) {
  SISD_CHECK(extension.universe_size() == num_rows_);
  std::vector<size_t> inside;
  const size_t original = groups_.size();
  for (size_t g = 0; g < original; ++g) {
    const size_t overlap =
        pattern::Extension::IntersectionCount(groups_[g].rows, extension);
    if (overlap == 0) continue;
    if (overlap == groups_[g].count()) {
      inside.push_back(g);
      continue;
    }
    pattern::Extension moved =
        pattern::Extension::Intersect(groups_[g].rows, extension);
    BernoulliGroup fresh;
    fresh.p = groups_[g].p;
    fresh.rows = moved;
    const size_t fresh_id = groups_.size();
    for (size_t row : moved.ToRows()) {
      groups_[g].rows.Erase(row);
      group_of_row_[row] = static_cast<uint32_t>(fresh_id);
    }
    groups_.push_back(std::move(fresh));
    inside.push_back(fresh_id);
  }
  return inside;
}

Result<double> SolveBernoulliTilt(const std::vector<double>& logits,
                                  const std::vector<double>& counts,
                                  double target_count, double tolerance,
                                  int max_iterations) {
  if (logits.empty() || logits.size() != counts.size()) {
    return Status::InvalidArgument("logits/counts size mismatch");
  }
  double total = 0.0;
  for (double c : counts) {
    if (!(c > 0.0)) return Status::InvalidArgument("nonpositive count");
    total += c;
  }
  if (!(target_count > 0.0 && target_count < total)) {
    return Status::InvalidArgument(
        "target count must lie strictly between 0 and the total");
  }

  auto value_and_derivative = [&](double lambda) {
    double value = 0.0;
    double derivative = 0.0;
    for (size_t k = 0; k < logits.size(); ++k) {
      const double s = Sigmoid(logits[k] + lambda);
      value += counts[k] * s;
      derivative += counts[k] * s * (1.0 - s);
    }
    return std::pair<double, double>(value, derivative);
  };

  // Bracket: LHS is strictly increasing from 0 to total.
  double lo = -1.0, hi = 1.0;
  for (int iter = 0;
       iter < 200 && value_and_derivative(lo).first > target_count; ++iter) {
    lo *= 2.0;
  }
  for (int iter = 0;
       iter < 200 && value_and_derivative(hi).first < target_count; ++iter) {
    hi *= 2.0;
  }

  double lambda = 0.0;
  for (int iter = 0; iter < max_iterations; ++iter) {
    const auto [value, derivative] = value_and_derivative(lambda);
    const double residual = value - target_count;
    if (std::fabs(residual) <= tolerance * std::max(1.0, target_count)) {
      return lambda;
    }
    if (residual > 0.0) {
      hi = lambda;
    } else {
      lo = lambda;
    }
    double next = lambda;
    if (derivative > 0.0) next = lambda - residual / derivative;
    if (!(next > lo && next < hi)) next = 0.5 * (lo + hi);
    if (next == lambda) return lambda;
    lambda = next;
  }
  return lambda;
}

}  // namespace sisd::reference
