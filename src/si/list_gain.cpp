#include "si/list_gain.hpp"

#include <cmath>
#include <limits>

#include "common/strings.hpp"

namespace sisd::si {

namespace {

constexpr double kTwoPi = 6.283185307179586476925286766559;

/// Floored ML variance from moments: `q/c - m*m`, clamped to the floor.
/// The `!(v > floor)` form also catches NaN (non-finite targets) — the
/// floor is a safe, finite fallback either way. Both the model fit and the
/// gain use this exact expression, so a fitted rule model always agrees
/// bit-for-bit with the variance its gain was computed from.
double FlooredVariance(const kernels::MaskedMoments& moments, double mean,
                       double count, double floor) {
  double v = moments.sum_squares / count - mean * mean;
  if (!(v > floor)) v = floor;
  return v;
}

}  // namespace

Status ValidateListGainParams(const ListGainParams& params) {
  const auto is_cost = [](double v) { return std::isfinite(v) && v >= 0.0; };
  if (!is_cost(params.alpha) || !is_cost(params.beta) ||
      !(std::isfinite(params.variance_floor) && params.variance_floor > 0.0)) {
    return Status::InvalidArgument(StrFormat(
        "list_alpha and list_beta must be finite and >= 0, variance_floor "
        "finite and > 0 (got %g, %g, %g)",
        params.alpha, params.beta, params.variance_floor));
  }
  return Status::OK();
}

void FitLocalNormalModel(const kernels::MaskedMoments* moments, size_t dy,
                         double variance_floor, LocalNormalModel* out) {
  SISD_CHECK(out != nullptr);
  out->mean = linalg::Vector(dy);
  out->variance = linalg::Vector(dy);
  if (dy == 0) return;
  SISD_CHECK(moments[0].count > 0);
  const double c = double(moments[0].count);
  for (size_t j = 0; j < dy; ++j) {
    const double m = moments[j].sum / c;
    out->mean[j] = m;
    out->variance[j] = FlooredVariance(moments[j], m, c, variance_floor);
  }
}

double NormalDataCost(const kernels::MaskedMoments& moments, double mean,
                      double variance) {
  const double c = double(moments.count);
  // -log N(y | mean, variance) summed over the rows, from sufficient
  // statistics: sum (y - mean)^2 = q - 2*mean*s + c*mean^2.
  return 0.5 * c * std::log(kTwoPi * variance) +
         (moments.sum_squares - 2.0 * mean * moments.sum +
          c * mean * mean) /
             (2.0 * variance);
}

double ListGainFromMoments(const kernels::MaskedMoments* moments, size_t dy,
                           const LocalNormalModel& default_model,
                           size_t num_conditions,
                           const ListGainParams& params) {
  if (dy == 0 || moments[0].count == 0) {
    return -std::numeric_limits<double>::infinity();
  }
  const double c = double(moments[0].count);
  double gain_data = 0.0;
  for (size_t j = 0; j < dy; ++j) {
    const double m = moments[j].sum / c;
    const double v = FlooredVariance(moments[j], m, c, params.variance_floor);
    const double default_cost = NormalDataCost(
        moments[j], default_model.mean[j], default_model.variance[j]);
    const double local_cost = NormalDataCost(moments[j], m, v);
    gain_data += default_cost - local_cost;
  }
  // BIC-style model cost: alpha per condition, beta per rule, and half a
  // log(count) for each of the 2*dy fitted parameters.
  const double model_cost = params.alpha * double(num_conditions) +
                            params.beta + double(dy) * std::log(c);
  double gain = gain_data - model_cost;
  if (params.normalized) gain /= c;
  return gain;
}

}  // namespace sisd::si
