// Reproduces Fig. 3 of the paper: SI of the subgroups corresponding to the
// true descriptions when the binary descriptors are corrupted by flipping
// each 0/1 with probability p ("distortion"), for p = 0 .. 0.35, plus a
// baseline.
//
// Baseline (as in the figure): the SI of the best pattern definable on the
// pure-noise attributes (a6, a7) — what you would find if the descriptions
// carried no signal at all.
//
// Paper shape: all three curves decay with distortion and cross the
// baseline around p ~ 0.22-0.30; the embedded patterns are fully
// recoverable up to p ~ 0.22.

#include <algorithm>
#include <cstdio>
#include <vector>

#include "datagen/synthetic.hpp"
#include "pattern/patterns.hpp"
#include "si/interestingness.hpp"

int main() {
  using namespace sisd;

  std::printf("=== Fig. 3: SI of true subgroups vs description noise ===\n\n");
  const datagen::SyntheticData data = datagen::MakeSyntheticEmbedded();

  // Background model with empirical mean/covariance (never updated: the
  // figure studies iteration-1 SI values).
  Result<model::BackgroundModel> model =
      model::BackgroundModel::CreateFromData(data.dataset.targets);
  model.status().CheckOK();
  const si::DescriptionLengthParams dl;

  std::printf("%-10s %10s %10s %10s %12s\n", "distortion", "attr3='1'",
              "attr4='1'", "attr5='1'", "baseline");
  for (int step = 0; step <= 14; ++step) {
    const double p = 0.025 * step;
    // Average over a few corruption draws to smooth the curves.
    const int kReps = 5;
    double si_true[3] = {0.0, 0.0, 0.0};
    double si_baseline = 0.0;
    for (int rep = 0; rep < kReps; ++rep) {
      const data::Dataset corrupted = datagen::FlipBinaryDescriptors(
          data.dataset, p, 1000 + uint64_t(step) * 17 + uint64_t(rep));
      // SI of each true-label description on the corrupted data.
      for (int k = 0; k < 3; ++k) {
        const pattern::Intention intention(
            {pattern::Condition::Equals(size_t(k), 1)});
        const pattern::Extension ext =
            intention.Evaluate(corrupted.descriptions);
        if (ext.empty()) continue;
        const linalg::Vector mean =
            pattern::SubgroupMean(corrupted.targets, ext);
        si_true[k] += si::ScoreLocation(model.Value(), ext, mean, 1, dl).si /
                      kReps;
      }
      // Baseline: best SI over the pure-noise attributes (both levels).
      double best_noise = -1e300;
      for (size_t attr = 3; attr < 5; ++attr) {
        for (int32_t level = 0; level <= 1; ++level) {
          const pattern::Intention intention(
              {pattern::Condition::Equals(attr, level)});
          const pattern::Extension ext =
              intention.Evaluate(corrupted.descriptions);
          if (ext.empty() || ext.count() == corrupted.num_rows()) continue;
          const linalg::Vector mean =
              pattern::SubgroupMean(corrupted.targets, ext);
          best_noise = std::max(
              best_noise,
              si::ScoreLocation(model.Value(), ext, mean, 1, dl).si);
        }
      }
      si_baseline += best_noise / kReps;
    }
    std::printf("%-10.3f %10.2f %10.2f %10.2f %12.2f\n", p, si_true[0],
                si_true[1], si_true[2], si_baseline);
  }
  std::printf(
      "\npaper shape: monotone decay with distortion; true-description SI\n"
      "stays above the baseline until p ~ 0.22-0.30, then merges with it.\n");
  return 0;
}
