// Differential tests of the src/kernels ISA tables: on AVX2 hosts, every
// AVX2 kernel must return results BIT-identical to its scalar counterpart —
// not approximately equal — across sizes 0–257 (every tail shape around
// block boundaries), mask densities from empty to full, and adversarial
// values (signed zeros, denormals, huge/tiny magnitudes). The integer
// kernels are additionally checked against naive references, and the
// floating-point lane contract is pinned down by requiring
// MaskedMomentsAnd's sum to equal MaskedSumAnd bitwise.
//
// Tests auto-skip the AVX2 legs on hosts without AVX2, so the suite passes
// (scalar self-consistency only) anywhere. The whole file is ASan/UBSan
// clean: inputs are sized exactly, so out-of-bounds kernel reads would trip
// the sanitizers.

#include <bit>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <iterator>
#include <limits>
#include <vector>

#include <gtest/gtest.h>

#include "kernels/kernels.hpp"
#include "random/rng.hpp"

namespace sisd::kernels {
namespace {

uint64_t Bits(double v) {
  uint64_t u;
  std::memcpy(&u, &v, sizeof(u));
  return u;
}

/// One differential input: two tail-masked bitsets over `n` rows plus a
/// value array of exactly `n` doubles (exact sizing makes any kernel read
/// past the universe an ASan-visible bug).
struct Input {
  explicit Input(size_t universe) : n(universe), values(universe) {
    const size_t num_blocks = (universe + 63) / 64;
    a.assign(num_blocks, 0);
    b.assign(num_blocks, 0);
  }

  void SetBitA(size_t i) { a[i >> 6] |= uint64_t{1} << (i & 63); }
  void SetBitB(size_t i) { b[i >> 6] |= uint64_t{1} << (i & 63); }

  static Input Random(size_t n, double density_a, double density_b,
                      uint64_t seed) {
    Input in(n);
    random::Rng rng(seed);
    for (size_t i = 0; i < n; ++i) {
      if (rng.Bernoulli(density_a)) in.SetBitA(i);
      if (rng.Bernoulli(density_b)) in.SetBitB(i);
      in.values[i] = rng.Gaussian();
    }
    return in;
  }

  size_t n;
  std::vector<uint64_t> a, b;
  std::vector<double> values;
};

/// Compares every kernel of the AVX2 table against the scalar table on one
/// input; all floating-point comparisons are bitwise.
void ExpectTablesAgree(const Input& in) {
  const KernelTable& scalar = ScalarKernels();
  const KernelTable* avx2 = Avx2KernelsOrNull();
  ASSERT_NE(avx2, nullptr);
  const size_t num_blocks = in.a.size();

  EXPECT_EQ(scalar.count_and2(in.a.data(), in.b.data(), num_blocks),
            avx2->count_and2(in.a.data(), in.b.data(), num_blocks));
  EXPECT_EQ(scalar.count_and3(in.a.data(), in.b.data(), in.a.data(),
                              num_blocks),
            avx2->count_and3(in.a.data(), in.b.data(), in.a.data(),
                             num_blocks));

  std::vector<uint64_t> out_scalar(num_blocks, ~uint64_t{0});
  std::vector<uint64_t> out_avx2(num_blocks, 0);
  EXPECT_EQ(
      scalar.and_into(in.a.data(), in.b.data(), out_scalar.data(), num_blocks),
      avx2->and_into(in.a.data(), in.b.data(), out_avx2.data(), num_blocks));
  EXPECT_EQ(out_scalar, out_avx2);
  EXPECT_EQ(
      scalar.or_into(in.a.data(), in.b.data(), out_scalar.data(), num_blocks),
      avx2->or_into(in.a.data(), in.b.data(), out_avx2.data(), num_blocks));
  EXPECT_EQ(out_scalar, out_avx2);

  // A materialized mask is summed as `a & a`.
  const double sum_scalar = scalar.masked_sum_and(
      in.values.data(), in.a.data(), in.a.data(), num_blocks);
  const double sum_avx2 = avx2->masked_sum_and(
      in.values.data(), in.a.data(), in.a.data(), num_blocks);
  EXPECT_EQ(Bits(sum_scalar), Bits(sum_avx2))
      << "masked_sum_and(a, a) diverged: " << sum_scalar << " vs "
      << sum_avx2;

  const double sum_and_scalar = scalar.masked_sum_and(
      in.values.data(), in.a.data(), in.b.data(), num_blocks);
  const double sum_and_avx2 = avx2->masked_sum_and(
      in.values.data(), in.a.data(), in.b.data(), num_blocks);
  EXPECT_EQ(Bits(sum_and_scalar), Bits(sum_and_avx2))
      << "masked_sum_and diverged: " << sum_and_scalar << " vs "
      << sum_and_avx2;

  const MaskedMoments moments_scalar = scalar.masked_moments_and(
      in.values.data(), in.a.data(), in.b.data(), num_blocks);
  const MaskedMoments moments_avx2 = avx2->masked_moments_and(
      in.values.data(), in.a.data(), in.b.data(), num_blocks);
  EXPECT_EQ(moments_scalar.count, moments_avx2.count);
  EXPECT_EQ(Bits(moments_scalar.sum), Bits(moments_avx2.sum));
  EXPECT_EQ(Bits(moments_scalar.sum_squares), Bits(moments_avx2.sum_squares));

  // The lane contract makes the fused moments pass produce the exact same
  // sum as the plain masked sum — the optimal search's fused dy=1 pass and
  // the beam's sum-only pass must score a candidate identically.
  EXPECT_EQ(Bits(moments_scalar.sum), Bits(sum_and_scalar));
  EXPECT_EQ(Bits(moments_avx2.sum), Bits(sum_and_avx2));
}

/// Naive references for the integer kernels.
size_t NaiveCountAnd2(const Input& in) {
  size_t count = 0;
  for (size_t i = 0; i < in.a.size(); ++i) {
    count += size_t(std::popcount(in.a[i] & in.b[i]));
  }
  return count;
}

double NaiveMaskedSumAnd(const Input& in) {
  double sum = 0.0;
  for (size_t i = 0; i < in.n; ++i) {
    const uint64_t bit = uint64_t{1} << (i & 63);
    if ((in.a[i >> 6] & in.b[i >> 6] & bit) != 0) sum += in.values[i];
  }
  return sum;
}

bool HaveAvx2() { return CpuSupportsAvx2(); }

TEST(KernelParityTest, ScalarCountsMatchNaiveReferences) {
  for (size_t n = 0; n <= 257; ++n) {
    const Input in = Input::Random(n, 0.4, 0.6, 1000 + n);
    const KernelTable& scalar = ScalarKernels();
    EXPECT_EQ(scalar.count_and2(in.a.data(), in.b.data(), in.a.size()),
              NaiveCountAnd2(in))
        << "n=" << n;
    const MaskedMoments moments = scalar.masked_moments_and(
        in.values.data(), in.a.data(), in.b.data(), in.a.size());
    EXPECT_EQ(moments.count, NaiveCountAnd2(in)) << "n=" << n;
    // The lane-contract sum is a reassociation of the naive left-to-right
    // sum; equality is approximate here (bit-exactness is only promised
    // *between implementations of the same contract*).
    EXPECT_NEAR(moments.sum, NaiveMaskedSumAnd(in),
                1e-9 * (1.0 + std::abs(moments.sum)))
        << "n=" << n;
  }
}

TEST(KernelParityTest, TablesAgreeOnEverySizeThroughTwoBlocksAndBeyond) {
  if (!HaveAvx2()) GTEST_SKIP() << "host has no AVX2";
  for (size_t n = 0; n <= 257; ++n) {
    SCOPED_TRACE("n=" + std::to_string(n));
    ExpectTablesAgree(Input::Random(n, 0.5, 0.5, n));
  }
}

TEST(KernelParityTest, TablesAgreeAcrossMaskDensities) {
  if (!HaveAvx2()) GTEST_SKIP() << "host has no AVX2";
  for (const double density : {0.0, 0.02, 0.25, 0.75, 0.98, 1.0}) {
    for (const size_t n : {64u, 129u, 2000u, 100003u}) {
      SCOPED_TRACE("density=" + std::to_string(density) +
                   " n=" + std::to_string(n));
      ExpectTablesAgree(Input::Random(n, density, 0.7, size_t(density * 97)));
    }
  }
}

TEST(KernelParityTest, TablesAgreeOnEmptyAndFullMasks) {
  if (!HaveAvx2()) GTEST_SKIP() << "host has no AVX2";
  for (const size_t n : {0u, 1u, 63u, 64u, 65u, 191u, 256u, 1000u}) {
    SCOPED_TRACE("n=" + std::to_string(n));
    Input empty = Input::Random(n, 0.0, 0.0, n);
    ExpectTablesAgree(empty);

    Input full(n);
    random::Rng rng(33 + n);
    for (size_t i = 0; i < n; ++i) {
      full.SetBitA(i);
      full.SetBitB(i);
      full.values[i] = rng.Gaussian();
    }
    ExpectTablesAgree(full);
  }
}

TEST(KernelParityTest, TablesAgreeOnSignedZerosAndDenormals) {
  if (!HaveAvx2()) GTEST_SKIP() << "host has no AVX2";
  constexpr double kDenorm = std::numeric_limits<double>::denorm_min();
  const double specials[] = {+0.0,          -0.0,        kDenorm,
                             -kDenorm,      513 * kDenorm, -97 * kDenorm,
                             1e308,         -1e308,      1e-308,
                             -1e-308,       1.0,         -1.0};
  for (const size_t n : {7u, 64u, 130u, 257u}) {
    for (uint64_t seed = 0; seed < 8; ++seed) {
      SCOPED_TRACE("n=" + std::to_string(n) +
                   " seed=" + std::to_string(seed));
      Input in = Input::Random(n, 0.6, 0.6, 700 + seed);
      random::Rng rng(7000 + seed);
      for (size_t i = 0; i < n; ++i) {
        in.values[i] = specials[size_t(rng.UniformInt(
            0, int64_t(std::size(specials)) - 1))];
      }
      ExpectTablesAgree(in);
    }
  }
}

TEST(KernelParityTest, DispatchedWrappersFollowTheActiveTable) {
  const Input in = Input::Random(200, 0.5, 0.5, 99);
  const Isa original = ActiveIsa();
  SetActiveIsaForTesting(Isa::kScalar);
  EXPECT_EQ(Active().name, std::string("scalar"));
  const double scalar_sum = MaskedSumAnd(in.values.data(), in.a.data(),
                                         in.b.data(), in.a.size());
  EXPECT_EQ(Bits(scalar_sum),
            Bits(ScalarKernels().masked_sum_and(in.values.data(), in.a.data(),
                                                in.b.data(), in.a.size())));
  if (HaveAvx2()) {
    SetActiveIsaForTesting(Isa::kAvx2);
    EXPECT_EQ(Active().name, std::string("avx2"));
    EXPECT_EQ(CountAnd2(in.a.data(), in.b.data(), in.a.size()),
              Avx2KernelsOrNull()->count_and2(in.a.data(), in.b.data(),
                                              in.a.size()));
  }
  SetActiveIsaForTesting(original);
}

}  // namespace
}  // namespace sisd::kernels
