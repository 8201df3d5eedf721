// Tests for common::math::exp (common/math.hpp) and its vector form
// simd::exp(VecD): bit-equality with the host's std::exp where that is
// glibc's algorithm on x86-64 with FMA, lane-by-lane equality of the vector
// form on every backend, and the error against expl that the certified
// scan bound assumes (ml/batched.cpp, DESIGN.md "Inference paths").

#include "common/math.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <iterator>
#include <limits>
#include <random>
#include <string>
#include <vector>

#include "common/simd.hpp"

#if defined(__GLIBC__)
#include <gnu/libc-version.h>
#endif

namespace math = pt::common::math;
namespace simd = pt::common::simd;

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

[[nodiscard]] std::uint64_t bits(double x) {
  return std::bit_cast<std::uint64_t>(x);
}

/// Calls visit(x) for: n + 1 evenly spaced points of [-746, 710] (every
/// result range: +0, subnormal, normal, overflow), 2^20 + 1 points of each
/// special range that gives a finite result, [-746, -512] and [512, 710],
/// every binade boundary 2^e of both signs with its two neighbours, and
/// the values with their own return paths.
template <typename Visit>
void exp_sweep(std::uint64_t n, Visit visit) {
  for (std::uint64_t i = 0; i <= n; ++i)
    visit(-746.0 + 1456.0 * static_cast<double>(i) / static_cast<double>(n));
  constexpr std::uint64_t kSpecial = 1U << 20;
  for (std::uint64_t i = 0; i <= kSpecial; ++i) {
    const double t = static_cast<double>(i) / kSpecial;
    visit(-746.0 + 234.0 * t);  // [-746, -512]: subnormal results and 0
    visit(512.0 + 198.0 * t);   // [512, 710]: near and past DBL_MAX
  }
  for (int e = -1074; e <= 1023; ++e) {
    for (const double s : {1.0, -1.0}) {
      const double x = s * std::ldexp(1.0, e);
      visit(x);
      visit(std::nextafter(x, 0.0));
      visit(std::nextafter(x, s * kInf));
    }
  }
  for (const double x : {0.0, -0.0, kInf, -kInf,
                         std::numeric_limits<double>::quiet_NaN(),
                         -std::numeric_limits<double>::quiet_NaN(),
                         std::numeric_limits<double>::max(),
                         std::numeric_limits<double>::lowest()})
    visit(x);
}

/// Empty when the host's std::exp is glibc's exp (>= 2.28) through its
/// x86-64 FMA variant, which is the algorithm common::math::exp writes
/// out; otherwise why it is not.
std::string libm_mismatch_reason() {
#if defined(__GLIBC__) && defined(__x86_64__)
  int major = 0;
  int minor = 0;
  if (std::sscanf(gnu_get_libc_version(), "%d.%d", &major, &minor) != 2)
    return "unparsable glibc version";
  if (major < 2 || (major == 2 && minor < 28))
    return "glibc older than 2.28 has another exp algorithm";
  if (!__builtin_cpu_supports("fma") || !__builtin_cpu_supports("avx2"))
    return "glibc picks its exp variant without FMA on this CPU";
  return "";
#else
  return "the host libm is not glibc on x86-64";
#endif
}

TEST(MathExp, EqualsGlibcExpBitForBit) {
  const std::string reason = libm_mismatch_reason();
  if (!reason.empty()) GTEST_SKIP() << reason;
  std::uint64_t checked = 0;
  std::uint64_t mismatches = 0;
  exp_sweep(1U << 24, [&](double x) {
    ++checked;
    const double got = math::exp(x);
    const double want = std::exp(x);
    if (bits(got) != bits(want) && ++mismatches <= 10)
      ADD_FAILURE() << "exp(" << std::hexfloat << x << ") = " << got
                    << ", std::exp gives " << want;
  });
  EXPECT_EQ(mismatches, 0U) << "of " << checked;
  EXPECT_GT(checked, std::uint64_t{1} << 24);
}

TEST(MathExp, SpecialValues) {
  EXPECT_EQ(bits(math::exp(0.0)), bits(1.0));
  EXPECT_EQ(bits(math::exp(-0.0)), bits(1.0));
  EXPECT_EQ(math::exp(kInf), kInf);
  EXPECT_EQ(bits(math::exp(-kInf)), bits(0.0));
  EXPECT_TRUE(
      std::isnan(math::exp(std::numeric_limits<double>::quiet_NaN())));
  EXPECT_EQ(math::exp(709.8), kInf);
  EXPECT_EQ(bits(math::exp(-745.2)), bits(0.0));
  EXPECT_EQ(math::exp(-745.1), 0x1p-1074);  // the smallest subnormal
  EXPECT_EQ(math::exp(1.0), 0x1.5bf0a8b145769p+1);
}

// simd::exp(VecD) equals the scalar function in every lane, on every
// backend, with main-path lanes and the other return paths mixed in one
// vector at every position: a random mix, one other-path lane at each
// position of a group of 8 main-path lanes, and groups of other-path lanes
// alone.
TEST(SimdExpD, EveryLaneEqualsScalarExp) {
  std::vector<double> pool;
  exp_sweep(1U << 16, [&](double x) { pool.push_back(x); });
  std::mt19937_64 rng(11);
  std::uniform_int_distribution<std::size_t> pick(0, pool.size() - 1);
  double in[simd::kWidthD];
  double out[simd::kWidthD];
  std::uint64_t mismatches = 0;
  const auto check = [&] {
    simd::exp(simd::VecD::load(in)).store(out);
    for (std::size_t l = 0; l < simd::kWidthD; ++l) {
      const double want = math::exp(in[l]);
      if (bits(out[l]) != bits(want) && ++mismatches <= 10)
        ADD_FAILURE() << "lane " << l << ": exp(" << std::hexfloat << in[l]
                      << ") = " << out[l] << ", scalar gives " << want;
    }
  };
  for (std::size_t i = 0; i + simd::kWidthD <= pool.size();
       i += simd::kWidthD) {
    std::copy_n(pool.data() + i, simd::kWidthD, in);
    check();
  }
  for (int trial = 0; trial < (1 << 18); ++trial) {
    for (double& x : in) x = pool[pick(rng)];
    check();
  }
  constexpr std::size_t kGroup = 8;
  static_assert(kGroup % simd::kWidthD == 0);
  const double other[] = {0.0,     -0.0,   0x1p-55, -0x1p-60, 512.0,
                          -600.0,  709.8,  -745.2,  1e300,    kInf,
                          -kInf,   std::numeric_limits<double>::quiet_NaN()};
  std::vector<double> groups;
  for (const double o : other) {
    for (std::size_t p = 0; p < kGroup; ++p)
      for (std::size_t l = 0; l < kGroup; ++l)
        groups.push_back(l == p ? o : -20.25 + 5.5 * static_cast<double>(l));
  }
  for (std::size_t i = 0; i + kGroup <= std::size(other); i += kGroup / 2)
    groups.insert(groups.end(), other + i, other + i + kGroup);
  for (std::size_t i = 0; i < groups.size(); i += simd::kWidthD) {
    std::copy_n(groups.data() + i, simd::kWidthD, in);
    check();
  }
  EXPECT_EQ(mismatches, 0U);
}

/// Error of `got` against `want` in ULPs of the double nearest `want`
/// (2^-1074 in the subnormal range).
long double ulp_error(double got, long double want) {
  const double rounded = static_cast<double>(want);
  int exponent = 0;
  (void)std::frexp(rounded, &exponent);
  const long double ulp =
      std::ldexp(1.0L, std::max(exponent - 53, -1074));
  return std::fabs(static_cast<long double>(got) - want) / ulp;
}

// The certified fp64 bound (ml/batched.cpp, fp64_member_bound) allows the
// sigmoid's exp 2 ULP. Measured against expl on this sweep, the maximum is
// 0.507 ULP, at a subnormal result.
TEST(MathExp, WithinTwoUlpOfExpl) {
  if (std::numeric_limits<long double>::digits < 64)
    GTEST_SKIP() << "long double has no more precision than double";
  long double max_ulp = 0.0L;
  double worst = 0.0;
  const auto visit = [&](double x) {
    const long double want = std::exp(static_cast<long double>(x));
    if (!(want < static_cast<long double>(
                     std::numeric_limits<double>::max())))
      return;  // overflow and NaN are checked by SpecialValues
    const long double err = ulp_error(math::exp(x), want);
    if (err > max_ulp) {
      max_ulp = err;
      worst = x;
    }
  };
  exp_sweep(1U << 22, visit);
  for (std::uint64_t i = 0; i <= (1U << 20); ++i)
    visit(-1.0 + 2.0 * static_cast<double>(i) / (1U << 20));
  EXPECT_LE(max_ulp, 2.0L) << "at x = " << std::hexfloat << worst;
  RecordProperty("max_ulp", std::to_string(static_cast<double>(max_ulp)));
  std::printf("math::exp max error %.4Lf ULP at x = %a\n", max_ulp, worst);
}

}  // namespace
