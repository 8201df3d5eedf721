// Tests for the portable SIMD layer (common/simd.hpp): backend self-test,
// bit-parity between vector lanes and the scalar references, ULP accuracy of
// the transcendental approximations against double-precision ground truth,
// and the aligned allocator.

#include "common/simd.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <random>
#include <string>
#include <vector>

namespace simd = pt::common::simd;

namespace {

// ULP distance of an fp32 result from a double-precision reference,
// measured in ULPs of the reference rounded to fp32.
double ulp_error(float got, double want) {
  const float w = static_cast<float>(want);
  if (got == w) return std::fabs(static_cast<double>(got) - want) == 0.0
                           ? 0.0
                           : 0.5;  // want rounded to got exactly
  const float step = std::nextafterf(w, got > w ? 3.4e38f : -3.4e38f);
  const double ulp =
      std::fabs(static_cast<double>(step) - static_cast<double>(w));
  return std::fabs(static_cast<double>(got) - want) / ulp;
}

std::vector<float> random_inputs(std::size_t n, float lo, float hi,
                                 unsigned seed) {
  std::mt19937 rng(seed);
  std::uniform_real_distribution<float> dist(lo, hi);
  std::vector<float> out(n);
  for (auto& v : out) v = dist(rng);
  while (out.size() % simd::kWidth != 0) out.push_back(0.0f);
  return out;
}

/// Deterministic dense sweep, calling visit(x) for: every float in
/// [-20, 20] whose bit pattern is a multiple of an odd stride (so every
/// binade is sampled at the same mantissa resolution and every mantissa
/// bit varies), every binade boundary 2^e with both neighbours, and a
/// coarser sweep of the saturated tails out to the largest float (where
/// only the absolute bounds are claimed).
template <typename Visit>
std::size_t dense_sweep(Visit visit) {
  std::size_t n = 0;
  const auto both = [&](float x) {
    visit(x);
    visit(-x);
    n += 2;
  };
  const std::uint32_t limit = std::bit_cast<std::uint32_t>(20.0f);
  for (std::uint32_t bits = 0; bits <= limit; bits += 131)
    both(std::bit_cast<float>(bits));
  for (int e = -149; e <= 4; ++e) {
    const float p = std::ldexp(1.0f, e);
    both(p);
    both(std::nextafterf(p, 0.0f));
    both(std::nextafterf(p, 1e30f));
  }
  both(20.0f);
  const std::uint32_t top = std::bit_cast<std::uint32_t>(3.4e38f);
  for (std::uint32_t bits = limit; bits <= top; bits += 4099)
    both(std::bit_cast<float>(bits));
  return n;
}

}  // namespace

TEST(Simd, BackendNameIsKnown) {
  const std::string name = simd::backend_name();
  EXPECT_TRUE(name == "avx512" || name == "avx2" || name == "neon" ||
              name == "scalar")
      << name;
}

TEST(Simd, SelfTestPasses) {
  std::string error;
  EXPECT_TRUE(simd::self_test(&error)) << error;
}

TEST(Simd, EnsureVerifiedDoesNotThrow) {
  EXPECT_NO_THROW(simd::ensure_verified());
  EXPECT_NO_THROW(simd::ensure_verified());  // idempotent
}

// The vector transcendentals must equal the scalar references bit for bit on
// randomized inputs — that is the portability contract every backend signs.
TEST(Simd, VectorMatchesScalarReferenceBitwise) {
  const auto inputs = random_inputs(4096, -95.0f, 95.0f, 123);
  float lanes[simd::kWidth];
  for (std::size_t base = 0; base < inputs.size(); base += simd::kWidth) {
    const simd::VecF x = simd::VecF::load(inputs.data() + base);
    simd::exp(x).store(lanes);
    for (std::size_t l = 0; l < simd::kWidth; ++l)
      EXPECT_EQ(std::bit_cast<std::uint32_t>(lanes[l]),
                std::bit_cast<std::uint32_t>(simd::exp_ref(inputs[base + l])))
          << "exp(" << inputs[base + l] << ")";
    simd::sigmoid(x).store(lanes);
    for (std::size_t l = 0; l < simd::kWidth; ++l)
      EXPECT_EQ(
          std::bit_cast<std::uint32_t>(lanes[l]),
          std::bit_cast<std::uint32_t>(simd::sigmoid_ref(inputs[base + l])))
          << "sigmoid(" << inputs[base + l] << ")";
  }
}

// Documented accuracy bounds (simd.hpp header comment) on random inputs.
TEST(Simd, ExpWithinFourUlp) {
  const auto inputs = random_inputs(100000, -87.0f, 88.0f, 7);
  for (const float x : inputs)
    EXPECT_LE(ulp_error(simd::exp_ref(x), std::exp(static_cast<double>(x))),
              4.0)
        << "x = " << x;
}

// The documented accuracy bounds (simd.hpp header comment) on the dense
// sweep. The certified fp32 scan bound (ml/batched.hpp) uses the absolute
// form, kSigmoidAbsError, for every finite input.
TEST(Simd, SigmoidWithinDocumentedBoundsOnDenseSweep) {
  double worst_abs = 0.0;
  double worst_ulp = 0.0;
  const std::size_t n = dense_sweep([&](float x) {
    const double want = 1.0 / (1.0 + std::exp(-static_cast<double>(x)));
    const float got = simd::sigmoid_ref(x);
    worst_abs = std::max(worst_abs, std::fabs(static_cast<double>(got) - want));
    // Past the exp clamp (x < -88) the result stops shrinking: still within
    // the absolute bound, but no longer a few ULP of a vanishing value.
    if (std::fabs(x) <= 20.0f)
      worst_ulp = std::max(worst_ulp, ulp_error(got, want));
  });
  EXPECT_GT(n, 16'000'000u);
  EXPECT_LE(worst_abs, simd::kSigmoidAbsError);
  EXPECT_LE(worst_ulp, 8.0);
}

TEST(Simd, ExpClampsAtDomainEdges) {
  float lanes[simd::kWidth];
  simd::exp(simd::VecF::broadcast(1000.0f)).store(lanes);
  EXPECT_FLOAT_EQ(lanes[0], simd::exp_ref(1000.0f));
  EXPECT_TRUE(std::isfinite(lanes[0]));
  EXPECT_GT(lanes[0], 1e38f);  // saturates near, not at, fp32 max
  simd::exp(simd::VecF::broadcast(-1000.0f)).store(lanes);
  EXPECT_FLOAT_EQ(lanes[0], simd::exp_ref(-1000.0f));
  EXPECT_GT(lanes[0], 0.0f);
  EXPECT_LT(lanes[0], 1e-37f);
}

TEST(Simd, SigmoidSaturatesToZeroAndOne) {
  float lanes[simd::kWidth];
  simd::sigmoid(simd::VecF::broadcast(100.0f)).store(lanes);
  EXPECT_NEAR(lanes[0], 1.0f, 1e-6f);
  simd::sigmoid(simd::VecF::broadcast(-100.0f)).store(lanes);
  EXPECT_NEAR(lanes[0], 0.0f, 1e-6f);
  simd::sigmoid(simd::VecF::zero()).store(lanes);
  EXPECT_FLOAT_EQ(lanes[0], 0.5f);
}

TEST(Simd, FmaddIsFused) {
  // (1 + 2^-12)^2 = 1 + 2^-11 + 2^-24 needs 25 significand bits, so the
  // standalone product rounds (to even) down to 1 + 2^-11; subtracting that
  // value leaves 0 unfused but the exact 2^-24 fused.
  const float a = 1.0f + 0x1p-12f;
  const float b = 1.0f + 0x1p-12f;
  const float c = -(1.0f + 0x1p-11f);
  float lanes[simd::kWidth];
  simd::fmadd(simd::VecF::broadcast(a), simd::VecF::broadcast(b),
              simd::VecF::broadcast(c))
      .store(lanes);
  EXPECT_EQ(std::bit_cast<std::uint32_t>(lanes[0]),
            std::bit_cast<std::uint32_t>(std::fma(a, b, c)));
  EXPECT_EQ(lanes[0], 0x1p-24f);
  // Force a genuinely unfused product (the compiler would otherwise contract
  // a * b + c into an FMA under -mfma): it rounds and cancels to exactly 0.
  volatile float product = a * b;
  EXPECT_EQ(product + c, 0.0f);
  EXPECT_NE(lanes[0], product + c);
}

TEST(Simd, HsumMatchesSerialSum) {
  const auto inputs = random_inputs(1024, -100.0f, 100.0f, 17);
  for (std::size_t base = 0; base < inputs.size(); base += simd::kWidth) {
    double want = 0.0;
    float mag = 0.0f;
    for (std::size_t l = 0; l < simd::kWidth; ++l) {
      want += static_cast<double>(inputs[base + l]);
      mag += std::fabs(inputs[base + l]);
    }
    const float got = simd::hsum(simd::VecF::load(inputs.data() + base));
    EXPECT_NEAR(got, static_cast<float>(want), 8.0f * mag * 0x1p-24f + 1e-30f);
  }
}

TEST(Simd, Pow2iCoversNormalExponentRange) {
  float lanes[simd::kWidth];
  for (int n = -126; n <= 127; ++n) {
    simd::pow2i(simd::VecF::broadcast(static_cast<float>(n))).store(lanes);
    EXPECT_EQ(lanes[0], std::ldexp(1.0f, n)) << "n = " << n;
  }
}

TEST(Simd, AlignedVectorIs64ByteAligned) {
  simd::AlignedVectorF v(1000, 1.0f);
  EXPECT_EQ(reinterpret_cast<std::uintptr_t>(v.data()) % 64, 0u);
}
