#include "common/simd.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <limits>
#include <mutex>
#include <stdexcept>

namespace pt::common::simd {

namespace {

// Scalar mirror of pow2i: build 2^n from the exponent bits directly.
float pow2i_ref(float n) noexcept {
  const auto e = static_cast<std::int32_t>(n) + 127;
  return std::bit_cast<float>(e << 23);
}

}  // namespace

float exp_ref(float x) noexcept {
  using namespace detail;
  x = x < kExpHi ? x : kExpHi;
  x = x > kExpLo ? x : kExpLo;
  float fx = std::floor(std::fma(x, kLog2e, 0.5f));
  x = std::fma(-fx, kExpC1, x);
  x = std::fma(-fx, kExpC2, x);
  float y = kExpP0;
  y = std::fma(y, x, kExpP1);
  y = std::fma(y, x, kExpP2);
  y = std::fma(y, x, kExpP3);
  y = std::fma(y, x, kExpP4);
  y = std::fma(y, x, kExpP5);
  y = std::fma(y, x * x, x);
  y += 1.0f;
  return y * pow2i_ref(fx);
}

float sigmoid_ref(float x) noexcept { return 1.0f / (1.0f + exp_ref(-x)); }

const char* backend_name() noexcept {
#if defined(PT_SIMD_AVX2)
  return "avx2";
#elif defined(PT_SIMD_NEON)
  return "neon";
#else
  return "scalar";
#endif
}

namespace {

bool fail(std::string* error, const char* what, double input, double got,
          double want) {
  if (error) {
    char buf[160];
    std::snprintf(buf, sizeof(buf),
                  "simd self_test: %s(%a) = %a on backend %s, scalar "
                  "reference gives %a",
                  what, input, got, backend_name(), want);
    *error = buf;
  }
  return false;
}

/// Inputs of the exp(VecD) check: a sweep of [-746, 710] (both special
/// ranges, subnormal results, overflow), the main range's bounds +-1 ulp,
/// and the values with their own return paths, so groups of 4 mix
/// main-path lanes with the others.
std::vector<double> exp_d_inputs() {
  std::vector<double> xs;
  for (int i = 0; i <= 4096; ++i) xs.push_back(-746.0 + 1456.0 * i / 4096);
  for (const double b : {math::detail::kExpMainLo, math::detail::kExpMainHi,
                         1024.0, 0x1p-1074, 0x1p-1022}) {
    for (const double v : {b, -b}) {
      xs.push_back(v);
      xs.push_back(std::nextafter(v, 0.0));
      xs.push_back(std::nextafter(v, 2 * v));
    }
  }
  constexpr double kInf = std::numeric_limits<double>::infinity();
  xs.insert(xs.end(), {0.0, -0.0, kInf, -kInf,
                       std::numeric_limits<double>::quiet_NaN(), 1e300,
                       -1e300, 709.782712893384, -745.1332191019412});
  while (xs.size() % kWidthD != 0) xs.push_back(1.0);
  return xs;
}

}  // namespace

bool self_test(std::string* error) {
  // Deterministic sweep: dense near zero, log-spaced toward the exp clamp
  // range, both signs, plus the clamp boundaries themselves and values
  // beyond them.
  std::vector<float> inputs;
  for (int i = -400; i <= 400; ++i)
    inputs.push_back(static_cast<float>(i) * 0.03125f);
  for (int i = 0; i < 64; ++i) {
    const float m = 12.5f + static_cast<float>(i) * 1.25f;
    inputs.push_back(m);
    inputs.push_back(-m);
  }
  inputs.insert(inputs.end(),
                {detail::kExpHi, detail::kExpLo, 100.0f, -100.0f, 1e4f, -1e4f,
                 0.0f, -0.0f});
  while (inputs.size() % kWidth != 0) inputs.push_back(0.0f);

  float lanes[kWidth];
  for (std::size_t base = 0; base < inputs.size(); base += kWidth) {
    const float* in = inputs.data() + base;
    const VecF x = VecF::load(in);

    exp(x).store(lanes);
    for (std::size_t l = 0; l < kWidth; ++l) {
      const float want = exp_ref(in[l]);
      if (std::bit_cast<std::uint32_t>(lanes[l]) !=
          std::bit_cast<std::uint32_t>(want))
        return fail(error, "exp", in[l], lanes[l], want);
    }
    sigmoid(x).store(lanes);
    for (std::size_t l = 0; l < kWidth; ++l) {
      const float want = sigmoid_ref(in[l]);
      if (std::bit_cast<std::uint32_t>(lanes[l]) !=
          std::bit_cast<std::uint32_t>(want))
        return fail(error, "sigmoid", in[l], lanes[l], want);
    }

    // fmadd must be a true fused multiply-add (single rounding): pick
    // operands whose product is inexact in fp32 so an unfused mul+add
    // differs.
    const VecF a = VecF::broadcast(1.0f + 0x1p-12f);
    fmadd(x, a, VecF::broadcast(3.0f)).store(lanes);
    for (std::size_t l = 0; l < kWidth; ++l) {
      const float want = std::fma(in[l], 1.0f + 0x1p-12f, 3.0f);
      if (std::bit_cast<std::uint32_t>(lanes[l]) !=
          std::bit_cast<std::uint32_t>(want))
        return fail(error, "fmadd", in[l], lanes[l], want);
    }
    fnmadd(x, a, VecF::broadcast(3.0f)).store(lanes);
    for (std::size_t l = 0; l < kWidth; ++l) {
      const float want = std::fma(-in[l], 1.0f + 0x1p-12f, 3.0f);
      if (std::bit_cast<std::uint32_t>(lanes[l]) !=
          std::bit_cast<std::uint32_t>(want))
        return fail(error, "fnmadd", in[l], lanes[l], want);
    }

    floor(x).store(lanes);
    for (std::size_t l = 0; l < kWidth; ++l) {
      const float want = std::floor(in[l]);
      if (std::bit_cast<std::uint32_t>(lanes[l]) !=
          std::bit_cast<std::uint32_t>(want))
        return fail(error, "floor", in[l], lanes[l], want);
    }

    // hsum: compare against a double-precision lane sum. A pairwise fp32
    // reduction of kWidth lanes stays within a few ULP of it.
    const float got = hsum(x);
    double want_d = 0.0;
    float mag = 0.0f;
    for (std::size_t l = 0; l < kWidth; ++l) {
      want_d += static_cast<double>(in[l]);
      mag += std::fabs(in[l]);
    }
    const float tol = 8.0f * mag * 0x1p-24f + 1e-30f;
    if (std::fabs(got - static_cast<float>(want_d)) > tol)
      return fail(error, "hsum", in[0], got, static_cast<float>(want_d));
  }

  // VecD: element-wise add/sub/mul/div must round exactly like the scalar
  // operators, and fmadd exactly like std::fma.
  {
    double da[kWidthD];
    double db[kWidthD];
    double lanes_d[kWidthD];
    const auto check_d = [&](const char* what, auto&& want_of) {
      for (std::size_t l = 0; l < kWidthD; ++l) {
        const double want = want_of(l);
        if (std::bit_cast<std::uint64_t>(lanes_d[l]) !=
            std::bit_cast<std::uint64_t>(want))
          return fail(error, what, da[l], lanes_d[l], want);
      }
      return true;
    };
    std::uint64_t state = 0x9e3779b97f4a7c15ULL;
    const auto next = [&state] {
      state = state * 6364136223846793005ULL + 1442695040888963407ULL;
      return static_cast<double>(static_cast<std::int64_t>(state >> 11)) *
             0x1p-40;
    };
    for (int trial = 0; trial < 64; ++trial) {
      for (std::size_t l = 0; l < kWidthD; ++l) {
        da[l] = next();
        db[l] = next();
      }
      const VecD xa = VecD::load(da);
      const VecD xb = VecD::load(db);
      add(xa, xb).store(lanes_d);
      if (!check_d("vecd_add", [&](std::size_t l) { return da[l] + db[l]; }))
        return false;
      sub(xa, xb).store(lanes_d);
      if (!check_d("vecd_sub", [&](std::size_t l) { return da[l] - db[l]; }))
        return false;
      mul(xa, xb).store(lanes_d);
      if (!check_d("vecd_mul", [&](std::size_t l) { return da[l] * db[l]; }))
        return false;
      div(xa, xb).store(lanes_d);
      if (!check_d("vecd_div", [&](std::size_t l) { return da[l] / db[l]; }))
        return false;
      // Operands whose product is inexact, so an unfused mul+add differs.
      fmadd(xa, xb, xa).store(lanes_d);
      if (!check_d("vecd_fmadd", [&](std::size_t l) {
            return std::fma(da[l], db[l], da[l]);
          }))
        return false;
      neg(xa).store(lanes_d);
      if (!check_d("vecd_neg", [&](std::size_t l) { return -da[l]; }))
        return false;
    }
    const std::vector<double> xs = exp_d_inputs();
    for (std::size_t base = 0; base < xs.size(); base += kWidthD) {
      std::copy_n(xs.data() + base, kWidthD, da);
      exp(VecD::load(da)).store(lanes_d);
      if (!check_d("vecd_exp", [&](std::size_t l) { return math::exp(da[l]); }))
        return false;
    }
  }

  // pow2i over its full documented domain.
  for (int n = -126; n <= 127; n += static_cast<int>(kWidth)) {
    for (std::size_t l = 0; l < kWidth; ++l)
      lanes[l] = static_cast<float>(
          std::min(n + static_cast<int>(l), 127));
    const VecF x = VecF::load(lanes);
    pow2i(x).store(lanes);
    for (std::size_t l = 0; l < kWidth; ++l) {
      const float in_l =
          static_cast<float>(std::min(n + static_cast<int>(l), 127));
      const float want = pow2i_ref(in_l);
      if (std::bit_cast<std::uint32_t>(lanes[l]) !=
          std::bit_cast<std::uint32_t>(want))
        return fail(error, "pow2i", in_l, lanes[l], want);
    }
  }

  return true;
}

void ensure_verified() {
  static std::once_flag flag;
  static std::string failure;
  std::call_once(flag, [] {
    std::string err;
    if (!self_test(&err)) failure = err;
  });
  if (!failure.empty()) throw std::runtime_error(failure);
}

}  // namespace pt::common::simd
