#include "common/math.hpp"

#include <bit>
#include <cmath>
#include <cstddef>
#include <limits>

namespace pt::common::math {

// Compiled with -ffp-contract=off: the fused operations are the written
// std::fma calls and nothing else, as in glibc's x86-64 FMA build of the
// same algorithm (sysdeps/ieee754/dbl-64/e_exp.c).

namespace detail {
const std::uint64_t kExpTable[256] = {
#include "common/exp_table.inc"
};
}  // namespace detail

namespace {

using namespace detail;

[[nodiscard]] std::uint32_t top12(double x) noexcept {
  return static_cast<std::uint32_t>(std::bit_cast<std::uint64_t>(x) >> 52);
}

/// 512 <= |x| < 1024: the result may overflow or be subnormal, so the
/// scale 2^(k/128) is built with its exponent moved into range and scaled
/// back afterwards. ki's low 32 bits are k as an int32.
[[nodiscard]] double specialcase(double tmp, std::uint64_t sbits,
                                 std::uint64_t ki) noexcept {
  if ((ki & 0x80000000U) == 0) {
    // k > 0: the scale's exponent overflowed by at most 460.
    const double s = std::bit_cast<double>(sbits - (1009ULL << 52));
    return 0x1p1009 * std::fma(s, tmp, s);
  }
  // k < 0. s * tmp rounds once and both sums reuse it. A result in the
  // subnormal range is rounded to its final precision through 1 + y before
  // the scaling, so it does not round twice.
  const double s = std::bit_cast<double>(sbits + (1022ULL << 52));
  const double st = s * tmp;
  double y = s + st;
  if (y < 1.0) {
    const double hi = 1.0 + y;
    const double lo = 1.0 - hi + y + (s - y + st);
    y = (hi + lo) - 1.0;
    if (y == 0.0) y = 0.0;  // never -0
  }
  return 0x1p-1022 * y;
}

}  // namespace

double exp(double x) noexcept {
  const std::uint32_t abstop = top12(x) & 0x7ffU;
  const bool main_path = abstop - top12(kExpMainLo) <
                         top12(kExpMainHi) - top12(kExpMainLo);
  if (!main_path) {
    if (abstop < top12(kExpMainLo)) return 1.0 + x;
    if (abstop >= top12(1024.0)) {
      constexpr double kInf = std::numeric_limits<double>::infinity();
      if (x == -kInf) return 0.0;
      if (abstop >= top12(kInf)) return 1.0 + x;  // +inf, NaN
      return std::signbit(x) ? 0.0 : kInf;
    }
  }
  // x = k ln2/128 + r with |r| <= ln2/256, k = round(x 128/ln2).
  const double kd_shifted = std::fma(x, kExpInvLn2N, kExpShift);
  const auto ki = std::bit_cast<std::uint64_t>(kd_shifted);
  const double kd = kd_shifted - kExpShift;
  const double r = std::fma(kd, kExpNegLn2loN, std::fma(kd, kExpNegLn2hiN, x));
  const double r2 = r * r;
  // 2^(k/128) = scale * (1 + tail); e^x ~= scale + scale * tmp.
  const std::size_t idx = 2 * (ki % 128);
  const double tail = std::bit_cast<double>(kExpTable[idx]);
  const std::uint64_t sbits = kExpTable[idx + 1] + (ki << 45);
  double tmp = std::fma(std::fma(r, kExpC3, kExpC2), r2, r + tail);
  tmp = std::fma(r2 * r2, std::fma(r, kExpC5, kExpC4), tmp);
  if (!main_path) return specialcase(tmp, sbits, ki);
  const double scale = std::bit_cast<double>(sbits);
  return std::fma(scale, tmp, scale);
}

}  // namespace pt::common::math
