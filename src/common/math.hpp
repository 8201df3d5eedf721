#pragma once

// The fp64 exponential of the tuning path.
//
// common::math::exp is the exp algorithm of ARM's optimized-routines (also
// glibc's exp since 2.28), written out operation by operation: x = k ln2/128
// + r, e^x = 2^(k/128) (1 + T[k % 128]) e^r with a degree-5 polynomial for
// e^r - 1, and every multiply-add that glibc's x86-64 FMA build fuses
// written as std::fma. It is compiled with -ffp-contract=off, so its bits
// depend on this source alone: not on the compiler, the FMA hardware or the
// host's libm. On x86-64 with FMA and glibc >= 2.28 it equals std::exp bit
// for bit (tests/common/test_math.cpp checks a dense sweep of 2^24+ points).
// Its error against expl on that test's sweep is at most 0.507 ULP; the
// certified scan bound allows it 2 (DESIGN.md "Inference paths" step 5).
//
// simd::exp(VecD) (common/simd.hpp) computes the same function four lanes
// at a time from the constants and the table below.

#include <cstdint>

namespace pt::common::math {

/// e^x. Inputs below 2^-54 in magnitude give 1 + x; results below the
/// smallest subnormal give +0, above DBL_MAX +inf; NaN propagates. Does not
/// set errno.
[[nodiscard]] double exp(double x) noexcept;

namespace detail {
/// 128 / ln2, and -ln2 / 128 split into a high and a low part.
inline constexpr double kExpInvLn2N = 0x1.71547652b82fep+7;
inline constexpr double kExpNegLn2hiN = -0x1.62e42fefa0000p-8;
inline constexpr double kExpNegLn2loN = -0x1.cf79abc9e3b3ap-47;
/// 1.5 * 2^52: adding it rounds x * 128 / ln2 to an integer k held in the
/// low mantissa bits.
inline constexpr double kExpShift = 0x1.8p52;
/// e^r - 1 ~= r + C2 r^2 + C3 r^3 + C4 r^4 + C5 r^5 on |r| <= ln2 / 256.
inline constexpr double kExpC2 = 0x1.ffffffffffdbdp-2;
inline constexpr double kExpC3 = 0x1.555555555543cp-3;
inline constexpr double kExpC4 = 0x1.55555cf172b91p-5;
inline constexpr double kExpC5 = 0x1.1111167a4d017p-7;
/// Inputs with 2^-54 <= |x| < 512 take the main path with no special case.
inline constexpr double kExpMainLo = 0x1p-54;
inline constexpr double kExpMainHi = 512.0;
/// 2^(k/128) for k = 0..127 as pairs: entry 2k holds bits(T[k]), entry
/// 2k + 1 bits(H[k]) - (k << 45), with H[k] = RN(2^(k/128)) and T[k] =
/// RN(2^(k/128) / H[k] - 1). Generated by scripts/gen_exp_table.py.
extern const std::uint64_t kExpTable[256];
}  // namespace detail

}  // namespace pt::common::math
