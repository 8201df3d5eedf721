#pragma once

// Portable SIMD layer for the batched fp32 inference engine (ml/batched.hpp)
// and the member's fp64 pass (ml/member.cpp).
//
// One backend is selected at configure time (CMake option PT_SIMD, default
// "auto"): AVX-512F or AVX2+FMA on x86, NEON on arm64, or a portable scalar
// fallback. `VecF` is a fixed-width vector of kWidth floats with the handful
// of operations batched inference needs: arithmetic, fused multiply-add,
// horizontal reduction, and vectorized exp/sigmoid approximations; it is the
// 8-float AVX2 type on both x86 backends. `VecD` is kWidthD doubles: 8 on
// AVX-512F, 4 on every other backend (see below).
//
// Accuracy contract (see DESIGN.md "Inference paths"):
//  - exp(VecF):     same Cephes-style polynomial on every backend; relative
//                   error against the exact e^x at most 4 ULP of the fp32
//                   result over the clamped domain [-87.34, 88.38] (inputs
//                   outside are clamped, matching the saturation behaviour
//                   batched activations need).
//  - sigmoid(VecF): 1/(1+exp(-x)); at most 8 ULP relative error.
//  - exp(VecD):     common::math::exp on every lane, bit for bit, on every
//                   backend: at most 0.507 ULP from the exact e^x on the
//                   measured sweep (DESIGN.md step 5), and on x86-64 glibc
//                   >= 2.28 with FMA the bits of std::exp.
// The absolute form of the sigmoid bound (kSigmoidAbsError) is what the
// certified fp32 scan bound of ml/batched.hpp builds on;
// tests/common/test_simd.cpp checks it on a dense sweep of every binade.
//
// Every backend is *runtime-verified* against the scalar reference
// implementations (exp_ref/sigmoid_ref, which spell out the same
// algorithm with std::fma, and common::math::exp): self_test() requires
// bit-equality lane by lane, and ensure_verified() runs it once per process
// before the first batched scan, so a miscompiled or mismatched backend
// fails loudly instead of skewing predictions.

#include <cstddef>
#include <cstdint>
#include <cmath>
#include <bit>
#include <new>
#include <string>
#include <vector>

#include "common/math.hpp"

#if !defined(PT_SIMD_DISABLE) && defined(__AVX2__) && defined(__FMA__)
#define PT_SIMD_AVX2 1
#include <immintrin.h>
#if defined(__AVX512F__)
#define PT_SIMD_AVX512 1
#endif
#elif !defined(PT_SIMD_DISABLE) && \
    (defined(__ARM_NEON) || defined(__ARM_NEON__) || defined(__aarch64__))
#define PT_SIMD_NEON 1
#include <arm_neon.h>
#else
#define PT_SIMD_SCALAR 1
#endif

namespace pt::common::simd {

#if defined(PT_SIMD_AVX2)
inline constexpr std::size_t kWidth = 8;
#elif defined(PT_SIMD_NEON)
inline constexpr std::size_t kWidth = 4;
#else
inline constexpr std::size_t kWidth = 4;
#endif

// ---------------------------------------------------------------------------
// VecF: kWidth packed floats.
// ---------------------------------------------------------------------------

#if defined(PT_SIMD_AVX2)

struct VecF {
  __m256 v;

  [[nodiscard]] static VecF load(const float* p) noexcept {
    return {_mm256_loadu_ps(p)};
  }
  [[nodiscard]] static VecF broadcast(float x) noexcept {
    return {_mm256_set1_ps(x)};
  }
  [[nodiscard]] static VecF zero() noexcept { return {_mm256_setzero_ps()}; }
  void store(float* p) const noexcept { _mm256_storeu_ps(p, v); }
};

[[nodiscard]] inline VecF add(VecF a, VecF b) noexcept {
  return {_mm256_add_ps(a.v, b.v)};
}
[[nodiscard]] inline VecF sub(VecF a, VecF b) noexcept {
  return {_mm256_sub_ps(a.v, b.v)};
}
[[nodiscard]] inline VecF mul(VecF a, VecF b) noexcept {
  return {_mm256_mul_ps(a.v, b.v)};
}
[[nodiscard]] inline VecF div(VecF a, VecF b) noexcept {
  return {_mm256_div_ps(a.v, b.v)};
}
[[nodiscard]] inline VecF min(VecF a, VecF b) noexcept {
  return {_mm256_min_ps(a.v, b.v)};
}
[[nodiscard]] inline VecF max(VecF a, VecF b) noexcept {
  return {_mm256_max_ps(a.v, b.v)};
}
/// a*b + c, single rounding.
[[nodiscard]] inline VecF fmadd(VecF a, VecF b, VecF c) noexcept {
  return {_mm256_fmadd_ps(a.v, b.v, c.v)};
}
/// c - a*b, single rounding.
[[nodiscard]] inline VecF fnmadd(VecF a, VecF b, VecF c) noexcept {
  return {_mm256_fnmadd_ps(a.v, b.v, c.v)};
}
[[nodiscard]] inline VecF floor(VecF a) noexcept {
  return {_mm256_floor_ps(a.v)};
}
/// 2^n for integral-valued lanes of n in [-126, 127].
[[nodiscard]] inline VecF pow2i(VecF n) noexcept {
  const __m256i i = _mm256_cvttps_epi32(n.v);
  const __m256i e =
      _mm256_slli_epi32(_mm256_add_epi32(i, _mm256_set1_epi32(127)), 23);
  return {_mm256_castsi256_ps(e)};
}
/// Pairwise horizontal sum of the lanes.
[[nodiscard]] inline float hsum(VecF a) noexcept {
  const __m128 lo = _mm256_castps256_ps128(a.v);
  const __m128 hi = _mm256_extractf128_ps(a.v, 1);
  __m128 s = _mm_add_ps(lo, hi);
  s = _mm_add_ps(s, _mm_movehl_ps(s, s));
  s = _mm_add_ss(s, _mm_shuffle_ps(s, s, 0x55));
  return _mm_cvtss_f32(s);
}

#elif defined(PT_SIMD_NEON)

struct VecF {
  float32x4_t v;

  [[nodiscard]] static VecF load(const float* p) noexcept {
    return {vld1q_f32(p)};
  }
  [[nodiscard]] static VecF broadcast(float x) noexcept {
    return {vdupq_n_f32(x)};
  }
  [[nodiscard]] static VecF zero() noexcept { return {vdupq_n_f32(0.0f)}; }
  void store(float* p) const noexcept { vst1q_f32(p, v); }
};

[[nodiscard]] inline VecF add(VecF a, VecF b) noexcept {
  return {vaddq_f32(a.v, b.v)};
}
[[nodiscard]] inline VecF sub(VecF a, VecF b) noexcept {
  return {vsubq_f32(a.v, b.v)};
}
[[nodiscard]] inline VecF mul(VecF a, VecF b) noexcept {
  return {vmulq_f32(a.v, b.v)};
}
[[nodiscard]] inline VecF div(VecF a, VecF b) noexcept {
  return {vdivq_f32(a.v, b.v)};
}
[[nodiscard]] inline VecF min(VecF a, VecF b) noexcept {
  return {vminq_f32(a.v, b.v)};
}
[[nodiscard]] inline VecF max(VecF a, VecF b) noexcept {
  return {vmaxq_f32(a.v, b.v)};
}
/// a*b + c, single rounding.
[[nodiscard]] inline VecF fmadd(VecF a, VecF b, VecF c) noexcept {
  return {vfmaq_f32(c.v, a.v, b.v)};
}
/// c - a*b, single rounding.
[[nodiscard]] inline VecF fnmadd(VecF a, VecF b, VecF c) noexcept {
  return {vfmsq_f32(c.v, a.v, b.v)};
}
[[nodiscard]] inline VecF floor(VecF a) noexcept { return {vrndmq_f32(a.v)}; }
/// 2^n for integral-valued lanes of n in [-126, 127].
[[nodiscard]] inline VecF pow2i(VecF n) noexcept {
  const int32x4_t i = vcvtq_s32_f32(n.v);
  const int32x4_t e = vshlq_n_s32(vaddq_s32(i, vdupq_n_s32(127)), 23);
  return {vreinterpretq_f32_s32(e)};
}
/// Pairwise horizontal sum of the lanes.
[[nodiscard]] inline float hsum(VecF a) noexcept { return vaddvq_f32(a.v); }

#else  // PT_SIMD_SCALAR

struct VecF {
  float v[kWidth];

  [[nodiscard]] static VecF load(const float* p) noexcept {
    VecF r;
    for (std::size_t i = 0; i < kWidth; ++i) r.v[i] = p[i];
    return r;
  }
  [[nodiscard]] static VecF broadcast(float x) noexcept {
    VecF r;
    for (std::size_t i = 0; i < kWidth; ++i) r.v[i] = x;
    return r;
  }
  [[nodiscard]] static VecF zero() noexcept { return broadcast(0.0f); }
  void store(float* p) const noexcept {
    for (std::size_t i = 0; i < kWidth; ++i) p[i] = v[i];
  }
};

[[nodiscard]] inline VecF add(VecF a, VecF b) noexcept {
  for (std::size_t i = 0; i < kWidth; ++i) a.v[i] += b.v[i];
  return a;
}
[[nodiscard]] inline VecF sub(VecF a, VecF b) noexcept {
  for (std::size_t i = 0; i < kWidth; ++i) a.v[i] -= b.v[i];
  return a;
}
[[nodiscard]] inline VecF mul(VecF a, VecF b) noexcept {
  for (std::size_t i = 0; i < kWidth; ++i) a.v[i] *= b.v[i];
  return a;
}
[[nodiscard]] inline VecF div(VecF a, VecF b) noexcept {
  for (std::size_t i = 0; i < kWidth; ++i) a.v[i] /= b.v[i];
  return a;
}
[[nodiscard]] inline VecF min(VecF a, VecF b) noexcept {
  for (std::size_t i = 0; i < kWidth; ++i)
    a.v[i] = a.v[i] < b.v[i] ? a.v[i] : b.v[i];
  return a;
}
[[nodiscard]] inline VecF max(VecF a, VecF b) noexcept {
  for (std::size_t i = 0; i < kWidth; ++i)
    a.v[i] = a.v[i] > b.v[i] ? a.v[i] : b.v[i];
  return a;
}
/// a*b + c, single rounding (std::fma matches hardware FMA semantics).
[[nodiscard]] inline VecF fmadd(VecF a, VecF b, VecF c) noexcept {
  for (std::size_t i = 0; i < kWidth; ++i)
    c.v[i] = std::fma(a.v[i], b.v[i], c.v[i]);
  return c;
}
/// c - a*b, single rounding.
[[nodiscard]] inline VecF fnmadd(VecF a, VecF b, VecF c) noexcept {
  for (std::size_t i = 0; i < kWidth; ++i)
    c.v[i] = std::fma(-a.v[i], b.v[i], c.v[i]);
  return c;
}
[[nodiscard]] inline VecF floor(VecF a) noexcept {
  for (std::size_t i = 0; i < kWidth; ++i) a.v[i] = std::floor(a.v[i]);
  return a;
}
/// 2^n for integral-valued lanes of n in [-126, 127].
[[nodiscard]] inline VecF pow2i(VecF n) noexcept {
  for (std::size_t i = 0; i < kWidth; ++i) {
    const auto e = static_cast<std::int32_t>(n.v[i]) + 127;
    n.v[i] = std::bit_cast<float>(e << 23);
  }
  return n;
}
/// Pairwise horizontal sum of the lanes.
[[nodiscard]] inline float hsum(VecF a) noexcept {
  return (a.v[0] + a.v[2]) + (a.v[1] + a.v[3]);
}

#endif

// ---------------------------------------------------------------------------
// VecD: kWidthD packed doubles, 8 on AVX-512F (one 512-bit register) and 4
// on every other backend (AVX2 one 256-bit register, NEON a pair of 128-bit
// ones, the scalar fallback an array). Every operation is element-wise and
// rounds each lane exactly like its scalar counterpart, so a kernel whose
// per-element operations do not depend on the width (the member's fp64
// pass, ml/member.cpp) gives the same bits on every backend. Deliberately
// minimal: load/store/broadcast, add/sub/mul/div (each one IEEE rounding,
// like the scalar operators), neg, fmadd (one rounding, like std::fma), and
// exp (below).
// ---------------------------------------------------------------------------

#if defined(PT_SIMD_AVX512)
inline constexpr std::size_t kWidthD = 8;
#else
inline constexpr std::size_t kWidthD = 4;
#endif

#if defined(PT_SIMD_AVX512)

struct VecD {
  __m512d v;

  [[nodiscard]] static VecD load(const double* p) noexcept {
    return {_mm512_loadu_pd(p)};
  }
  [[nodiscard]] static VecD broadcast(double x) noexcept {
    return {_mm512_set1_pd(x)};
  }
  [[nodiscard]] static VecD zero() noexcept { return {_mm512_setzero_pd()}; }
  void store(double* p) const noexcept { _mm512_storeu_pd(p, v); }
};

[[nodiscard]] inline VecD add(VecD a, VecD b) noexcept {
  return {_mm512_add_pd(a.v, b.v)};
}
[[nodiscard]] inline VecD sub(VecD a, VecD b) noexcept {
  return {_mm512_sub_pd(a.v, b.v)};
}
[[nodiscard]] inline VecD mul(VecD a, VecD b) noexcept {
  return {_mm512_mul_pd(a.v, b.v)};
}
[[nodiscard]] inline VecD div(VecD a, VecD b) noexcept {
  return {_mm512_div_pd(a.v, b.v)};
}
/// -a: flips the sign bit, like the scalar unary minus.
[[nodiscard]] inline VecD neg(VecD a) noexcept {
  return {_mm512_castsi512_pd(
      _mm512_xor_epi64(_mm512_castpd_si512(a.v),
                       _mm512_set1_epi64(INT64_MIN)))};
}
/// a*b + c, single rounding.
[[nodiscard]] inline VecD fmadd(VecD a, VecD b, VecD c) noexcept {
  return {_mm512_fmadd_pd(a.v, b.v, c.v)};
}

#elif defined(PT_SIMD_AVX2)

struct VecD {
  __m256d v;

  [[nodiscard]] static VecD load(const double* p) noexcept {
    return {_mm256_loadu_pd(p)};
  }
  [[nodiscard]] static VecD broadcast(double x) noexcept {
    return {_mm256_set1_pd(x)};
  }
  [[nodiscard]] static VecD zero() noexcept { return {_mm256_setzero_pd()}; }
  void store(double* p) const noexcept { _mm256_storeu_pd(p, v); }
};

[[nodiscard]] inline VecD add(VecD a, VecD b) noexcept {
  return {_mm256_add_pd(a.v, b.v)};
}
[[nodiscard]] inline VecD sub(VecD a, VecD b) noexcept {
  return {_mm256_sub_pd(a.v, b.v)};
}
[[nodiscard]] inline VecD mul(VecD a, VecD b) noexcept {
  return {_mm256_mul_pd(a.v, b.v)};
}
[[nodiscard]] inline VecD div(VecD a, VecD b) noexcept {
  return {_mm256_div_pd(a.v, b.v)};
}
/// -a: flips the sign bit, like the scalar unary minus.
[[nodiscard]] inline VecD neg(VecD a) noexcept {
  return {_mm256_xor_pd(a.v, _mm256_set1_pd(-0.0))};
}
/// a*b + c, single rounding.
[[nodiscard]] inline VecD fmadd(VecD a, VecD b, VecD c) noexcept {
  return {_mm256_fmadd_pd(a.v, b.v, c.v)};
}

#elif defined(PT_SIMD_NEON) && defined(__aarch64__)

struct VecD {
  float64x2_t lo;  // l0, l1
  float64x2_t hi;  // l2, l3

  [[nodiscard]] static VecD load(const double* p) noexcept {
    return {vld1q_f64(p), vld1q_f64(p + 2)};
  }
  [[nodiscard]] static VecD broadcast(double x) noexcept {
    return {vdupq_n_f64(x), vdupq_n_f64(x)};
  }
  [[nodiscard]] static VecD zero() noexcept {
    return {vdupq_n_f64(0.0), vdupq_n_f64(0.0)};
  }
  void store(double* p) const noexcept {
    vst1q_f64(p, lo);
    vst1q_f64(p + 2, hi);
  }
};

[[nodiscard]] inline VecD add(VecD a, VecD b) noexcept {
  return {vaddq_f64(a.lo, b.lo), vaddq_f64(a.hi, b.hi)};
}
[[nodiscard]] inline VecD sub(VecD a, VecD b) noexcept {
  return {vsubq_f64(a.lo, b.lo), vsubq_f64(a.hi, b.hi)};
}
[[nodiscard]] inline VecD mul(VecD a, VecD b) noexcept {
  return {vmulq_f64(a.lo, b.lo), vmulq_f64(a.hi, b.hi)};
}
[[nodiscard]] inline VecD div(VecD a, VecD b) noexcept {
  return {vdivq_f64(a.lo, b.lo), vdivq_f64(a.hi, b.hi)};
}
/// -a: flips the sign bit, like the scalar unary minus.
[[nodiscard]] inline VecD neg(VecD a) noexcept {
  return {vnegq_f64(a.lo), vnegq_f64(a.hi)};
}
/// a*b + c, single rounding.
[[nodiscard]] inline VecD fmadd(VecD a, VecD b, VecD c) noexcept {
  return {vfmaq_f64(c.lo, a.lo, b.lo), vfmaq_f64(c.hi, a.hi, b.hi)};
}

#else  // scalar fallback (and 32-bit NEON, which has no float64x2 ops)

struct VecD {
  double v[kWidthD];

  [[nodiscard]] static VecD load(const double* p) noexcept {
    VecD r;
    for (std::size_t i = 0; i < kWidthD; ++i) r.v[i] = p[i];
    return r;
  }
  [[nodiscard]] static VecD broadcast(double x) noexcept {
    VecD r;
    for (std::size_t i = 0; i < kWidthD; ++i) r.v[i] = x;
    return r;
  }
  [[nodiscard]] static VecD zero() noexcept { return broadcast(0.0); }
  void store(double* p) const noexcept {
    for (std::size_t i = 0; i < kWidthD; ++i) p[i] = v[i];
  }
};

[[nodiscard]] inline VecD add(VecD a, VecD b) noexcept {
  for (std::size_t i = 0; i < kWidthD; ++i) a.v[i] += b.v[i];
  return a;
}
[[nodiscard]] inline VecD sub(VecD a, VecD b) noexcept {
  for (std::size_t i = 0; i < kWidthD; ++i) a.v[i] -= b.v[i];
  return a;
}
[[nodiscard]] inline VecD mul(VecD a, VecD b) noexcept {
  for (std::size_t i = 0; i < kWidthD; ++i) a.v[i] *= b.v[i];
  return a;
}
[[nodiscard]] inline VecD div(VecD a, VecD b) noexcept {
  for (std::size_t i = 0; i < kWidthD; ++i) a.v[i] /= b.v[i];
  return a;
}
/// -a: flips the sign bit, like the scalar unary minus.
[[nodiscard]] inline VecD neg(VecD a) noexcept {
  for (std::size_t i = 0; i < kWidthD; ++i) a.v[i] = -a.v[i];
  return a;
}
/// a*b + c, single rounding (std::fma, whatever the compiler's
/// -ffp-contract setting).
[[nodiscard]] inline VecD fmadd(VecD a, VecD b, VecD c) noexcept {
  for (std::size_t i = 0; i < kWidthD; ++i)
    c.v[i] = std::fma(a.v[i], b.v[i], c.v[i]);
  return c;
}

#endif

// ---------------------------------------------------------------------------
// exp(VecD): common::math::exp on every lane, bit for bit. AVX-512F and AVX2
// run the main path (2^-54 <= |x| < 512) on all kWidthD lanes at once with
// the scalar function's operations and constants, and send any lane outside
// it through the scalar function. The other backends call the scalar
// function lane by lane.
// ---------------------------------------------------------------------------

#if defined(PT_SIMD_AVX512)

[[nodiscard]] inline VecD exp(VecD x) noexcept {
  using namespace math::detail;
  const auto set = [](double c) { return _mm512_set1_pd(c); };
  const __m512d ax = _mm512_abs_pd(x.v);
  const __mmask8 main_lanes = _mm512_mask_cmp_pd_mask(
      _mm512_cmp_pd_mask(ax, set(kExpMainLo), _CMP_GE_OQ), ax,
      set(kExpMainHi), _CMP_LT_OQ);
  const __m512d kd_shifted =
      _mm512_fmadd_pd(x.v, set(kExpInvLn2N), set(kExpShift));
  const __m512i ki = _mm512_castpd_si512(kd_shifted);
  const __m512d kd = _mm512_sub_pd(kd_shifted, set(kExpShift));
  const __m512d r = _mm512_fmadd_pd(
      kd, set(kExpNegLn2loN), _mm512_fmadd_pd(kd, set(kExpNegLn2hiN), x.v));
  const __m512d r2 = _mm512_mul_pd(r, r);
  // Word index 2 (ki % 128) of each lane's (T, H') pair, and the two words
  // gathered separately. The masked forms with a zero source compile clean
  // where the unmasked ones start from an undefined register.
  constexpr __mmask8 kAll = 0xFF;
  const __m512i zero = _mm512_setzero_si512();
  const __m512i idx = _mm512_maskz_slli_epi64(
      kAll, _mm512_and_si512(ki, _mm512_set1_epi64(127)), 1);
  const __m512d tail = _mm512_castsi512_pd(
      _mm512_mask_i64gather_epi64(zero, kAll, idx, kExpTable, 8));
  const __m512d scale = _mm512_castsi512_pd(_mm512_add_epi64(
      _mm512_mask_i64gather_epi64(zero, kAll, idx, kExpTable + 1, 8),
      _mm512_maskz_slli_epi64(kAll, ki, 45)));
  __m512d tmp =
      _mm512_fmadd_pd(_mm512_fmadd_pd(r, set(kExpC3), set(kExpC2)), r2,
                      _mm512_add_pd(r, tail));
  tmp = _mm512_fmadd_pd(_mm512_mul_pd(r2, r2),
                        _mm512_fmadd_pd(r, set(kExpC5), set(kExpC4)), tmp);
  VecD out{_mm512_fmadd_pd(scale, tmp, scale)};
  if (main_lanes != kAll) {
    alignas(64) double in[kWidthD];
    alignas(64) double lanes[kWidthD];
    _mm512_store_pd(in, x.v);
    _mm512_store_pd(lanes, out.v);
    for (std::size_t l = 0; l < kWidthD; ++l)
      if (((main_lanes >> l) & 1) == 0) lanes[l] = math::exp(in[l]);
    out.v = _mm512_load_pd(lanes);
  }
  return out;
}

#elif defined(PT_SIMD_AVX2)

[[nodiscard]] inline VecD exp(VecD x) noexcept {
  using namespace math::detail;
  const auto set = [](double c) { return _mm256_set1_pd(c); };
  const __m256d ax = _mm256_andnot_pd(set(-0.0), x.v);
  const int main_lanes = _mm256_movemask_pd(
      _mm256_and_pd(_mm256_cmp_pd(ax, set(kExpMainLo), _CMP_GE_OQ),
                    _mm256_cmp_pd(ax, set(kExpMainHi), _CMP_LT_OQ)));
  const __m256d kd_shifted =
      _mm256_fmadd_pd(x.v, set(kExpInvLn2N), set(kExpShift));
  const __m256i ki = _mm256_castpd_si256(kd_shifted);
  const __m256d kd = _mm256_sub_pd(kd_shifted, set(kExpShift));
  const __m256d r = _mm256_fmadd_pd(
      kd, set(kExpNegLn2loN), _mm256_fmadd_pd(kd, set(kExpNegLn2hiN), x.v));
  const __m256d r2 = _mm256_mul_pd(r, r);
  alignas(32) std::uint64_t idx[kWidthD];
  _mm256_store_si256(
      reinterpret_cast<__m256i*>(idx),
      _mm256_slli_epi64(_mm256_and_si256(ki, _mm256_set1_epi64x(127)), 1));
  const auto pair = [](std::uint64_t i) {
    return _mm_loadu_si128(reinterpret_cast<const __m128i*>(kExpTable + i));
  };
  // (tail, sbits) pairs of lanes 0|2 and 1|3, then split by word.
  const __m256i p02 = _mm256_setr_m128i(pair(idx[0]), pair(idx[2]));
  const __m256i p13 = _mm256_setr_m128i(pair(idx[1]), pair(idx[3]));
  const __m256d tail = _mm256_castsi256_pd(_mm256_unpacklo_epi64(p02, p13));
  const __m256d scale = _mm256_castsi256_pd(_mm256_add_epi64(
      _mm256_unpackhi_epi64(p02, p13), _mm256_slli_epi64(ki, 45)));
  __m256d tmp =
      _mm256_fmadd_pd(_mm256_fmadd_pd(r, set(kExpC3), set(kExpC2)), r2,
                      _mm256_add_pd(r, tail));
  tmp = _mm256_fmadd_pd(_mm256_mul_pd(r2, r2),
                        _mm256_fmadd_pd(r, set(kExpC5), set(kExpC4)), tmp);
  VecD out{_mm256_fmadd_pd(scale, tmp, scale)};
  if (main_lanes != 0xF) {
    alignas(32) double in[kWidthD];
    alignas(32) double lanes[kWidthD];
    _mm256_store_pd(in, x.v);
    _mm256_store_pd(lanes, out.v);
    for (std::size_t l = 0; l < kWidthD; ++l)
      if (((main_lanes >> l) & 1) == 0) lanes[l] = math::exp(in[l]);
    out.v = _mm256_load_pd(lanes);
  }
  return out;
}

#else

[[nodiscard]] inline VecD exp(VecD x) noexcept {
  double lanes[kWidthD];
  x.store(lanes);
  for (double& l : lanes) l = math::exp(l);
  return VecD::load(lanes);
}

#endif

// ---------------------------------------------------------------------------
// Vectorized transcendental approximations (backend-independent algorithm;
// the scalar references in simd.cpp spell out the identical operation
// sequence with std::fma, which is what self_test compares against).
// ---------------------------------------------------------------------------

namespace detail {
// High clamp is log(2^127): keeps n = floor(x*log2e + 0.5) <= 127 so the
// 2^n bit-build never produces an exponent-255 (inf) pattern — exp saturates
// to ~1.7e38 instead of overflowing.
inline constexpr float kExpHi = 88.02969193111305f;
inline constexpr float kExpLo = -87.3365478515625f;
inline constexpr float kLog2e = 1.44269504088896341f;
inline constexpr float kExpC1 = 0.693359375f;
inline constexpr float kExpC2 = -2.12194440e-4f;
inline constexpr float kExpP0 = 1.9875691500e-4f;
inline constexpr float kExpP1 = 1.3981999507e-3f;
inline constexpr float kExpP2 = 8.3334519073e-3f;
inline constexpr float kExpP3 = 4.1665795894e-2f;
inline constexpr float kExpP4 = 1.6666665459e-1f;
inline constexpr float kExpP5 = 5.0000001201e-1f;
}  // namespace detail

/// Cephes-style exp approximation (clamped to the finite fp32 domain).
[[nodiscard]] inline VecF exp(VecF x) noexcept {
  using namespace detail;
  x = min(x, VecF::broadcast(kExpHi));
  x = max(x, VecF::broadcast(kExpLo));
  // n = floor(x * log2(e) + 0.5); r = x - n*ln(2) in two parts.
  VecF fx = fmadd(x, VecF::broadcast(kLog2e), VecF::broadcast(0.5f));
  fx = floor(fx);
  x = fnmadd(fx, VecF::broadcast(kExpC1), x);
  x = fnmadd(fx, VecF::broadcast(kExpC2), x);
  VecF y = VecF::broadcast(kExpP0);
  y = fmadd(y, x, VecF::broadcast(kExpP1));
  y = fmadd(y, x, VecF::broadcast(kExpP2));
  y = fmadd(y, x, VecF::broadcast(kExpP3));
  y = fmadd(y, x, VecF::broadcast(kExpP4));
  y = fmadd(y, x, VecF::broadcast(kExpP5));
  const VecF z = mul(x, x);
  y = fmadd(y, z, x);
  y = add(y, VecF::broadcast(1.0f));
  return mul(y, pow2i(fx));
}

/// Absolute error of sigmoid against the exact function, for every finite
/// fp32 input: 8 ULP of a result below 1 is at most 8 * 2^-24.
inline constexpr double kSigmoidAbsError = 0x1p-21;

/// 1 / (1 + exp(-x)).
[[nodiscard]] inline VecF sigmoid(VecF x) noexcept {
  const VecF one = VecF::broadcast(1.0f);
  const VecF e = exp(sub(VecF::zero(), x));
  return div(one, add(one, e));
}

// ---------------------------------------------------------------------------
// Scalar reference implementations (simd.cpp): operation-for-operation the
// same algorithm as the vector versions, so a correct backend matches them
// bit for bit lane by lane.
// ---------------------------------------------------------------------------

[[nodiscard]] float exp_ref(float x) noexcept;
[[nodiscard]] float sigmoid_ref(float x) noexcept;

/// The configure-time backend ("avx512", "avx2", "neon" or "scalar").
[[nodiscard]] const char* backend_name() noexcept;

/// Verify the active backend against the scalar references on a
/// deterministic input sweep (bit-equality for exp/sigmoid/fmadd,
/// tolerance for the horizontal sum). False on mismatch, with a diagnostic
/// in *error when given.
[[nodiscard]] bool self_test(std::string* error = nullptr);

/// Run self_test() once per process; throws std::runtime_error on failure.
/// Called by ml::BatchedEnsemble before the first batched scan.
void ensure_verified();

// ---------------------------------------------------------------------------
// 64-byte-aligned float storage for packed weights and activation panels.
// ---------------------------------------------------------------------------

template <typename T>
struct AlignedAllocator {
  using value_type = T;
  static constexpr std::align_val_t kAlign{64};

  AlignedAllocator() noexcept = default;
  template <typename U>
  explicit AlignedAllocator(const AlignedAllocator<U>&) noexcept {}

  [[nodiscard]] T* allocate(std::size_t n) {
    return static_cast<T*>(::operator new(n * sizeof(T), kAlign));
  }
  void deallocate(T* p, std::size_t) noexcept { ::operator delete(p, kAlign); }

  template <typename U>
  [[nodiscard]] bool operator==(const AlignedAllocator<U>&) const noexcept {
    return true;
  }
};

template <typename T>
using AlignedVector = std::vector<T, AlignedAllocator<T>>;

using AlignedVectorF = AlignedVector<float>;

}  // namespace pt::common::simd
