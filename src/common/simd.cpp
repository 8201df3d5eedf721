#include "common/simd.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
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

float tanh_ref(float x) noexcept {
  const float s = sigmoid_ref(x + x);
  return (s + s) - 1.0f;
}

namespace {

// Scalar references for the integer microkernels: plain loops over the same
// packed layouts. Integer arithmetic is exact, so a correct vector
// implementation matches these value for value.
void gemv_u7s8_ref(const std::uint8_t* a, const std::int8_t* w,
                   std::size_t in, std::size_t channels,
                   std::int32_t* out) noexcept {
  for (std::size_t c0 = 0; c0 < channels; c0 += kQuantChannelBlock) {
    const std::int8_t* block = w + c0 * in;
    for (std::size_t j = 0; j < kQuantChannelBlock; ++j) {
      std::int32_t acc = 0;
      for (std::size_t q = 0; q < in; q += kQuantInputQuad) {
        const std::int8_t* group = block + q * kQuantChannelBlock;
        for (std::size_t k = 0; k < kQuantInputQuad; ++k)
          acc += static_cast<std::int32_t>(a[q + k]) *
                 static_cast<std::int32_t>(group[kQuantInputQuad * j + k]);
      }
      out[c0 + j] = acc;
    }
  }
}

std::int32_t dot_u7s8_ref(const std::uint8_t* a, const std::int8_t* w,
                          std::size_t n) noexcept {
  std::int32_t acc = 0;
  for (std::size_t i = 0; i < n; ++i)
    acc += static_cast<std::int32_t>(a[i]) * static_cast<std::int32_t>(w[i]);
  return acc;
}

void quantize_u7_ref(const float* x, const float* lo, const float* inv_step,
                     std::size_t n, std::uint8_t* out) noexcept {
  for (std::size_t i = 0; i < n; ++i) {
    const auto q =
        static_cast<std::int32_t>(std::lrintf((x[i] - lo[i]) * inv_step[i]));
    out[i] = static_cast<std::uint8_t>(std::clamp(q, 0, 127));
  }
}

void requant_lut_u8_ref(const std::int32_t* acc, const std::int32_t* bias,
                        const std::int32_t* shift, std::size_t n,
                        const std::int32_t* lut, std::int32_t size,
                        std::uint8_t* out) noexcept {
  for (std::size_t c = 0; c < n; ++c) {
    // C++20: >> on a negative value is an arithmetic shift (floor division).
    std::int32_t idx = (acc[c] + bias[c]) >> shift[c];
    idx = idx < 0 ? 0 : idx;
    idx = idx >= size ? size - 1 : idx;
    out[c] = static_cast<std::uint8_t>(lut[idx]);
  }
}

// The fused forward IS the three-kernel composition, tiled over fixed
// 32-channel stack buffers (channels is a multiple of kQuantDotAlign, and
// the gemv/requant/dot channel loops are all elementwise, so tiling does
// not change any intermediate value).
std::int32_t forward1_u7s8_ref(const std::uint8_t* a, const std::int8_t* w,
                               std::size_t in, std::size_t channels,
                               const std::int32_t* bias,
                               const std::int32_t* shift,
                               const std::int32_t* lut, std::int32_t size,
                               const std::int8_t* outw) noexcept {
  std::int32_t dot = 0;
  for (std::size_t c0 = 0; c0 < channels; c0 += kQuantDotAlign) {
    std::int32_t acc[kQuantDotAlign];
    std::uint8_t act[kQuantDotAlign];
    gemv_u7s8_ref(a, w + c0 * in, in, kQuantDotAlign, acc);
    requant_lut_u8_ref(acc, bias + c0, shift + c0, kQuantDotAlign, lut, size,
                       act);
    dot += dot_u7s8_ref(act, outw + c0, kQuantDotAlign);
  }
  return dot;
}

}  // namespace

#if defined(PT_SIMD_AVX2)

void gemv_u7s8(const std::uint8_t* a, const std::int8_t* w, std::size_t in,
               std::size_t channels, std::int32_t* out) noexcept {
  // dpbusd emulation: broadcast an activation dword (4 u7 bytes) against a
  // 32-byte group of 8 channels x 4 inputs. maddubs yields the 16 pair
  // sums in s16 (no saturation: u7 * s8 * 2 fits), and madd-by-ones folds
  // the two adjacent pair sums of each channel into an exact s32.
  const __m256i ones = _mm256_set1_epi16(1);
  for (std::size_t c0 = 0; c0 < channels; c0 += kQuantChannelBlock) {
    const std::int8_t* block = w + c0 * in;
    __m256i acc = _mm256_setzero_si256();  // channels c0 .. c0+7
    for (std::size_t q = 0; q < in; q += kQuantInputQuad) {
      std::uint32_t quad;
      std::memcpy(&quad, a + q, sizeof quad);
      const __m256i av = _mm256_set1_epi32(static_cast<int>(quad));
      const __m256i wv = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(
          block + q * kQuantChannelBlock));
      const __m256i prod = _mm256_maddubs_epi16(av, wv);
      acc = _mm256_add_epi32(acc, _mm256_madd_epi16(prod, ones));
    }
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(out + c0), acc);
  }
}

std::int32_t dot_u7s8(const std::uint8_t* a, const std::int8_t* w,
                      std::size_t n) noexcept {
  const __m256i ones = _mm256_set1_epi16(1);
  __m256i acc = _mm256_setzero_si256();
  for (std::size_t i = 0; i < n; i += 32) {
    const __m256i av =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(a + i));
    const __m256i wv =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(w + i));
    const __m256i prod = _mm256_maddubs_epi16(av, wv);
    acc = _mm256_add_epi32(acc, _mm256_madd_epi16(prod, ones));
  }
  const __m128i lo = _mm256_castsi256_si128(acc);
  const __m128i hi = _mm256_extracti128_si256(acc, 1);
  __m128i s = _mm_add_epi32(lo, hi);
  s = _mm_add_epi32(s, _mm_unpackhi_epi64(s, s));
  s = _mm_add_epi32(s, _mm_shuffle_epi32(s, 0x55));
  return _mm_cvtsi128_si32(s);
}

void quantize_u7(const float* x, const float* lo, const float* inv_step,
                 std::size_t n, std::uint8_t* out) noexcept {
  const __m256i zero = _mm256_setzero_si256();
  const __m256i hi = _mm256_set1_epi32(127);
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m256 v = _mm256_mul_ps(
        _mm256_sub_ps(_mm256_loadu_ps(x + i), _mm256_loadu_ps(lo + i)),
        _mm256_loadu_ps(inv_step + i));
    __m256i q = _mm256_cvtps_epi32(v);  // round-to-nearest-even
    q = _mm256_min_epi32(_mm256_max_epi32(q, zero), hi);
    const __m128i p16 = _mm_packs_epi32(_mm256_castsi256_si128(q),
                                        _mm256_extracti128_si256(q, 1));
    _mm_storel_epi64(reinterpret_cast<__m128i*>(out + i),
                     _mm_packus_epi16(p16, p16));
  }
  if (i < n) quantize_u7_ref(x + i, lo + i, inv_step + i, n - i, out + i);
}

void requant_lut_u8(const std::int32_t* acc, const std::int32_t* bias,
                    const std::int32_t* shift, std::size_t n,
                    const std::int32_t* lut, std::int32_t size,
                    std::uint8_t* out) noexcept {
  const __m256i zero = _mm256_setzero_si256();
  const __m256i hi_idx = _mm256_set1_epi32(size - 1);
  std::size_t c = 0;
  for (; c + 16 <= n; c += 16) {
    __m256i v0 = _mm256_add_epi32(
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(acc + c)),
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(bias + c)));
    __m256i v1 = _mm256_add_epi32(
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(acc + c + 8)),
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(bias + c + 8)));
    v0 = _mm256_srav_epi32(
        v0, _mm256_loadu_si256(reinterpret_cast<const __m256i*>(shift + c)));
    v1 = _mm256_srav_epi32(
        v1,
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(shift + c + 8)));
    v0 = _mm256_min_epi32(_mm256_max_epi32(v0, zero), hi_idx);
    v1 = _mm256_min_epi32(_mm256_max_epi32(v1, zero), hi_idx);
    v0 = _mm256_i32gather_epi32(lut, v0, 4);
    v1 = _mm256_i32gather_epi32(lut, v1, 4);
    // Narrow the 16 gathered u7 values to bytes in channel order: the pack
    // instructions interleave 128-bit lanes, so a dword permute restores it.
    const __m256i p16 = _mm256_packs_epi32(v0, v1);
    const __m256i p8 = _mm256_packus_epi16(p16, p16);
    const __m256i order = _mm256_setr_epi32(0, 4, 1, 5, 0, 0, 0, 0);
    const __m256i packed = _mm256_permutevar8x32_epi32(p8, order);
    _mm_storeu_si128(reinterpret_cast<__m128i*>(out + c),
                     _mm256_castsi256_si128(packed));
  }
  if (c < n)
    requant_lut_u8_ref(acc + c, bias + c, shift + c, n - c, lut, size,
                       out + c);
}

std::int32_t forward1_u7s8(const std::uint8_t* a, const std::int8_t* w,
                           std::size_t in, std::size_t channels,
                           const std::int32_t* bias, const std::int32_t* shift,
                           const std::int32_t* lut, std::int32_t size,
                           const std::int8_t* outw) noexcept {
  // Per 32-channel group: the gemv inner loop with four live accumulators
  // (one per 8-channel block), then the requant sequence on each
  // accumulator in registers, then pack-to-bytes and one maddubs against
  // the output column. Identical integer ops to the three-kernel
  // composition, so the result is bit-equal.
  const __m256i ones = _mm256_set1_epi16(1);
  const __m256i zero = _mm256_setzero_si256();
  const __m256i hi_idx = _mm256_set1_epi32(size - 1);
  __m256i dacc = _mm256_setzero_si256();
  for (std::size_t c0 = 0; c0 < channels; c0 += 4 * kQuantChannelBlock) {
    const std::int8_t* tile = w + c0 * in;
    const std::size_t stride = in * kQuantChannelBlock;
    __m256i acc0 = _mm256_setzero_si256();
    __m256i acc1 = _mm256_setzero_si256();
    __m256i acc2 = _mm256_setzero_si256();
    __m256i acc3 = _mm256_setzero_si256();
    for (std::size_t q = 0; q < in; q += kQuantInputQuad) {
      std::uint32_t quad;
      std::memcpy(&quad, a + q, sizeof quad);
      const __m256i av = _mm256_set1_epi32(static_cast<int>(quad));
      const std::int8_t* g = tile + q * kQuantChannelBlock;
      const __m256i w0 =
          _mm256_loadu_si256(reinterpret_cast<const __m256i*>(g));
      const __m256i w1 =
          _mm256_loadu_si256(reinterpret_cast<const __m256i*>(g + stride));
      const __m256i w2 =
          _mm256_loadu_si256(reinterpret_cast<const __m256i*>(g + 2 * stride));
      const __m256i w3 =
          _mm256_loadu_si256(reinterpret_cast<const __m256i*>(g + 3 * stride));
      acc0 = _mm256_add_epi32(
          acc0, _mm256_madd_epi16(_mm256_maddubs_epi16(av, w0), ones));
      acc1 = _mm256_add_epi32(
          acc1, _mm256_madd_epi16(_mm256_maddubs_epi16(av, w1), ones));
      acc2 = _mm256_add_epi32(
          acc2, _mm256_madd_epi16(_mm256_maddubs_epi16(av, w2), ones));
      acc3 = _mm256_add_epi32(
          acc3, _mm256_madd_epi16(_mm256_maddubs_epi16(av, w3), ones));
    }
    const auto requant8 = [&](__m256i acc, std::size_t c) noexcept {
      __m256i v = _mm256_add_epi32(
          acc,
          _mm256_loadu_si256(reinterpret_cast<const __m256i*>(bias + c)));
      v = _mm256_srav_epi32(
          v, _mm256_loadu_si256(reinterpret_cast<const __m256i*>(shift + c)));
      v = _mm256_min_epi32(_mm256_max_epi32(v, zero), hi_idx);
      return _mm256_i32gather_epi32(lut, v, 4);
    };
    const __m256i a0 = requant8(acc0, c0);
    const __m256i a1 = requant8(acc1, c0 + 8);
    const __m256i a2 = requant8(acc2, c0 + 16);
    const __m256i a3 = requant8(acc3, c0 + 24);
    // Narrow the 32 u7 dwords to bytes in channel order (the pack
    // instructions interleave 128-bit lanes; the dword permute undoes it).
    const __m256i p16lo = _mm256_packs_epi32(a0, a1);
    const __m256i p16hi = _mm256_packs_epi32(a2, a3);
    const __m256i p8 = _mm256_packus_epi16(p16lo, p16hi);
    const __m256i order = _mm256_setr_epi32(0, 4, 1, 5, 2, 6, 3, 7);
    const __m256i act = _mm256_permutevar8x32_epi32(p8, order);
    const __m256i wv =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(outw + c0));
    dacc = _mm256_add_epi32(
        dacc, _mm256_madd_epi16(_mm256_maddubs_epi16(act, wv), ones));
  }
  const __m128i lo = _mm256_castsi256_si128(dacc);
  const __m128i hi = _mm256_extracti128_si256(dacc, 1);
  __m128i s = _mm_add_epi32(lo, hi);
  s = _mm_add_epi32(s, _mm_unpackhi_epi64(s, s));
  s = _mm_add_epi32(s, _mm_shuffle_epi32(s, 0x55));
  return _mm_cvtsi128_si32(s);
}

#else  // NEON and scalar backends use the exact reference loops.

void gemv_u7s8(const std::uint8_t* a, const std::int8_t* w, std::size_t in,
               std::size_t channels, std::int32_t* out) noexcept {
  gemv_u7s8_ref(a, w, in, channels, out);
}

std::int32_t dot_u7s8(const std::uint8_t* a, const std::int8_t* w,
                      std::size_t n) noexcept {
  return dot_u7s8_ref(a, w, n);
}

void quantize_u7(const float* x, const float* lo, const float* inv_step,
                 std::size_t n, std::uint8_t* out) noexcept {
  quantize_u7_ref(x, lo, inv_step, n, out);
}

void requant_lut_u8(const std::int32_t* acc, const std::int32_t* bias,
                    const std::int32_t* shift, std::size_t n,
                    const std::int32_t* lut, std::int32_t size,
                    std::uint8_t* out) noexcept {
  requant_lut_u8_ref(acc, bias, shift, n, lut, size, out);
}

std::int32_t forward1_u7s8(const std::uint8_t* a, const std::int8_t* w,
                           std::size_t in, std::size_t channels,
                           const std::int32_t* bias, const std::int32_t* shift,
                           const std::int32_t* lut, std::int32_t size,
                           const std::int8_t* outw) noexcept {
  return forward1_u7s8_ref(a, w, in, channels, bias, shift, lut, size, outw);
}

#endif

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

bool fail(std::string* error, const char* what, float input, float got,
          float want) {
  if (error) {
    char buf[160];
    std::snprintf(buf, sizeof(buf),
                  "simd self_test: %s(%a) = %a on backend %s, scalar "
                  "reference gives %a",
                  what, static_cast<double>(input), static_cast<double>(got),
                  backend_name(), static_cast<double>(want));
    *error = buf;
  }
  return false;
}

}  // namespace

bool self_test(std::string* error) {
  // Deterministic sweep: dense near zero (where sigmoid/tanh cancellation
  // lives), log-spaced toward the exp clamp range, both signs, plus the
  // clamp boundaries themselves and values beyond them.
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
    tanh(x).store(lanes);
    for (std::size_t l = 0; l < kWidth; ++l) {
      const float want = tanh_ref(in[l]);
      if (std::bit_cast<std::uint32_t>(lanes[l]) !=
          std::bit_cast<std::uint32_t>(want))
        return fail(error, "tanh", in[l], lanes[l], want);
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
  // operators, fmadd exactly like std::fma, and hsum_pairwise must
  // reproduce the (l0+l1)+(l2+l3) combine.
  {
    double da[kWidthD];
    double db[kWidthD];
    double lanes_d[kWidthD];
    const auto check_d = [&](const char* what, auto&& want_of) {
      for (std::size_t l = 0; l < kWidthD; ++l) {
        const double want = want_of(l);
        if (std::bit_cast<std::uint64_t>(lanes_d[l]) !=
            std::bit_cast<std::uint64_t>(want))
          return fail(error, what, static_cast<float>(da[l]),
                      static_cast<float>(lanes_d[l]), static_cast<float>(want));
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
      const double got_h = hsum_pairwise(xa);
      const double want_h = (da[0] + da[1]) + (da[2] + da[3]);
      if (std::bit_cast<std::uint64_t>(got_h) !=
          std::bit_cast<std::uint64_t>(want_h))
        return fail(error, "vecd_hsum", static_cast<float>(da[0]),
                    static_cast<float>(got_h), static_cast<float>(want_h));
    }
  }

  // Integer microkernels against the scalar reference loops (exact).
  {
    constexpr std::size_t kIn = 20;        // a multiple of kQuantInputQuad
    constexpr std::size_t kChannels = 32;  // four channel blocks
    std::uint8_t act[kIn];
    std::int8_t panel[kIn * kChannels];
    std::int32_t got32[kChannels];
    std::int32_t want32[kChannels];
    std::uint32_t h = 12345;
    const auto nextu = [&h] {
      h = h * 1664525U + 1013904223U;
      return h >> 16;
    };
    for (int trial = 0; trial < 16; ++trial) {
      for (auto& v : act) v = static_cast<std::uint8_t>(nextu() % 128);
      for (auto& v : panel)
        v = static_cast<std::int8_t>(static_cast<int>(nextu() % 255) - 127);
      gemv_u7s8(act, panel, kIn, kChannels, got32);
      gemv_u7s8_ref(act, panel, kIn, kChannels, want32);
      for (std::size_t c = 0; c < kChannels; ++c)
        if (got32[c] != want32[c])
          return fail(error, "gemv_u7s8", static_cast<float>(c),
                      static_cast<float>(got32[c]),
                      static_cast<float>(want32[c]));

      std::uint8_t dact[kQuantDotAlign * 2];
      std::int8_t dw[kQuantDotAlign * 2];
      for (auto& v : dact) v = static_cast<std::uint8_t>(nextu() % 128);
      for (auto& v : dw)
        v = static_cast<std::int8_t>(static_cast<int>(nextu() % 255) - 127);
      const std::int32_t got_dot = dot_u7s8(dact, dw, kQuantDotAlign * 2);
      const std::int32_t want_dot =
          dot_u7s8_ref(dact, dw, kQuantDotAlign * 2);
      if (got_dot != want_dot)
        return fail(error, "dot_u7s8", 0.0f, static_cast<float>(got_dot),
                    static_cast<float>(want_dot));

      constexpr std::int32_t kLutSize = 512;
      std::int32_t lut[kLutSize];
      for (std::int32_t i = 0; i < kLutSize; ++i) lut[i] = (i * 7) % 128;
      std::int32_t racc[kChannels];
      std::int32_t rbias[kChannels];
      std::int32_t rshift[kChannels];
      std::uint8_t got8[kChannels];
      std::uint8_t want8[kChannels];
      for (std::size_t c = 0; c < kChannels; ++c) {
        racc[c] = static_cast<std::int32_t>(nextu() % 2000000U) - 1000000;
        rbias[c] = static_cast<std::int32_t>(nextu() % 2000000U) - 1000000;
        rshift[c] = static_cast<std::int32_t>(nextu() % 16U);
      }
      requant_lut_u8(racc, rbias, rshift, kChannels, lut, kLutSize, got8);
      requant_lut_u8_ref(racc, rbias, rshift, kChannels, lut, kLutSize,
                         want8);
      for (std::size_t c = 0; c < kChannels; ++c)
        if (got8[c] != want8[c])
          return fail(error, "requant_lut_u8", static_cast<float>(c),
                      static_cast<float>(got8[c]),
                      static_cast<float>(want8[c]));

      // quantize_u7: odd length exercises the vector body and the tail;
      // values deliberately overshoot both clamp edges.
      constexpr std::size_t kQn = 19;
      float qx[kQn];
      float qlo[kQn];
      float qinv[kQn];
      std::uint8_t qgot[kQn];
      std::uint8_t qwant[kQn];
      for (std::size_t i = 0; i < kQn; ++i) {
        qx[i] = (static_cast<float>(nextu() % 4000U) - 1000.0f) / 100.0f;
        qlo[i] = (static_cast<float>(nextu() % 1000U) - 500.0f) / 100.0f;
        qinv[i] = i % 7 == 0 ? 0.0f  // degenerate calibration range
                             : static_cast<float>(nextu() % 1000U) / 100.0f;
      }
      quantize_u7(qx, qlo, qinv, kQn, qgot);
      quantize_u7_ref(qx, qlo, qinv, kQn, qwant);
      for (std::size_t i = 0; i < kQn; ++i)
        if (qgot[i] != qwant[i])
          return fail(error, "quantize_u7", qx[i],
                      static_cast<float>(qgot[i]),
                      static_cast<float>(qwant[i]));

      // forward1_u7s8: two 32-channel groups so the group loop iterates;
      // must equal the gemv -> requant -> dot composition exactly.
      constexpr std::size_t kFwdCh = kQuantDotAlign * 2;
      std::int8_t fpanel[kIn * kFwdCh];
      std::int32_t fbias[kFwdCh];
      std::int32_t fshift[kFwdCh];
      std::int8_t foutw[kFwdCh];
      for (auto& v : fpanel)
        v = static_cast<std::int8_t>(static_cast<int>(nextu() % 255) - 127);
      for (std::size_t c = 0; c < kFwdCh; ++c) {
        fbias[c] = static_cast<std::int32_t>(nextu() % 2000000U) - 1000000;
        fshift[c] = static_cast<std::int32_t>(nextu() % 16U);
        foutw[c] =
            static_cast<std::int8_t>(static_cast<int>(nextu() % 255) - 127);
      }
      std::int32_t facc[kFwdCh];
      std::uint8_t fact[kFwdCh];
      gemv_u7s8(act, fpanel, kIn, kFwdCh, facc);
      requant_lut_u8(facc, fbias, fshift, kFwdCh, lut, kLutSize, fact);
      const std::int32_t want_fwd = dot_u7s8(fact, foutw, kFwdCh);
      const std::int32_t want_fwd_ref = forward1_u7s8_ref(
          act, fpanel, kIn, kFwdCh, fbias, fshift, lut, kLutSize, foutw);
      const std::int32_t got_fwd = forward1_u7s8(
          act, fpanel, kIn, kFwdCh, fbias, fshift, lut, kLutSize, foutw);
      if (got_fwd != want_fwd || got_fwd != want_fwd_ref)
        return fail(error, "forward1_u7s8", static_cast<float>(want_fwd_ref),
                    static_cast<float>(got_fwd),
                    static_cast<float>(want_fwd));
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
