#pragma once

// Quantized int8 inference tier for the prediction scan: per-output-channel
// symmetric int8 weights with int32 accumulation, packed from the same
// fitted ensembles as the fp32 engine of ml/batched.hpp. The feature
// calibration (per-input [lo, hi] ranges, supplied by the caller from the
// encoder's value tables) is folded into the packed weights and biases at
// pack time, in double:
//   a_q[i]   = round((x[i] - lo_i) / s_i),  s_i = (hi_i - lo_i) / 127
//   W''[i][j] = s_i * W'[i][j]              (W' = scaler-folded weights)
//   b''_j     = b'_j + sum_i lo_i * W'[i][j]
// so quantized activations are plain unsigned 7-bit integers and no
// zero-point correction appears in the inner loop. Weight columns are
// quantized per output channel with power-of-two scales, which turns
// requantization into a per-channel arithmetic shift; hidden activations
// (sigmoid/tanh) are evaluated through a 512-entry lookup table over
// pre-activation domain [-8, 8) that directly emits the next layer's u7
// activation. Accumulation is exact integer arithmetic throughout, so
// results are bit-identical across SIMD backends by construction.
// Restricted to sigmoid/tanh hidden layers and a single linear output (what
// the paper's networks use); anything else throws.
//
// The engine is not exact relative to the fp64 reference; the scan layer
// (tuner/scan.hpp) treats its outputs as a coarse ranking and re-ranks every
// candidate within a widened slack band through fp64, so the returned top-M
// stays exactly the fp64 selection as long as the raw-output error stays
// within ScanOptions::quant_error_bound (hand-set, checked with 2x margin by
// tests/ml/test_quant.cpp).
//
// Why int8 is opt-in and fp32 is the default: a sound int8-vs-fp64 bound,
// propagated through pack_int8's folds (input step, weight rounding, shift
// and LUT resolution), comes to 0.21-0.62 raw units on the stereo ensembles
// and 1.0-2.1 on the N=2000 convolution/raycasting ensembles, so a certified
// re-rank band would cover 2-21% and 62-98% of those spaces. The fp32
// engine's certified bound on the same geometries is 2.6e-5-1.3e-4 and its
// band holds 100-103 rows at M = 100, so fp32 delivers exact top-M by proof
// at full speed and is the default.

#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/simd.hpp"
#include "ml/activation.hpp"
#include "ml/ensemble.hpp"
#include "ml/mlp.hpp"
#include "ml/scaler.hpp"

namespace pt::ml {

/// Per-input-feature value ranges: the box the fp32 engine certifies its
/// error bound over (ml/batched.hpp) and the int8 engine quantizes raw
/// feature rows against. For scan features these are the min/max of the
/// encoder's per-dimension value tables, so every scanned row is inside its
/// range by construction; a degenerate range (lo == hi — e.g. a fixed
/// instance-feature tail) is exact: the feature's contribution folds
/// entirely into the bias.
struct QuantCalibration {
  std::vector<float> lo;
  std::vector<float> hi;

  [[nodiscard]] std::size_t width() const noexcept { return lo.size(); }
  [[nodiscard]] bool operator==(const QuantCalibration&) const = default;
};

/// One fitted Mlp packed for int8 inference. Pack-time folds (scaler,
/// calibration, activation affine) are computed in double, so the only
/// precision loss is the declared weight/activation quantization itself.
class QuantizedMlp {
 public:
  /// Pack `mlp` (optionally folding `scaler` into layer 0) against a
  /// calibration of the network's input width. The topology must be
  /// sigmoid/tanh hidden layers plus a single linear output; violations
  /// throw std::invalid_argument.
  QuantizedMlp(const Mlp& mlp, const StandardScaler* scaler,
               const QuantCalibration& calibration);

  [[nodiscard]] std::size_t input_size() const noexcept { return inputs_; }

  /// Ping-pong u7 activation panels and the s32 accumulator.
  struct Scratch {
    common::simd::AlignedVector<std::uint8_t> qa;
    common::simd::AlignedVector<std::uint8_t> qb;
    common::simd::AlignedVector<std::int32_t> acc;
    std::vector<float> member;
  };

  /// Forward for one pre-quantized u7 input row (layout/width
  /// quantized_input_width()); returns the single raw fp32 output.
  [[nodiscard]] float forward_int8(const std::uint8_t* qrow,
                                   Scratch& scratch) const;

  /// Width of a quantized input row consumed by forward_int8 (the input
  /// count rounded up to a whole input-quad count).
  [[nodiscard]] std::size_t quantized_input_width() const noexcept {
    return in_padded_;
  }

 private:
  struct Int8Layer {
    std::size_t in = 0;        // padded fan-in (even)
    std::size_t channels = 0;  // padded unit count (multiple of 32)
    common::simd::AlignedVector<std::int8_t> w;  // quad-interleaved panel
    common::simd::AlignedVector<std::int32_t> bias_idx;  // per-channel B_j
    common::simd::AlignedVector<std::int32_t> shift;     // per-channel t_j
    const std::int32_t* lut = nullptr;  // shared 512-entry activation table
  };

  void pack_int8(const Mlp& mlp, const StandardScaler* scaler,
                 const QuantCalibration& calibration);

  std::size_t inputs_ = 0;
  std::size_t in_padded_ = 0;
  // Hidden layers, then the output dot column.
  std::vector<Int8Layer> int8_layers_;
  std::size_t max_channels_ = 0;  // widest layer, sizes Scratch buffers
  common::simd::AlignedVector<std::int8_t> out_w_;  // u7-dot weight column
  std::size_t out_n_ = 0;    // dot length (multiple of kQuantDotAlign)
  double out_scale_ = 0.0;   // sw of the output column
  double out_bias_ = 0.0;    // folded output bias
};

/// Quantized counterpart of BatchedEnsemble: packs every member once (with
/// the shared scaler folded in) and averages member outputs in fixed order,
/// so results are deterministic and chunking-independent.
class QuantizedEnsemble {
 public:
  /// Packs a fitted ensemble; throws std::invalid_argument if it is not
  /// fitted, if the calibration does not match the input width (or has
  /// hi < lo), or if the topology is outside the int8 restrictions. The
  /// SIMD backend is runtime-verified first (simd::ensure_verified).
  QuantizedEnsemble(const BaggingEnsemble& ensemble,
                    const QuantCalibration& calibration);

  [[nodiscard]] std::size_t input_width() const noexcept { return inputs_; }
  [[nodiscard]] std::size_t member_count() const noexcept {
    return members_.size();
  }
  [[nodiscard]] const QuantCalibration& calibration() const noexcept {
    return calibration_;
  }

  struct Scratch {
    QuantizedMlp::Scratch ms;
    // One chunk of quantized u7 input rows, quantized once and shared by
    // every member.
    common::simd::AlignedVector<std::uint8_t> qrows;
  };

  /// Mean member prediction for `rows` row-major raw-feature samples; out
  /// is resized to `rows`. Safe concurrently with distinct scratch.
  void predict_batch_into(const float* x, std::size_t rows,
                          std::vector<float>& out, Scratch& scratch) const;

 private:
  std::size_t inputs_ = 0;
  float inv_k_ = 0.0f;
  QuantCalibration calibration_;
  std::vector<float> inv_step_;  // per-feature 127 / (hi - lo), 0 if lo==hi
  std::vector<QuantizedMlp> members_;
};

}  // namespace pt::ml
