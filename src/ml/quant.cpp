#include "ml/quant.hpp"

#include <algorithm>
#include <array>
#include <cassert>
#include <cmath>
#include <cstdlib>
#include <stdexcept>
#include <utility>

namespace pt::ml {

namespace simd = common::simd;

namespace {

// LUT geometry: 512 entries over pre-activation domain [-8, 8), so an index
// step is 1/32 in pre-activation units and the requantization shift must
// land the accumulator on idx = (y + 8) * 32.
constexpr std::int32_t kLutSize = 512;
constexpr double kLutPerUnit = 32.0;  // entries per pre-activation unit
// Hard cap on the per-channel requant shift: keeps the folded index bias
// B_j = (b''_j + 8) * 32 * 2^t comfortably inside int32 for any sane bias
// and bounds the quantization of near-zero weight columns.
constexpr std::int32_t kMaxShift = 18;
constexpr long long kMaxBiasIdx = 1LL << 29;

std::size_t round_up(std::size_t n, std::size_t align) {
  return (n + align - 1) / align * align;
}

double sigmoid_d(double y) { return 1.0 / (1.0 + std::exp(-y)); }

/// Entry k covers y in [-8 + k/32, -8 + (k+1)/32); evaluated at the
/// interval center, output scaled to u7 (0..127).
const std::int32_t* sigmoid_lut_u7() {
  static const auto table = [] {
    std::array<std::int32_t, kLutSize> t{};
    for (std::int32_t k = 0; k < kLutSize; ++k) {
      const double y = -8.0 + (static_cast<double>(k) + 0.5) / kLutPerUnit;
      t[static_cast<std::size_t>(k)] =
          static_cast<std::int32_t>(std::lround(sigmoid_d(y) * 127.0));
    }
    return t;
  }();
  return table.data();
}

/// tanh is evaluated as 2*sigmoid(2y) - 1 with the affine part folded into
/// the next layer's weights, so its table stores sigmoid(2y) as u7.
const std::int32_t* tanh_lut_u7() {
  static const auto table = [] {
    std::array<std::int32_t, kLutSize> t{};
    for (std::int32_t k = 0; k < kLutSize; ++k) {
      const double y = -8.0 + (static_cast<double>(k) + 0.5) / kLutPerUnit;
      t[static_cast<std::size_t>(k)] =
          static_cast<std::int32_t>(std::lround(sigmoid_d(2.0 * y) * 127.0));
    }
    return t;
  }();
  return table.data();
}

/// The u7 activation stored for `act` is u = sigmoid(.) in [0, 1]; the real
/// activation value is c1 * u + c0. That affine is folded into the consumer
/// layer's weights and bias.
void activation_affine(Activation act, double& c1, double& c0) {
  if (act == Activation::kSigmoid) {
    c1 = 1.0;
    c0 = 0.0;
  } else {
    assert(act == Activation::kTanh);
    c1 = 2.0;
    c0 = -1.0;
  }
}

/// Effective double-precision weights/bias of one layer after all pack-time
/// folds (scaler, calibration, previous-activation affine).
struct EffectiveLayer {
  std::size_t in = 0;     // real fan-in
  std::size_t units = 0;  // real unit count
  std::vector<double> w;  // (in, units) row-major
  std::vector<double> bias;
};

}  // namespace

QuantizedMlp::QuantizedMlp(const Mlp& mlp, const StandardScaler* scaler,
                           const QuantCalibration& calibration)
    : inputs_(mlp.input_size()) {
  if (scaler && scaler->width() != inputs_)
    throw std::invalid_argument(
        "QuantizedMlp: scaler width does not match network input width");
  if (calibration.width() != inputs_ ||
      calibration.hi.size() != calibration.lo.size())
    throw std::invalid_argument(
        "QuantizedMlp: int8 packing requires a calibration of network "
        "input width");
  pack_int8(mlp, scaler, calibration);
}

void QuantizedMlp::pack_int8(const Mlp& mlp, const StandardScaler* scaler,
                             const QuantCalibration& calibration) {
  const std::size_t nl = mlp.layer_count();
  if (nl < 2)
    throw std::invalid_argument(
        "QuantizedMlp: int8 requires at least one hidden layer");
  for (std::size_t l = 0; l + 1 < nl; ++l) {
    const Activation act = mlp.layers()[l].activation;
    if (act != Activation::kSigmoid && act != Activation::kTanh)
      throw std::invalid_argument(
          "QuantizedMlp: int8 supports sigmoid/tanh hidden layers only");
  }
  if (mlp.layers().back().activation != Activation::kLinear ||
      mlp.weights(nl - 1).cols() != 1)
    throw std::invalid_argument(
        "QuantizedMlp: int8 requires a single linear output");

  in_padded_ = round_up(inputs_, simd::kQuantInputQuad);

  // Stage 1: all pack-time folds in double. prev_channels tracks the padded
  // width the *packed* previous layer emits (its pad activations are zero
  // because pad weight rows below are zero).
  std::vector<EffectiveLayer> eff(nl);
  for (std::size_t l = 0; l < nl; ++l) {
    const Matrix& w = mlp.weights(l);
    const std::vector<double>& b = mlp.biases(l);
    EffectiveLayer& e = eff[l];
    e.in = w.rows();
    e.units = w.cols();
    e.w.assign(e.in * e.units, 0.0);
    e.bias.assign(e.units, 0.0);
    if (l == 0) {
      // Scaler fold, then calibration fold:
      //   W''[i][j] = s_i * W[i][j] / sd_i
      //   b''_j     = b_j + sum_i (lo_i - mean_i) * W[i][j] / sd_i
      const std::vector<double>* m = scaler ? &scaler->means() : nullptr;
      const std::vector<double>* sd = scaler ? &scaler->stddevs() : nullptr;
      for (std::size_t j = 0; j < e.units; ++j) {
        double bias = b[j];
        for (std::size_t i = 0; i < e.in; ++i) {
          const double wij = scaler ? w(i, j) / (*sd)[i] : w(i, j);
          const double lo = static_cast<double>(calibration.lo[i]);
          const double hi = static_cast<double>(calibration.hi[i]);
          const double step = (hi - lo) / 127.0;
          e.w[i * e.units + j] = step * wij;
          bias += (lo - (scaler ? (*m)[i] : 0.0)) * wij;
        }
        e.bias[j] = bias;
      }
    } else {
      // The previous layer's stored activation is u in [0, 1] scaled to u7;
      // fold u8 scale and the activation affine c1*u + c0 into this layer.
      double c1 = 1.0;
      double c0 = 0.0;
      activation_affine(mlp.layers()[l - 1].activation, c1, c0);
      for (std::size_t j = 0; j < e.units; ++j) {
        double bias = b[j];
        for (std::size_t i = 0; i < e.in; ++i) {
          e.w[i * e.units + j] = (c1 / 127.0) * w(i, j);
          bias += c0 * w(i, j);
        }
        e.bias[j] = bias;
      }
    }
  }

  // Stage 2: quantize the hidden layers to quad-interleaved s8 panels with
  // power-of-two per-channel scales and folded LUT index biases.
  int8_layers_.reserve(nl - 1);
  std::size_t prev_channels = in_padded_;
  for (std::size_t l = 0; l + 1 < nl; ++l) {
    const EffectiveLayer& e = eff[l];
    Int8Layer layer;
    layer.in = prev_channels;
    layer.channels = round_up(e.units, simd::kQuantDotAlign);
    layer.w.assign(layer.in * layer.channels, 0);
    layer.bias_idx.assign(layer.channels, 0);
    layer.shift.assign(layer.channels, 0);
    layer.lut = mlp.layers()[l].activation == Activation::kSigmoid
                    ? sigmoid_lut_u7()
                    : tanh_lut_u7();
    for (std::size_t j = 0; j < e.units; ++j) {
      double wmax = 0.0;
      for (std::size_t i = 0; i < e.in; ++i)
        wmax = std::max(wmax, std::fabs(e.w[i * e.units + j]));
      // Choose sw_j = 2^-(t+5) (so 32 * sw_j = 2^-t) as the largest
      // power-of-two step that still reaches wmax at |w_q| <= 127:
      // requantization to LUT index space becomes a plain shift by t.
      std::int32_t t = kMaxShift;
      if (wmax > 0.0)
        t = std::clamp(
            static_cast<std::int32_t>(
                std::floor(std::log2(127.0 / (32.0 * wmax)))),
            0, kMaxShift);
      long long bias_idx = std::llround((e.bias[j] + 8.0) * kLutPerUnit *
                                        std::ldexp(1.0, t));
      while (t > 0 && std::llabs(bias_idx) > kMaxBiasIdx) {
        --t;
        bias_idx = std::llround((e.bias[j] + 8.0) * kLutPerUnit *
                                std::ldexp(1.0, t));
      }
      // A bias this size saturates the activation regardless of the
      // accumulator; clamping keeps the int32 arithmetic safe.
      bias_idx = std::clamp(bias_idx, -kMaxBiasIdx, kMaxBiasIdx);
      const double sw = std::ldexp(1.0, -(t + 5));
      layer.shift[j] = t;
      layer.bias_idx[j] = static_cast<std::int32_t>(bias_idx);
      // Quad-interleaved panel: channel block base + input quad group
      // (see the gemv_u7s8 layout contract in common/simd.hpp).
      const std::size_t c0 = j / simd::kQuantChannelBlock *
                             simd::kQuantChannelBlock;
      const std::size_t jj = j % simd::kQuantChannelBlock;
      std::int8_t* block = layer.w.data() + c0 * layer.in;
      for (std::size_t i = 0; i < e.in; ++i) {
        const auto q = static_cast<std::int8_t>(std::clamp<long>(
            std::lround(e.w[i * e.units + j] / sw), -127L, 127L));
        block[i / simd::kQuantInputQuad * simd::kQuantInputQuad *
                  simd::kQuantChannelBlock +
              simd::kQuantInputQuad * jj + i % simd::kQuantInputQuad] = q;
      }
    }
    int8_layers_.push_back(std::move(layer));
    prev_channels = int8_layers_.back().channels;
    max_channels_ = std::max(max_channels_, prev_channels);
  }

  // Stage 3: the single linear output as a u7 dot column (float requant
  // scale — no LUT, so no power-of-two restriction).
  const EffectiveLayer& out = eff[nl - 1];
  out_n_ = prev_channels;
  out_w_.assign(out_n_, 0);
  double wmax = 0.0;
  for (std::size_t i = 0; i < out.in; ++i)
    wmax = std::max(wmax, std::fabs(out.w[i]));
  out_scale_ = wmax > 0.0 ? wmax / 127.0 : 1.0;
  for (std::size_t i = 0; i < out.in; ++i)
    out_w_[i] = static_cast<std::int8_t>(
        std::clamp<long>(std::lround(out.w[i] / out_scale_), -127L, 127L));
  out_bias_ = out.bias[0];
}

float QuantizedMlp::forward_int8(const std::uint8_t* qrow,
                                 Scratch& scratch) const {
  if (int8_layers_.size() == 1) {
    // Single hidden layer (the paper-default topology): fused kernel, no
    // intermediate buffers. Bit-identical to the generic path below.
    const Int8Layer& layer = int8_layers_.front();
    const std::int32_t dot = simd::forward1_u7s8(
        qrow, layer.w.data(), layer.in, layer.channels, layer.bias_idx.data(),
        layer.shift.data(), layer.lut, kLutSize, out_w_.data());
    return static_cast<float>(static_cast<double>(dot) * out_scale_ +
                              out_bias_);
  }
  if (scratch.qa.size() < max_channels_) scratch.qa.assign(max_channels_, 0);
  if (scratch.qb.size() < max_channels_) scratch.qb.assign(max_channels_, 0);
  if (scratch.acc.size() < max_channels_)
    scratch.acc.assign(max_channels_, 0);

  const std::uint8_t* cur = qrow;
  std::uint8_t* ping = scratch.qa.data();
  std::uint8_t* pong = scratch.qb.data();
  for (const Int8Layer& layer : int8_layers_) {
    simd::gemv_u7s8(cur, layer.w.data(), layer.in, layer.channels,
                    scratch.acc.data());
    simd::requant_lut_u8(scratch.acc.data(), layer.bias_idx.data(),
                         layer.shift.data(), layer.channels, layer.lut,
                         kLutSize, ping);
    cur = ping;
    std::swap(ping, pong);
  }
  const std::int32_t dot = simd::dot_u7s8(cur, out_w_.data(), out_n_);
  return static_cast<float>(static_cast<double>(dot) * out_scale_ +
                            out_bias_);
}

QuantizedEnsemble::QuantizedEnsemble(const BaggingEnsemble& ensemble,
                                     const QuantCalibration& calibration)
    : calibration_(calibration) {
  if (!ensemble.fitted())
    throw std::invalid_argument("QuantizedEnsemble: ensemble is not fitted");
  simd::ensure_verified();
  inputs_ = ensemble.member(0).input_size();
  inv_k_ = 1.0f / static_cast<float>(ensemble.member_count());
  if (calibration_.width() != inputs_)
    throw std::invalid_argument(
        "QuantizedEnsemble: int8 requires a calibration of input width");
  inv_step_.resize(inputs_);
  for (std::size_t i = 0; i < inputs_; ++i) {
    const float lo = calibration_.lo[i];
    const float hi = calibration_.hi[i];
    if (!(hi >= lo))
      throw std::invalid_argument(
          "QuantizedEnsemble: calibration range with hi < lo");
    inv_step_[i] = hi > lo ? 127.0f / (hi - lo) : 0.0f;
  }
  const StandardScaler* scaler =
      ensemble.scaler().fitted() ? &ensemble.scaler() : nullptr;
  members_.reserve(ensemble.member_count());
  for (std::size_t i = 0; i < ensemble.member_count(); ++i)
    members_.emplace_back(ensemble.member(i), scaler, calibration_);
}

void QuantizedEnsemble::predict_batch_into(const float* x, std::size_t rows,
                                           std::vector<float>& out,
                                           Scratch& scratch) const {
  out.assign(rows, 0.0f);
  if (scratch.ms.member.size() < rows) scratch.ms.member.resize(rows);
  // Quantize the chunk once (shared by every member): u7 activations,
  // saturating at the calibration edges. quantize_u7 rounds to nearest
  // even, fixed across backends.
  const std::size_t qw = members_.front().quantized_input_width();
  if (scratch.qrows.size() < rows * qw) scratch.qrows.resize(rows * qw);
  for (std::size_t r = 0; r < rows; ++r) {
    const float* xr = x + r * inputs_;
    std::uint8_t* qr = scratch.qrows.data() + r * qw;
    simd::quantize_u7(xr, calibration_.lo.data(), inv_step_.data(), inputs_,
                      qr);
    for (std::size_t i = inputs_; i < qw; ++i) qr[i] = 0;
  }
  for (const QuantizedMlp& member : members_) {
    for (std::size_t r = 0; r < rows; ++r)
      scratch.ms.member[r] =
          member.forward_int8(scratch.qrows.data() + r * qw, scratch.ms);
    for (std::size_t r = 0; r < rows; ++r) out[r] += scratch.ms.member[r];
  }
  for (std::size_t r = 0; r < rows; ++r) out[r] *= inv_k_;
}

}  // namespace pt::ml
