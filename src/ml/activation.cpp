#include "ml/activation.hpp"

#include <cmath>
#include <stdexcept>

#include "common/simd.hpp"

namespace pt::ml {

// Compiled with -ffp-contract=off like matrix.cpp: the tanh derivative's
// 1 - y*y is the one fused operation, and it is written as std::fma.

namespace {
namespace simd = common::simd;
using simd::VecD;
constexpr std::size_t kW = simd::kWidthD;
}  // namespace

double activate(Activation act, double x) noexcept {
  switch (act) {
    case Activation::kLinear: return x;
    case Activation::kSigmoid: return 1.0 / (1.0 + std::exp(-x));
    case Activation::kTanh: return std::tanh(x);
    case Activation::kRelu: return x > 0.0 ? x : 0.0;
  }
  return x;
}

double activate_grad_from_output(Activation act, double y) noexcept {
  switch (act) {
    case Activation::kLinear: return 1.0;
    case Activation::kSigmoid: return y * (1.0 - y);
    case Activation::kTanh: return std::fma(-y, y, 1.0);
    case Activation::kRelu: return y > 0.0 ? 1.0 : 0.0;
  }
  return 1.0;
}

void add_bias_activate(Activation act, std::span<const double> bias,
                       Matrix& m) {
  if (bias.size() != m.cols())
    throw std::invalid_argument("add_bias_activate: width mismatch");
  const std::size_t cols = m.cols();
  if (act != Activation::kSigmoid) {
    for (std::size_t r = 0; r < m.rows(); ++r) {
      double* const row = m.row(r).data();
      for (std::size_t c = 0; c < cols; ++c)
        row[c] = activate(act, row[c] + bias[c]);
    }
    return;
  }
  // Per row: libm exp one element at a time, then 1 / (1 + e) four at a
  // time.
  const VecD one = VecD::broadcast(1.0);
  for (std::size_t r = 0; r < m.rows(); ++r) {
    double* const row = m.row(r).data();
    for (std::size_t c = 0; c < cols; ++c)
      row[c] = std::exp(-(row[c] + bias[c]));
    std::size_t c = 0;
    for (; c + kW <= cols; c += kW)
      simd::div(one, simd::add(one, VecD::load(row + c))).store(row + c);
    for (; c < cols; ++c) row[c] = 1.0 / (1.0 + row[c]);
  }
}

void scale_by_activation_grad(Activation act, const Matrix& y,
                              Matrix& delta) noexcept {
  if (act == Activation::kLinear) return;
  const double* const fy = y.flat().data();
  double* const fd = delta.flat().data();
  const std::size_t n = delta.size();
  std::size_t i = 0;
  if (act == Activation::kSigmoid) {
    const VecD one = VecD::broadcast(1.0);
    for (; i + kW <= n; i += kW) {
      const VecD yv = VecD::load(fy + i);
      const VecD grad = simd::mul(yv, simd::sub(one, yv));
      simd::mul(VecD::load(fd + i), grad).store(fd + i);
    }
  }
  for (; i < n; ++i) fd[i] *= activate_grad_from_output(act, fy[i]);
}

std::string to_string(Activation act) {
  switch (act) {
    case Activation::kLinear: return "linear";
    case Activation::kSigmoid: return "sigmoid";
    case Activation::kTanh: return "tanh";
    case Activation::kRelu: return "relu";
  }
  return "unknown";
}

Activation activation_from_string(const std::string& name) {
  if (name == "linear") return Activation::kLinear;
  if (name == "sigmoid") return Activation::kSigmoid;
  if (name == "tanh") return Activation::kTanh;
  if (name == "relu") return Activation::kRelu;
  throw std::invalid_argument("unknown activation: " + name);
}

}  // namespace pt::ml
