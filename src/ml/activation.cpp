#include "ml/activation.hpp"

#include <stdexcept>

#include "common/math.hpp"
#include "common/simd.hpp"

namespace pt::ml {

// Compiled with -ffp-contract=off like matrix.cpp: no operation here is
// fused, so the bias add rounds the same way on every backend. The
// sigmoid's exp is common::math::exp, whose lanes simd::exp(VecD)
// reproduces bit for bit, so the vector pass equals the scalar activate()
// on every element.

namespace {
namespace simd = common::simd;
using simd::VecD;
constexpr std::size_t kW = simd::kWidthD;
}  // namespace

double activate(Activation act, double x) noexcept {
  return act == Activation::kSigmoid ? 1.0 / (1.0 + common::math::exp(-x))
                                     : x;
}

void add_bias_activate(Activation act, std::span<const double> bias,
                       Matrix& m) {
  if (bias.size() != m.cols())
    throw std::invalid_argument("add_bias_activate: width mismatch");
  const std::size_t cols = m.cols();
  if (act == Activation::kLinear) {
    for (std::size_t r = 0; r < m.rows(); ++r) {
      double* const row = m.row(r).data();
      for (std::size_t c = 0; c < cols; ++c) row[c] += bias[c];
    }
    return;
  }
  // Per row, four columns at a time: bias add, negate, exp, 1 / (1 + e).
  // The last cols % 4 columns take the same operations one by one.
  const VecD one = VecD::broadcast(1.0);
  for (std::size_t r = 0; r < m.rows(); ++r) {
    double* const row = m.row(r).data();
    std::size_t c = 0;
    for (; c + kW <= cols; c += kW) {
      const VecD z =
          simd::add(VecD::load(row + c), VecD::load(bias.data() + c));
      const VecD e = simd::exp(simd::neg(z));
      simd::div(one, simd::add(one, e)).store(row + c);
    }
    for (; c < cols; ++c) row[c] = activate(act, row[c] + bias[c]);
  }
}

std::string to_string(Activation act) {
  return act == Activation::kSigmoid ? "sigmoid" : "linear";
}

Activation activation_from_string(const std::string& name) {
  if (name == "linear") return Activation::kLinear;
  if (name == "sigmoid") return Activation::kSigmoid;
  throw std::invalid_argument("unknown activation: " + name);
}

}  // namespace pt::ml
