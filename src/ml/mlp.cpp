#include "ml/mlp.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <utility>

namespace pt::ml {

bool is_member_shape(const std::vector<LayerSpec>& layers) noexcept {
  return layers.size() == 2 && layers[0].units > 0 &&
         layers[0].activation == Activation::kSigmoid &&
         layers[1].units == 1 && layers[1].activation == Activation::kLinear;
}

Mlp::Mlp(std::size_t inputs, std::vector<LayerSpec> layers)
    : inputs_(inputs), layers_(std::move(layers)) {
  if (inputs_ == 0) throw std::invalid_argument("Mlp: zero inputs");
  if (layers_.empty()) throw std::invalid_argument("Mlp: no layers");
  std::size_t fan_in = inputs_;
  for (const auto& spec : layers_) {
    if (spec.units == 0) throw std::invalid_argument("Mlp: zero-unit layer");
    weights_.emplace_back(fan_in, spec.units);
    biases_.emplace_back(spec.units, 0.0);
    fan_in = spec.units;
  }
}

void Mlp::init_weights(common::Rng& rng) {
  for (std::size_t l = 0; l < weights_.size(); ++l) {
    auto& w = weights_[l];
    const double limit =
        std::sqrt(6.0 / static_cast<double>(w.rows() + w.cols()));
    for (auto& x : w.flat()) x = rng.uniform(-limit, limit);
    for (auto& b : biases_[l]) b = 0.0;
  }
}

std::size_t Mlp::parameter_count() const noexcept {
  std::size_t n = 0;
  for (std::size_t l = 0; l < weights_.size(); ++l)
    n += weights_[l].size() + biases_[l].size();
  return n;
}

std::vector<double> Mlp::forward(std::span<const double> x) const {
  if (x.size() != inputs_) throw std::invalid_argument("Mlp::forward: width");
  Matrix row(1, inputs_);
  std::copy(x.begin(), x.end(), row.flat().begin());
  Matrix scratch_a;
  Matrix scratch_b;
  const auto y = forward_batch_into(row, scratch_a, scratch_b).flat();
  return {y.begin(), y.end()};
}

Matrix Mlp::forward_batch(const Matrix& x) const {
  Matrix scratch_a;
  Matrix scratch_b;
  Matrix& result = forward_batch_into(x, scratch_a, scratch_b);
  return std::move(result);
}

Matrix& Mlp::forward_batch_into(const Matrix& x, Matrix& scratch_a,
                                Matrix& scratch_b) const {
  if (x.cols() != inputs_)
    throw std::invalid_argument("Mlp::forward_batch: width mismatch");
  const Matrix* cur = &x;
  Matrix* bufs[2] = {&scratch_a, &scratch_b};
  std::size_t which = 0;
  Matrix* last = bufs[0];  // layers_ is never empty (checked in constructor)
  for (std::size_t l = 0; l < layers_.size(); ++l) {
    Matrix* next = bufs[which];
    which ^= 1;
    matmul(*cur, weights_[l], *next);
    add_bias_activate(layers_[l].activation, biases_[l], *next);
    cur = next;
    last = next;
  }
  return *last;
}

}  // namespace pt::ml
