#include "ml/mlp.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <utility>

namespace pt::ml {

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

double Mlp::backward_batch(const Matrix& x, const Matrix& target,
                           Gradients& grads) const {
  BatchScratch scratch;
  return backward_batch(x, target, grads, scratch);
}

double Mlp::backward_batch(const Matrix& x, const Matrix& target,
                           Gradients& grads, BatchScratch& scratch) const {
  if (x.cols() != inputs_)
    throw std::invalid_argument("Mlp::backward_batch: input width");
  if (target.rows() != x.rows() || target.cols() != output_size())
    throw std::invalid_argument("Mlp::backward_batch: target shape");
  const std::size_t depth = layers_.size();
  const double n = static_cast<double>(x.rows());

  // Forward pass, caching every layer's activated output.
  auto& outputs = scratch.outputs;
  outputs.resize(depth);
  {
    const Matrix* cur = &x;
    for (std::size_t l = 0; l < depth; ++l) {
      matmul(*cur, weights_[l], outputs[l]);
      add_bias_activate(layers_[l].activation, biases_[l], outputs[l]);
      cur = &outputs[l];
    }
  }

  // Loss and output delta: dL/dy = 2 (y - t) / N.
  const Matrix& y = outputs[depth - 1];
  const double loss = squared_error_sum(y, target) / n;
  Matrix& delta = scratch.delta;
  delta.resize(y.rows(), y.cols());
  {
    const auto fy = y.flat();
    const auto ft = target.flat();
    auto fd = delta.flat();
    for (std::size_t i = 0; i < fd.size(); ++i)
      fd[i] = 2.0 * (fy[i] - ft[i]) / n;
  }

  // Backward pass.
  if (grads.weights.size() != depth) grads = make_gradients();
  for (std::size_t li = depth; li-- > 0;) {
    scale_by_activation_grad(layers_[li].activation, outputs[li], delta);
    const Matrix& below = (li == 0) ? x : outputs[li - 1];
    matmul_at(below, delta, grads.weights[li]);
    column_sums(delta, grads.biases[li]);
    if (li > 0) {
      matmul_bt(delta, weights_[li], scratch.delta_next);
      std::swap(delta, scratch.delta_next);
    }
  }
  return loss;
}

double Mlp::loss(const Matrix& x, const Matrix& target) const {
  BatchScratch scratch;
  return loss(x, target, scratch);
}

double Mlp::loss(const Matrix& x, const Matrix& target,
                 BatchScratch& scratch) const {
  const Matrix& y =
      forward_batch_into(x, scratch.delta, scratch.delta_next);
  if (!y.same_shape(target))
    throw std::invalid_argument("Mlp::loss: target shape");
  return squared_error_sum(y, target) / static_cast<double>(x.rows());
}

Gradients Mlp::make_gradients() const {
  Gradients g;
  g.weights.reserve(layers_.size());
  g.biases.reserve(layers_.size());
  for (std::size_t l = 0; l < layers_.size(); ++l) {
    g.weights.emplace_back(weights_[l].rows(), weights_[l].cols());
    g.biases.emplace_back(biases_[l].size(), 0.0);
  }
  return g;
}

}  // namespace pt::ml
