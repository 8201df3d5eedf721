#include "training_reference.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "common/math.hpp"

namespace pt::ml::reference {

namespace {

/// s + x[0]*y[0] + ... in order: each product rounded before its add,
/// except that an odd count ends with one fma.
double ordered_dot(const double* x, const double* y, std::size_t n, double s) {
  for (std::size_t e = 0; e < n; ++e) {
    if (e + 1 == n && n % 2 == 1)
      s = std::fma(x[e], y[e], s);
    else
      s = s + x[e] * y[e];
  }
  return s;
}

double activate_ref(Activation act, double x) {
  return act == Activation::kSigmoid ? 1.0 / (1.0 + common::math::exp(-x))
                                     : x;
}

double grad_from_output_ref(Activation act, double y) {
  return act == Activation::kSigmoid ? y * (1.0 - y) : 1.0;
}

}  // namespace

Gradients make_gradients(const Mlp& net) {
  Gradients g;
  for (std::size_t l = 0; l < net.layer_count(); ++l) {
    g.weights.emplace_back(net.weights(l).rows(), net.weights(l).cols());
    g.biases.emplace_back(net.biases(l).size(), 0.0);
  }
  return g;
}

Matrix matmul(const Matrix& a, const Matrix& b) {
  Matrix out(a.rows(), b.cols());
  for (std::size_t i = 0; i < a.rows(); ++i)
    for (std::size_t j = 0; j < b.cols(); ++j) {
      double acc = 0.0;
      for (std::size_t k = 0; k < a.cols(); ++k)
        acc = std::fma(a(i, k), b(k, j), acc);
      out(i, j) = acc;
    }
  return out;
}

Matrix matmul_at(const Matrix& a, const Matrix& b) {
  Matrix out(a.cols(), b.cols());
  for (std::size_t i = 0; i < a.cols(); ++i)
    for (std::size_t j = 0; j < b.cols(); ++j) {
      double acc = 0.0;
      for (std::size_t k = 0; k < a.rows(); ++k)
        acc = std::fma(a(k, i), b(k, j), acc);
      out(i, j) = acc;
    }
  return out;
}

Matrix matmul_bt(const Matrix& a, const Matrix& b) {
  Matrix out(a.rows(), b.rows());
  const std::size_t kk = a.cols();
  const std::size_t k4 = kk - kk % 4;
  for (std::size_t i = 0; i < a.rows(); ++i)
    for (std::size_t j = 0; j < b.rows(); ++j) {
      double lane[4] = {0.0, 0.0, 0.0, 0.0};
      for (std::size_t k = 0; k < k4; ++k)
        lane[k % 4] = std::fma(a(i, k), b(j, k), lane[k % 4]);
      const double head = (lane[0] + lane[1]) + (lane[2] + lane[3]);
      out(i, j) = ordered_dot(a.row(i).data() + k4, b.row(j).data() + k4,
                              kk - k4, head);
    }
  return out;
}

double squared_error_sum(const Matrix& y, const Matrix& target) {
  std::vector<double> diff(y.size());
  for (std::size_t e = 0; e < diff.size(); ++e)
    diff[e] = y.flat()[e] - target.flat()[e];
  return ordered_dot(diff.data(), diff.data(), diff.size(), 0.0);
}

std::vector<Matrix> forward_layers(const Mlp& net, const Matrix& x) {
  std::vector<Matrix> outputs;
  const Matrix* cur = &x;
  for (std::size_t l = 0; l < net.layer_count(); ++l) {
    Matrix z = matmul(*cur, net.weights(l));
    for (std::size_t r = 0; r < z.rows(); ++r)
      for (std::size_t c = 0; c < z.cols(); ++c)
        z(r, c) = activate_ref(net.layers()[l].activation,
                               z(r, c) + net.biases(l)[c]);
    outputs.push_back(std::move(z));
    cur = &outputs.back();
  }
  return outputs;
}

double loss(const Mlp& net, const Matrix& x, const Matrix& target) {
  const Matrix y = forward_layers(net, x).back();
  return reference::squared_error_sum(y, target) /
         static_cast<double>(x.rows());
}

double backward_batch(const Mlp& net, const Matrix& x, const Matrix& target,
                      Gradients& grads) {
  const std::size_t depth = net.layer_count();
  const double n = static_cast<double>(x.rows());
  const std::vector<Matrix> outputs = forward_layers(net, x);
  const double loss_value =
      reference::squared_error_sum(outputs.back(), target) / n;

  Matrix delta = outputs.back();
  for (std::size_t e = 0; e < delta.size(); ++e)
    delta.flat()[e] = 2.0 * (delta.flat()[e] - target.flat()[e]) / n;

  grads = make_gradients(net);
  for (std::size_t li = depth; li-- > 0;) {
    const Activation act = net.layers()[li].activation;
    if (act != Activation::kLinear)
      for (std::size_t e = 0; e < delta.size(); ++e)
        delta.flat()[e] *= grad_from_output_ref(act, outputs[li].flat()[e]);
    const Matrix& below = li == 0 ? x : outputs[li - 1];
    grads.weights[li] = matmul_at(below, delta);
    for (std::size_t c = 0; c < delta.cols(); ++c) {
      double sum = 0.0;
      for (std::size_t r = 0; r < delta.rows(); ++r) sum += delta(r, c);
      grads.biases[li][c] = sum;
    }
    if (li > 0) delta = matmul_bt(delta, net.weights(li));
  }
  return loss_value;
}

TrainResult train_rprop(Mlp& net, const Dataset& data,
                        const RpropTrainer::Options& options,
                        common::Rng& rng) {
  const TrainOptions& common_options = options.common;
  Dataset train_set = data;
  Dataset val_set;
  if (common_options.validation_fraction > 0.0 &&
      static_cast<std::size_t>(static_cast<double>(data.size()) *
                               common_options.validation_fraction) >= 1) {
    Split split = train_validation_split(
        data, 1.0 - common_options.validation_fraction, rng);
    if (split.train.size() > 0) {
      train_set = std::move(split.train);
      val_set = std::move(split.validation);
    }
  }

  Gradients steps = make_gradients(net);
  Gradients prev = make_gradients(net);
  for (auto& w : steps.weights) w.fill(options.initial_step);
  for (auto& b : steps.biases)
    std::fill(b.begin(), b.end(), options.initial_step);
  const auto update = [&](double& param, double grad, double& step,
                          double& prev_grad) {
    const double sign = grad * prev_grad;
    if (sign > 0.0) {
      step = std::min(step * options.eta_plus, options.step_max);
    } else if (sign < 0.0) {
      step = std::max(step * options.eta_minus, options.step_min);
      grad = 0.0;
    }
    if (grad > 0.0) param -= step;
    else if (grad < 0.0) param += step;
    prev_grad = grad;
  };

  TrainResult result;
  double best = std::numeric_limits<double>::infinity();
  std::size_t since_best = 0;
  std::vector<Matrix> best_weights;
  std::vector<std::vector<double>> best_biases;
  for (std::size_t epoch = 0; epoch < common_options.max_epochs; ++epoch) {
    Gradients grads;
    const double train_loss =
        backward_batch(net, train_set.x, train_set.y, grads);
    for (std::size_t l = 0; l < net.layer_count(); ++l) {
      for (std::size_t i = 0; i < net.weights(l).size(); ++i)
        update(net.weights(l).flat()[i], grads.weights[l].flat()[i],
               steps.weights[l].flat()[i], prev.weights[l].flat()[i]);
      for (std::size_t i = 0; i < net.biases(l).size(); ++i)
        update(net.biases(l)[i], grads.biases[l][i], steps.biases[l][i],
               prev.biases[l][i]);
    }
    const double monitored = val_set.size() > 0
                                 ? loss(net, val_set.x, val_set.y)
                                 : train_loss;
    result.train_loss.push_back(train_loss);
    result.monitored_loss.push_back(monitored);
    ++result.epochs;
    if (monitored < best - common_options.min_improvement) {
      best = monitored;
      since_best = 0;
      best_weights.clear();
      best_biases.clear();
      for (std::size_t l = 0; l < net.layer_count(); ++l) {
        best_weights.push_back(net.weights(l));
        best_biases.push_back(net.biases(l));
      }
    } else if (common_options.patience > 0 &&
               ++since_best >= common_options.patience) {
      result.early_stopped = true;
      break;
    }
  }
  for (std::size_t l = 0; l < best_weights.size(); ++l) {
    net.weights(l) = best_weights[l];
    net.biases(l) = best_biases[l];
  }
  result.best_loss = best;
  return result;
}

}  // namespace pt::ml::reference
