#include "ml/trainer.hpp"

#include <algorithm>
#include <limits>
#include <stdexcept>

#include "common/telemetry/telemetry.hpp"

namespace pt::ml {

namespace {

/// The epoch loop around the Rprop update: validation split, early
/// stopping, best-weight snapshot/restore. `epoch_fn(train_set, scratch)`
/// performs one training epoch and returns the epoch's training loss; the
/// scratch buffers (shared with the validation loss) live across epochs.
template <typename EpochFn>
TrainResult run_epochs(Mlp& net, const Dataset& data,
                       const TrainOptions& options, common::Rng& rng,
                       EpochFn&& epoch_fn) {
  data.validate();
  if (data.size() == 0) throw std::invalid_argument("train: empty dataset");

  Dataset train_set;
  Dataset val_set;
  const bool use_validation =
      options.validation_fraction > 0.0 &&
      static_cast<std::size_t>(static_cast<double>(data.size()) *
                               options.validation_fraction) >= 1;
  if (use_validation) {
    Split split =
        train_validation_split(data, 1.0 - options.validation_fraction, rng);
    train_set = std::move(split.train);
    val_set = std::move(split.validation);
    if (train_set.size() == 0) {
      train_set = data;
      val_set = Dataset{};
    }
  } else {
    train_set = data;
  }
  const bool monitor_validation = val_set.size() > 0;

  TrainResult result;
  BatchScratch scratch;
  double best = std::numeric_limits<double>::infinity();
  std::size_t since_best = 0;

  // Snapshot of the best weights seen (restored before returning). Copy
  // assignment reuses the snapshot's storage after the first one.
  std::vector<Matrix> best_weights;
  std::vector<std::vector<double>> best_biases;
  auto snapshot = [&] {
    best_weights.resize(net.layer_count());
    best_biases.resize(net.layer_count());
    for (std::size_t l = 0; l < net.layer_count(); ++l) {
      best_weights[l] = net.weights(l);
      best_biases[l] = net.biases(l);
    }
  };
  auto restore = [&] {
    if (best_weights.empty()) return;
    for (std::size_t l = 0; l < net.layer_count(); ++l) {
      net.weights(l) = best_weights[l];
      net.biases(l) = best_biases[l];
    }
  };

  for (std::size_t epoch = 0; epoch < options.max_epochs; ++epoch) {
    const double train_loss = epoch_fn(train_set, scratch);
    const double monitored = monitor_validation
                                 ? net.loss(val_set.x, val_set.y, scratch)
                                 : train_loss;
    result.train_loss.push_back(train_loss);
    result.monitored_loss.push_back(monitored);
    ++result.epochs;
    if (common::telemetry::enabled()) {
      common::telemetry::gauge("ml.train.loss", train_loss);
      common::telemetry::value("ml.train.epoch_loss", train_loss);
    }

    if (monitored < best - options.min_improvement) {
      best = monitored;
      since_best = 0;
      snapshot();
    } else {
      ++since_best;
      if (options.patience > 0 && since_best >= options.patience) {
        result.early_stopped = true;
        break;
      }
    }
  }
  restore();
  result.best_loss = best;
  return result;
}

}  // namespace

TrainResult RpropTrainer::train(Mlp& net, const Dataset& data,
                                common::Rng& rng) const {
  // Per-parameter state: step size and previous gradient sign, stored in
  // gradient-shaped structures.
  Gradients steps = net.make_gradients();
  Gradients prev_grad = net.make_gradients();
  for (auto& w : steps.weights) w.fill(options_.initial_step);
  for (auto& b : steps.biases)
    for (auto& x : b) x = options_.initial_step;

  Gradients grads = net.make_gradients();

  auto update_param = [&](double& param, double grad, double& step,
                          double& prev) {
    const double sign_product = grad * prev;
    if (sign_product > 0.0) {
      step = std::min(step * options_.eta_plus, options_.step_max);
    } else if (sign_product < 0.0) {
      step = std::max(step * options_.eta_minus, options_.step_min);
      grad = 0.0;  // iRprop-: suppress the update after a sign change
    }
    if (grad > 0.0) {
      param -= step;
    } else if (grad < 0.0) {
      param += step;
    }
    prev = grad;
  };

  auto epoch_fn = [&](const Dataset& train_set, BatchScratch& scratch) {
    const double loss =
        net.backward_batch(train_set.x, train_set.y, grads, scratch);
    for (std::size_t l = 0; l < net.layer_count(); ++l) {
      auto wf = net.weights(l).flat();
      auto gf = grads.weights[l].flat();
      auto sf = steps.weights[l].flat();
      auto pf = prev_grad.weights[l].flat();
      for (std::size_t i = 0; i < wf.size(); ++i)
        update_param(wf[i], gf[i], sf[i], pf[i]);
      auto& bias = net.biases(l);
      auto& gb = grads.biases[l];
      auto& sb = steps.biases[l];
      auto& pb = prev_grad.biases[l];
      for (std::size_t i = 0; i < bias.size(); ++i)
        update_param(bias[i], gb[i], sb[i], pb[i]);
    }
    return loss;
  };
  return run_epochs(net, data, options_.common, rng, epoch_fn);
}

}  // namespace pt::ml
