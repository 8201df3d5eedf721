#include "ml/trainer.hpp"

#include <algorithm>
#include <limits>
#include <stdexcept>

#include "common/telemetry/telemetry.hpp"

namespace pt::ml {

TrainResult RpropTrainer::train(Member& member, const Dataset& data,
                                common::Rng& rng) const {
  const TrainOptions& options = options_.common;
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

  // Per-parameter state in the member's layout: step size and previous
  // gradient. Pad entries have gradient +0.0, so they never move.
  const std::span<double> theta = member.flat();
  std::vector<double> grads;
  std::vector<double> steps(theta.size(), options_.initial_step);
  std::vector<double> prev_grad(theta.size(), 0.0);
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

  TrainResult result;
  double best = std::numeric_limits<double>::infinity();
  std::size_t since_best = 0;
  std::vector<double> best_theta;  // restored before returning
  for (std::size_t epoch = 0; epoch < options.max_epochs; ++epoch) {
    const double train_loss =
        member_epoch(member, train_set.x, train_set.y, grads);
    for (std::size_t i = 0; i < theta.size(); ++i)
      update_param(theta[i], grads[i], steps[i], prev_grad[i]);
    const double monitored =
        monitor_validation ? member_loss(member, val_set.x, val_set.y)
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
      best_theta.assign(theta.begin(), theta.end());
    } else {
      ++since_best;
      if (options.patience > 0 && since_best >= options.patience) {
        result.early_stopped = true;
        break;
      }
    }
  }
  if (!best_theta.empty())
    std::copy(best_theta.begin(), best_theta.end(), theta.begin());
  result.best_loss = best;
  return result;
}

}  // namespace pt::ml
