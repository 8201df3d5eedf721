#pragma once

// The members' trainer: iRprop- (resilient backpropagation without
// weight-backtracking). It is full-batch, step-size adaptive, and robust to
// the wide dynamic range of log-time targets — well suited to the paper's
// small networks (tens of hidden units, a few thousand samples). Each epoch
// is one fused pass (ml/member.hpp) followed by the update; the fit
// stops early on a held-out validation slice and restores the best weights
// seen.

#include <cstddef>
#include <vector>

#include "common/rng.hpp"
#include "ml/dataset.hpp"
#include "ml/member.hpp"

namespace pt::ml {

struct TrainOptions {
  std::size_t max_epochs = 800;
  /// Fraction of the data held out for early stopping; 0 disables the
  /// validation split (training loss is monitored instead).
  double validation_fraction = 0.15;
  /// Early stop after this many epochs without (min_improvement) progress on
  /// the monitored loss; 0 disables early stopping.
  std::size_t patience = 100;
  double min_improvement = 1e-5;
};

struct TrainResult {
  std::vector<double> train_loss;       // per epoch
  std::vector<double> monitored_loss;   // validation (or train) per epoch
  std::size_t epochs = 0;
  double best_loss = 0.0;               // best monitored loss
  bool early_stopped = false;
};

/// iRprop- : per-parameter adaptive step sizes, full-batch gradients.
class RpropTrainer {
 public:
  struct Options {
    TrainOptions common;
    double initial_step = 0.05;
    double eta_plus = 1.2;
    double eta_minus = 0.5;
    double step_min = 1e-8;
    double step_max = 5.0;
  };

  RpropTrainer() = default;
  explicit RpropTrainer(Options options) : options_(options) {}

  /// Fit `member` on `data` (one target) in place. Throws
  /// std::invalid_argument for an empty dataset or one of another width.
  TrainResult train(Member& member, const Dataset& data,
                    common::Rng& rng) const;

 private:
  Options options_{};
};

}  // namespace pt::ml
