#include "ml/trainer.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "ml/member.hpp"

namespace pt::ml {
namespace {

/// y = sin(2x0) + 0.5*x1 on [-1,1]^2 — smooth, learnable regression target.
Dataset make_regression(std::size_t n, common::Rng& rng) {
  Dataset d;
  d.x = Matrix(n, 2);
  d.y = Matrix(n, 1);
  for (std::size_t i = 0; i < n; ++i) {
    const double x0 = rng.uniform(-1.0, 1.0);
    const double x1 = rng.uniform(-1.0, 1.0);
    d.x(i, 0) = x0;
    d.x(i, 1) = x1;
    d.y(i, 0) = std::sin(2.0 * x0) + 0.5 * x1;
  }
  return d;
}

Member make_net(common::Rng& rng) {
  Member net(2, 16);
  net.init_weights(rng);
  return net;
}

TEST(Trainer, FitsSmoothRegression) {
  common::Rng rng(42);
  const Dataset train = make_regression(400, rng);
  const Dataset test = make_regression(100, rng);
  Member net = make_net(rng);
  const double loss_before = member_loss(net, test.x, test.y);

  const TrainResult result = RpropTrainer().train(net, train, rng);
  EXPECT_GT(result.epochs, 0u);

  const double loss_after = member_loss(net, test.x, test.y);
  EXPECT_LT(loss_after, loss_before * 0.2)
      << loss_before << " -> " << loss_after;
  EXPECT_LT(loss_after, 0.02);
}

TEST(Trainer, LossHistoryMostlyDecreases) {
  common::Rng rng(1);
  const Dataset train = make_regression(300, rng);
  Member net = make_net(rng);
  const RpropTrainer trainer;
  const TrainResult result = trainer.train(net, train, rng);
  ASSERT_GE(result.train_loss.size(), 10u);
  EXPECT_LT(result.train_loss.back(), result.train_loss.front());
  EXPECT_EQ(result.train_loss.size(), result.monitored_loss.size());
}

TEST(Trainer, EarlyStoppingTriggers) {
  common::Rng rng(2);
  const Dataset train = make_regression(200, rng);
  Member net = make_net(rng);
  RpropTrainer::Options opts;
  opts.common.max_epochs = 100000;  // would run forever without a stop
  opts.common.patience = 20;
  const RpropTrainer trainer(opts);
  const TrainResult result = trainer.train(net, train, rng);
  EXPECT_TRUE(result.early_stopped);
  EXPECT_LT(result.epochs, 100000u);
}

TEST(Trainer, RespectsMaxEpochs) {
  common::Rng rng(3);
  const Dataset train = make_regression(100, rng);
  Member net = make_net(rng);
  RpropTrainer::Options opts;
  opts.common.max_epochs = 7;
  opts.common.patience = 0;  // disabled
  const RpropTrainer trainer(opts);
  const TrainResult result = trainer.train(net, train, rng);
  EXPECT_EQ(result.epochs, 7u);
}

TEST(Trainer, BestLossIsMinimumOfMonitored) {
  common::Rng rng(4);
  const Dataset train = make_regression(200, rng);
  Member net = make_net(rng);
  const RpropTrainer trainer;
  const TrainResult result = trainer.train(net, train, rng);
  double min_monitored = result.monitored_loss.front();
  for (double l : result.monitored_loss)
    min_monitored = std::min(min_monitored, l);
  // best_loss only advances on improvements larger than min_improvement,
  // so it may trail the exact minimum by up to that threshold.
  EXPECT_GE(result.best_loss, min_monitored);
  EXPECT_LE(result.best_loss, min_monitored + 1e-5 + 1e-12);
}

TEST(Trainer, NoValidationSplitMonitorsTrainLoss) {
  common::Rng rng(5);
  const Dataset train = make_regression(100, rng);
  Member net = make_net(rng);
  RpropTrainer::Options opts;
  opts.common.validation_fraction = 0.0;
  opts.common.max_epochs = 50;
  const RpropTrainer trainer(opts);
  const TrainResult result = trainer.train(net, train, rng);
  for (std::size_t i = 0; i < result.epochs; ++i)
    EXPECT_DOUBLE_EQ(result.train_loss[i], result.monitored_loss[i]);
}

TEST(Trainer, EmptyDatasetThrows) {
  common::Rng rng(6);
  Member net = make_net(rng);
  const Dataset empty;
  const RpropTrainer trainer;
  EXPECT_THROW(trainer.train(net, empty, rng), std::invalid_argument);
}

// Data of another width is rejected before the member is touched.
TEST(Trainer, RejectsDataOfAnotherWidth) {
  common::Rng rng(9);
  const Dataset train = make_regression(20, rng);
  Member net(3, 4);
  net.init_weights(rng);
  const std::vector<double> before(net.flat().begin(), net.flat().end());
  EXPECT_THROW(RpropTrainer().train(net, train, rng), std::invalid_argument);
  for (std::size_t i = 0; i < before.size(); ++i)
    EXPECT_EQ(net.flat()[i], before[i]);
}

TEST(Trainer, TinyDatasetStillTrains) {
  common::Rng rng(8);
  const Dataset train = make_regression(3, rng);
  Member net = make_net(rng);
  const RpropTrainer trainer;
  EXPECT_NO_THROW(trainer.train(net, train, rng));
}

}  // namespace
}  // namespace pt::ml
