// Bit-identity of the fp64 training path: the register-blocked kernels,
// fused bias/activation passes and reused buffers must reproduce the
// element-by-element reference forms (training_reference.hpp) exactly, so
// trained weights, epoch counts and every tuning decision do not move.

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <vector>

#include "common/rng.hpp"
#include "common/thread_pool.hpp"
#include "ml/ensemble.hpp"
#include "ml/trainer.hpp"
#include "training_reference.hpp"

namespace pt::ml {
namespace {

std::uint64_t bits(double x) { return std::bit_cast<std::uint64_t>(x); }

void expect_same(const Matrix& got, const Matrix& want, const char* what) {
  ASSERT_TRUE(got.same_shape(want)) << what;
  for (std::size_t i = 0; i < got.size(); ++i)
    ASSERT_EQ(bits(got.flat()[i]), bits(want.flat()[i])) << what << " @" << i;
}

void expect_same_weights(const Mlp& got, const Mlp& want) {
  ASSERT_EQ(got.layer_count(), want.layer_count());
  for (std::size_t l = 0; l < got.layer_count(); ++l) {
    expect_same(got.weights(l), want.weights(l), "weights");
    for (std::size_t i = 0; i < got.biases(l).size(); ++i)
      ASSERT_EQ(bits(got.biases(l)[i]), bits(want.biases(l)[i]));
  }
}

/// 1-2 hidden layers of 1-33 sigmoid units and an output of 1 (mostly) to
/// 3 units, linear (mostly) or sigmoid like the validity classifier's.
std::vector<LayerSpec> random_topology(common::Rng& rng) {
  std::vector<LayerSpec> layers;
  const std::size_t hidden = 1 + rng.below(2);
  for (std::size_t h = 0; h < hidden; ++h)
    layers.push_back({1 + rng.below(33), Activation::kSigmoid});
  layers.push_back({rng.below(4) == 0 ? 1 + rng.below(3) : 1,
                    rng.below(4) == 0 ? Activation::kSigmoid
                                      : Activation::kLinear});
  return layers;
}

Dataset smooth_regression(std::size_t n, std::size_t features,
                          common::Rng& rng) {
  Dataset d{Matrix(n, features), Matrix(n, 1)};
  for (std::size_t i = 0; i < n; ++i) {
    double y = 0.0;
    for (std::size_t c = 0; c < features; ++c) {
      const double v = rng.uniform(-2.0, 2.0);
      d.x(i, c) = v;
      y += (c % 2 ? 0.5 : -0.3) * v * v + 0.2 * v;
    }
    d.y(i, 0) = y;
  }
  return d;
}

TEST(TrainingExact, LossAndGradientsMatchReferenceOnRandomTopologies) {
  common::Rng rng(2024);
  BatchScratch scratch;  // reused across shapes, as a trainer reuses it
  for (int trial = 0; trial < 80; ++trial) {
    const std::size_t inputs = 1 + rng.below(12);
    Mlp net(inputs, random_topology(rng));
    net.init_weights(rng);
    for (std::size_t l = 0; l < net.layer_count(); ++l)
      for (auto& b : net.biases(l)) b = rng.uniform(-0.5, 0.5);
    const std::size_t rows =
        trial % 8 == 0 ? 2000 + rng.below(101) : 1 + rng.below(70);
    Matrix x(rows, inputs);
    Matrix t(rows, net.output_size());
    for (auto& v : x.flat()) v = rng.uniform(-2.0, 2.0);
    for (auto& v : t.flat()) v = rng.uniform(-1.0, 1.0);
    x(0, 0) = -0.0;

    expect_same(net.forward_batch(x),
                reference::forward_layers(net, x).back(), "forward");
    EXPECT_EQ(bits(net.loss(x, t, scratch)),
              bits(reference::loss(net, x, t)));

    Gradients got = net.make_gradients();
    Gradients want;
    const double loss = net.backward_batch(x, t, got, scratch);
    EXPECT_EQ(bits(loss), bits(reference::backward_batch(net, x, t, want)));
    for (std::size_t l = 0; l < net.layer_count(); ++l) {
      expect_same(got.weights[l], want.weights[l], "weight gradient");
      for (std::size_t i = 0; i < got.biases[l].size(); ++i)
        ASSERT_EQ(bits(got.biases[l][i]), bits(want.biases[l][i]));
    }
  }
}

TEST(TrainingExact, RpropWithEarlyStoppingMatchesReference) {
  common::Rng rng(31);
  std::size_t early_stops = 0;
  for (int trial = 0; trial < 4; ++trial) {
    const std::size_t features = 2 + rng.below(6);
    const Dataset data = smooth_regression(150 + rng.below(100), features, rng);
    std::vector<LayerSpec> layers = random_topology(rng);
    layers.back().units = 1;  // one target
    Mlp net(features, layers);
    net.init_weights(rng);
    Mlp ref_net = net;

    RpropTrainer::Options options;
    options.common.max_epochs = 300;
    options.common.patience = 15;  // stops early on most trials
    common::Rng train_rng(100 + trial);
    common::Rng ref_rng = train_rng;
    const TrainResult got = RpropTrainer(options).train(net, data, train_rng);
    const TrainResult want =
        reference::train_rprop(ref_net, data, options, ref_rng);

    EXPECT_EQ(got.epochs, want.epochs);
    EXPECT_EQ(got.early_stopped, want.early_stopped);
    EXPECT_EQ(bits(got.best_loss), bits(want.best_loss));
    ASSERT_EQ(got.monitored_loss.size(), want.monitored_loss.size());
    for (std::size_t e = 0; e < got.monitored_loss.size(); ++e) {
      ASSERT_EQ(bits(got.train_loss[e]), bits(want.train_loss[e]));
      ASSERT_EQ(bits(got.monitored_loss[e]), bits(want.monitored_loss[e]));
    }
    expect_same_weights(net, ref_net);
    early_stops += got.early_stopped;
  }
  EXPECT_GT(early_stops, 0u);  // the best-weight restore path ran
}

// BaggingEnsemble::fit at 1 and 4 threads against members trained one by
// one with the reference trainer on the same folds and forked RNGs.
TEST(TrainingExact, EnsembleFitMatchesReferenceAtOneAndFourThreads) {
  common::Rng data_rng(57);
  const Dataset data = smooth_regression(220, 4, data_rng);
  BaggingEnsemble::Options options;
  options.k = 4;
  options.hidden_layers = {LayerSpec{30, Activation::kSigmoid}};
  options.trainer.common.max_epochs = 150;
  options.trainer.common.patience = 20;

  // The fit's own draw order: folds, then one fork per member.
  common::Rng ref_rng(9);
  StandardScaler scaler;
  scaler.fit(data.x);
  const Dataset scaled{scaler.transform(data.x), data.y};
  const auto folds = kfold_indices(data.size(), options.k, ref_rng);
  std::vector<common::Rng> member_rngs;
  for (std::size_t f = 0; f < options.k; ++f)
    member_rngs.push_back(ref_rng.fork());
  std::vector<Mlp> want;
  for (std::size_t f = 0; f < options.k; ++f) {
    std::vector<LayerSpec> layers = options.hidden_layers;
    layers.push_back(LayerSpec{1, Activation::kLinear});
    Mlp net(data.features(), layers);
    net.init_weights(member_rngs[f]);
    std::vector<std::size_t> idx;
    for (std::size_t g = 0; g < options.k; ++g)
      if (g != f) idx.insert(idx.end(), folds[g].begin(), folds[g].end());
    (void)reference::train_rprop(net, scaled.subset(idx), options.trainer,
                                 member_rngs[f]);
    want.push_back(std::move(net));
  }

  for (const std::size_t threads : {1u, 4u}) {
    common::set_global_pool_threads(threads);
    BaggingEnsemble e(options);
    common::Rng rng(9);
    e.fit(data, rng);
    ASSERT_EQ(e.member_count(), want.size());
    for (std::size_t f = 0; f < want.size(); ++f)
      expect_same_weights(e.member(f), want[f]);
  }
  common::set_global_pool_threads(0);  // restore the default
}

}  // namespace
}  // namespace pt::ml
