// Bit-identity of the fp64 training path: the fused member epoch
// (ml/member_epoch.hpp), the inference kernels and the trainer must
// reproduce the element-by-element, layer-by-layer reference forms
// (training_reference.hpp) exactly, so trained weights, epoch counts and
// every tuning decision do not move.

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "common/thread_pool.hpp"
#include "ml/ensemble.hpp"
#include "ml/member_epoch.hpp"
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

/// A member: one hidden layer of 1-33 sigmoid units and a linear output.
std::vector<LayerSpec> random_topology(common::Rng& rng) {
  return {{1 + rng.below(33), Activation::kSigmoid},
          {1, Activation::kLinear}};
}

Mlp member_net(std::size_t inputs, std::size_t hidden) {
  return Mlp(inputs,
             {{hidden, Activation::kSigmoid}, {1, Activation::kLinear}});
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

/// member_epoch's and member_loss's results for `net` on (x, t) against the
/// reference backward pass and loss, bit for bit: the loss, all four
/// gradients and the +0.0 pad entries. Also the fp64 forward pass.
void expect_epoch_matches_reference(const Mlp& net, const Matrix& x,
                                    const Matrix& t) {
  const MemberParams params(net);
  std::vector<double> got;
  const double loss = member_epoch(params, x, t, got);
  reference::Gradients want;
  const double want_loss = reference::backward_batch(net, x, t, want);
  const std::string shape = "inputs=" + std::to_string(net.input_size()) +
                            " hidden=" + std::to_string(params.hidden()) +
                            " rows=" + std::to_string(x.rows());
  ASSERT_EQ(bits(loss), bits(want_loss)) << shape;
  ASSERT_EQ(bits(member_loss(params, x, t)),
            bits(reference::loss(net, x, t)))
      << shape;
  expect_same(net.forward_batch(x), reference::forward_layers(net, x).back(),
              "forward");

  ASSERT_EQ(got.size(), params.flat().size());
  const std::size_t s = params.stride();
  for (std::size_t c = 0; c < s; ++c) {
    const bool pad = c >= params.hidden();
    for (std::size_t k = 0; k < params.inputs(); ++k)
      ASSERT_EQ(bits(got[k * s + c]),
                bits(pad ? 0.0 : want.weights[0](k, c)))
          << shape << " gW1(" << k << ", " << c << ")";
    ASSERT_EQ(bits(got[params.b1_offset() + c]),
              bits(pad ? 0.0 : want.biases[0][c]))
        << shape << " gb1(" << c << ")";
    ASSERT_EQ(bits(got[params.w2_offset() + c]),
              bits(pad ? 0.0 : want.weights[1](c, 0)))
        << shape << " gw2(" << c << ")";
  }
  ASSERT_EQ(bits(got[params.b2_offset()]), bits(want.biases[1][0])) << shape;
}

void fill_case(Mlp& net, Matrix& x, Matrix& t, common::Rng& rng) {
  net.init_weights(rng);
  for (auto& b : net.biases(0)) b = rng.uniform(-0.5, 0.5);
  net.biases(1)[0] = rng.uniform(-0.5, 0.5);
  for (auto& v : x.flat()) v = rng.uniform(-2.0, 2.0);
  for (auto& v : t.flat()) v = rng.uniform(-1.0, 1.0);
  x(0, 0) = -0.0;
}

// Every hidden width 1-33 and 64 (the stride's remainders and the 2-vector
// tiles), every input width 1-12, and every row count from 1 through two
// blocks and one row (full blocks, every tail, odd and even counts).
TEST(TrainingExact, EpochMatchesReferenceOnEveryShapeAndSmallRowCount) {
  common::Rng rng(2024);
  std::vector<std::size_t> widths;
  for (std::size_t h = 1; h <= 33; ++h) widths.push_back(h);
  widths.push_back(64);
  for (const std::size_t hidden : widths)
    for (std::size_t inputs = 1; inputs <= 12; ++inputs)
      for (std::size_t rows = 1; rows <= 9; ++rows) {
        Mlp net = member_net(inputs, hidden);
        Matrix x(rows, inputs);
        Matrix t(rows, 1);
        fill_case(net, x, t, rng);
        expect_epoch_matches_reference(net, x, t);
        if (HasFatalFailure()) return;
      }
}

// About 2,000 rows (odd and even counts) on every hidden width, the input
// widths cycling through 1-12.
TEST(TrainingExact, EpochMatchesReferenceOnLargeBatches) {
  common::Rng rng(7);
  std::vector<std::size_t> widths;
  for (std::size_t h = 1; h <= 33; ++h) widths.push_back(h);
  widths.push_back(64);
  for (std::size_t i = 0; i < widths.size(); ++i)
    for (const std::size_t rows : {std::size_t{2000}, std::size_t{2001}}) {
      const std::size_t inputs = 1 + (i + rows) % 12;
      Mlp net = member_net(inputs, widths[i]);
      Matrix x(rows, inputs);
      Matrix t(rows, 1);
      fill_case(net, x, t, rng);
      expect_epoch_matches_reference(net, x, t);
      if (HasFatalFailure()) return;
    }
}

// All-zero weights and biases: every pre-activation is +0.0 or -0.0, which
// leaves simd::exp's 4-lane path, and every output delta is -2t/N.
TEST(TrainingExact, EpochMatchesReferenceWithZeroWeights) {
  common::Rng rng(5);
  for (const std::size_t hidden : {1u, 4u, 5u, 12u, 30u})
    for (const std::size_t rows : {1u, 7u, 8u, 273u}) {
      const Mlp net = member_net(9, hidden);
      Matrix x(rows, 9);
      Matrix t(rows, 1);
      for (auto& v : x.flat()) v = rng.uniform(-2.0, 2.0);
      for (auto& v : t.flat()) v = rng.uniform(-1.0, 1.0);
      x(0, 0) = -0.0;
      expect_epoch_matches_reference(net, x, t);
      if (HasFatalFailure()) return;
    }
}

TEST(TrainingExact, RpropWithEarlyStoppingMatchesReference) {
  common::Rng rng(31);
  std::size_t early_stops = 0;
  for (int trial = 0; trial < 4; ++trial) {
    const std::size_t features = 2 + rng.below(6);
    const Dataset data = smooth_regression(150 + rng.below(100), features, rng);
    Mlp net(features, random_topology(rng));
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
