#include "ml/serialize.hpp"

#include <gtest/gtest.h>

#include <sstream>
#include <string>

#include "../common/endless_token.hpp"

namespace pt::ml {
namespace {

Mlp random_net(common::Rng& rng) {
  Mlp net(3, {LayerSpec{5, Activation::kSigmoid},
              LayerSpec{4, Activation::kSigmoid},
              LayerSpec{1, Activation::kLinear}});
  net.init_weights(rng);
  return net;
}

/// A fitted 3-member ensemble of 6 sigmoid units over 2 features.
BaggingEnsemble small_ensemble(common::Rng& rng) {
  Dataset d;
  d.x = Matrix(60, 2);
  d.y = Matrix(60, 1);
  for (std::size_t i = 0; i < 60; ++i) {
    d.x(i, 0) = rng.uniform(-1.0, 1.0);
    d.x(i, 1) = rng.uniform(-1.0, 1.0);
    d.y(i, 0) = d.x(i, 0) - d.x(i, 1);
  }
  BaggingEnsemble::Options opts;
  opts.k = 3;
  opts.hidden_layers = {LayerSpec{6, Activation::kSigmoid}};
  opts.trainer.common.max_epochs = 100;
  BaggingEnsemble e(opts);
  e.fit(d, rng);
  return e;
}

/// `text` with every occurrence of `from` replaced by `to`.
std::string replaced(std::string text, const std::string& from,
                     const std::string& to) {
  for (std::size_t at = text.find(from); at != std::string::npos;
       at = text.find(from, at + to.size()))
    text.replace(at, from.size(), to);
  return text;
}

TEST(Serialize, MlpRoundTripPreservesPredictions) {
  common::Rng rng(1);
  const Mlp net = random_net(rng);
  std::stringstream ss;
  save_mlp(net, ss);
  const Mlp loaded = load_mlp(ss);

  EXPECT_EQ(loaded.input_size(), net.input_size());
  EXPECT_EQ(loaded.layer_count(), net.layer_count());
  for (int i = 0; i < 20; ++i) {
    const std::vector<double> x = {rng.uniform(-2.0, 2.0),
                                   rng.uniform(-2.0, 2.0),
                                   rng.uniform(-2.0, 2.0)};
    EXPECT_DOUBLE_EQ(loaded.forward(x)[0], net.forward(x)[0]);
  }
}

TEST(Serialize, MlpPreservesTopologyMetadata) {
  common::Rng rng(2);
  const Mlp net = random_net(rng);
  std::stringstream ss;
  save_mlp(net, ss);
  const Mlp loaded = load_mlp(ss);
  for (std::size_t l = 0; l < net.layer_count(); ++l) {
    EXPECT_EQ(loaded.layers()[l].units, net.layers()[l].units);
    EXPECT_EQ(loaded.layers()[l].activation, net.layers()[l].activation);
  }
}

TEST(Serialize, RejectsBadMagic) {
  std::stringstream ss("not-a-model 3");
  EXPECT_THROW(load_mlp(ss), std::runtime_error);
}

TEST(Serialize, RejectsTruncatedStream) {
  common::Rng rng(3);
  const Mlp net = random_net(rng);
  std::stringstream ss;
  save_mlp(net, ss);
  std::string text = ss.str();
  text.resize(text.size() / 2);
  std::stringstream truncated(text);
  EXPECT_THROW(load_mlp(truncated), std::runtime_error);
}

TEST(Serialize, EnsembleRoundTripPreservesPredictions) {
  common::Rng rng(4);
  const BaggingEnsemble e = small_ensemble(rng);
  std::stringstream ss;
  save_ensemble(e, ss);
  const BaggingEnsemble loaded = load_ensemble(ss);
  EXPECT_EQ(loaded.member_count(), e.member_count());
  for (int i = 0; i < 10; ++i) {
    const std::vector<double> x = {rng.uniform(-1.0, 1.0),
                                   rng.uniform(-1.0, 1.0)};
    EXPECT_DOUBLE_EQ(loaded.predict(x), e.predict(x));
  }
}

TEST(Serialize, EnsembleOfAnotherShapeIsRejected) {
  common::Rng rng(6);
  std::stringstream saved;
  save_ensemble(small_ensemble(rng), saved);
  const std::string text = saved.str();
  // Every member edited to a tanh or relu hidden layer: the stream is
  // malformed.
  for (const std::string act : {"tanh", "relu"}) {
    std::stringstream edited(replaced(text, "6 sigmoid", "6 " + act));
    EXPECT_THROW((void)load_ensemble(edited), std::runtime_error) << act;
  }
  // Every member edited to two hidden layers (a 1-unit sigmoid layer takes
  // the output's place, and a linear output follows): a well-formed network
  // the ensemble refuses.
  std::string deep = replaced(text, "layers 2", "layers 3");
  deep = replaced(deep, "layer 1 linear", "layer 1 sigmoid\nlayer 1 linear");
  deep = replaced(deep, "biases 1\n",
                  "biases 1\n0.5 \nweights 2\n0.25 \nbiases 2\n");
  std::stringstream two(deep);
  EXPECT_THROW((void)load_ensemble(two), std::invalid_argument);
}

// A count the stream claims but does not hold, or one that overflows, must
// fail as a malformed stream, with no allocation sized by the claim.
TEST(Serialize, HugeClaimedCountsFailAsMalformedStreams) {
  const std::string huge = "1099511627776";  // 2^40
  const std::string mlp_streams[] = {
      "portatune-mlp-v1\ninputs " + huge +
          "\nlayers 2\nlayer 30 sigmoid\nlayer 1 linear\nweights 0\n0.5 ",
      "portatune-mlp-v1\ninputs 3\nlayers " + huge + "\nlayer 30 sigmoid\n",
      "portatune-mlp-v1\ninputs 3\nlayers 2\nlayer " + huge +
          " sigmoid\nlayer 1 linear\nweights 0\n0.5 ",
      // 2^62 inputs x 4 units wraps around to 0 weights: unchecked, this
      // stream would load as a network whose weight matrix is empty.
      "portatune-mlp-v1\ninputs 4611686018427387904\nlayers 2\n"
      "layer 4 sigmoid\nlayer 1 linear\nweights 0\n\nbiases 0\n0 0 0 0 \n"
      "weights 1\n1 1 1 1 \nbiases 1\n0 \n",
  };
  for (const std::string& text : mlp_streams) {
    std::stringstream ss(text);
    EXPECT_THROW((void)load_mlp(ss), std::runtime_error) << text;
  }
  const std::string ensemble_streams[] = {
      "portatune-ensemble-v1\nk 3\nmembers 3\nscaler " + huge + "\n0.5 1 ",
      "portatune-ensemble-v1\nk 3\nmembers " + huge +
          "\nscaler 1\n0.5 \n2 \nportatune-mlp-v1\ninputs 1\n",
  };
  for (const std::string& text : ensemble_streams) {
    std::stringstream ss(text);
    EXPECT_THROW((void)load_ensemble(ss), std::runtime_error) << text;
  }
}

// An endless token where a keyword or an activation belongs fails after a
// bounded read, not after reading the whole token.
TEST(Serialize, EndlessTokensFailAfterABoundedRead) {
  const auto expect_bounded_failure = [](const std::string& prefix,
                                         bool ensemble) {
    hostile::EndlessTokenBuf buf(prefix);
    std::istream is(&buf);
    if (ensemble)
      EXPECT_THROW((void)load_ensemble(is), std::runtime_error) << prefix;
    else
      EXPECT_THROW((void)load_mlp(is), std::runtime_error) << prefix;
    EXPECT_LE(buf.consumed(), buf.prefix_size() + 64) << prefix;
  };
  expect_bounded_failure("", false);                           // magic
  expect_bounded_failure("portatune-mlp-v1\n", false);         // keyword
  expect_bounded_failure("portatune-mlp-v1\ninputs 3\nlayers 2\nlayer 30 ",
                         false);                               // activation
  expect_bounded_failure("", true);                            // magic
  expect_bounded_failure("portatune-ensemble-v1\nk 3\n", true);  // keyword
}

// Property-style round trips: random topologies, bit-exact reload. EXPECT_EQ
// on doubles (not EXPECT_DOUBLE_EQ) — the text format must reproduce every
// weight exactly, so predictions must be bit-identical, not merely close.

TEST(Serialize, RandomTopologyMlpRoundTripsBitExactly) {
  common::Rng rng(42);
  for (int trial = 0; trial < 12; ++trial) {
    const std::size_t inputs = 1 + rng.below(6);
    const std::size_t depth = 1 + rng.below(3);
    std::vector<LayerSpec> layers;
    for (std::size_t l = 0; l < depth; ++l)
      layers.push_back(LayerSpec{1 + rng.below(9), Activation::kSigmoid});
    layers.push_back(LayerSpec{1, rng.bernoulli(0.5) ? Activation::kSigmoid
                                                     : Activation::kLinear});
    Mlp net(inputs, layers);
    net.init_weights(rng);

    std::stringstream ss;
    save_mlp(net, ss);
    const Mlp loaded = load_mlp(ss);

    ASSERT_EQ(loaded.input_size(), inputs);
    ASSERT_EQ(loaded.layer_count(), layers.size());
    for (int probe = 0; probe < 8; ++probe) {
      std::vector<double> x(inputs);
      for (double& v : x) v = rng.uniform(-3.0, 3.0);
      EXPECT_EQ(loaded.forward(x)[0], net.forward(x)[0])
          << "trial " << trial << " probe " << probe;
    }
  }
}

TEST(Serialize, RandomTopologyEnsembleRoundTripsBitExactly) {
  common::Rng rng(43);
  for (int trial = 0; trial < 4; ++trial) {
    const std::size_t inputs = 1 + rng.below(3);
    Dataset d;
    d.x = Matrix(40, inputs);
    d.y = Matrix(40, 1);
    for (std::size_t i = 0; i < 40; ++i) {
      double sum = 0.0;
      for (std::size_t j = 0; j < inputs; ++j) {
        d.x(i, j) = rng.uniform(-1.0, 1.0);
        sum += (j % 2 ? -1.0 : 1.0) * d.x(i, j);
      }
      d.y(i, 0) = sum;
    }
    BaggingEnsemble::Options opts;
    opts.k = 2 + rng.below(3);
    opts.hidden_layers = {LayerSpec{1 + rng.below(12), Activation::kSigmoid}};
    opts.trainer.common.max_epochs = 60;
    BaggingEnsemble e(opts);
    e.fit(d, rng);

    std::stringstream ss;
    save_ensemble(e, ss);
    const BaggingEnsemble loaded = load_ensemble(ss);
    ASSERT_EQ(loaded.member_count(), e.member_count());
    for (std::size_t i = 0; i < 10; ++i)
      EXPECT_EQ(loaded.predict(d.x.row(i)), e.predict(d.x.row(i)))
          << "trial " << trial << " row " << i;
  }
}

TEST(Serialize, UnfittedEnsembleRefusesToSave) {
  const BaggingEnsemble e;
  std::stringstream ss;
  EXPECT_THROW(save_ensemble(e, ss), std::logic_error);
}

}  // namespace
}  // namespace pt::ml
