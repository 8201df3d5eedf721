// Tests for the quantized int8 tier (ml/quant.hpp): accuracy against the
// fp64 reference (the measured error must stay under HALF the bound the
// scan layer assumes — ScanOptions::quant_error_bound), edge cases
// (saturating activations, all-zero weight columns, degenerate calibration
// ranges), topology restrictions, chunking invariance, and the
// BatchedEnsembleCache mode/calibration keying.

#include "ml/quant.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstddef>
#include <vector>

#include "common/rng.hpp"
#include "ml/batched.hpp"
#include "ml/dataset.hpp"
#include "ml/ensemble.hpp"
#include "ml/mlp.hpp"

namespace ml = pt::ml;

namespace {

// The bound the scan layer declares for int8
// (tuner::ScanOptions::quant_error_bound). The accuracy tests verify the
// measured error stays under half of it, i.e. the declared bound has at
// least 2x margin. Keep in sync with tuner/scan.hpp.
constexpr double kDeclaredQuantBound = 0.15;

ml::Mlp make_net(std::size_t inputs, std::vector<ml::LayerSpec> layers,
                 std::uint64_t seed) {
  ml::Mlp net(inputs, std::move(layers));
  pt::common::Rng rng(seed);
  net.init_weights(rng);
  return net;
}

/// Wrap hand-built members into a restored ensemble with an identity scaler
/// of the right width (restore requires a fitted scaler).
ml::BaggingEnsemble wrap(std::vector<ml::Mlp> members) {
  const std::size_t inputs = members.front().input_size();
  ml::StandardScaler scaler;
  scaler.restore(std::vector<double>(inputs, 0.0),
                 std::vector<double>(inputs, 1.0));
  ml::BaggingEnsemble::Options opts;
  opts.k = members.size();
  ml::BaggingEnsemble ensemble(opts);
  ensemble.restore(opts, std::move(scaler), std::move(members));
  return ensemble;
}

ml::QuantCalibration uniform_calibration(std::size_t width, float lo,
                                         float hi) {
  ml::QuantCalibration calib;
  calib.lo.assign(width, lo);
  calib.hi.assign(width, hi);
  return calib;
}

/// Random fp32 rows inside the calibration box.
std::vector<float> rows_in_range(std::size_t rows,
                                 const ml::QuantCalibration& calib,
                                 std::uint64_t seed) {
  pt::common::Rng rng(seed);
  const std::size_t cols = calib.width();
  std::vector<float> x(rows * cols);
  for (std::size_t r = 0; r < rows; ++r)
    for (std::size_t c = 0; c < cols; ++c)
      x[r * cols + c] = static_cast<float>(
          calib.lo[c] + rng.uniform() * (calib.hi[c] - calib.lo[c]));
  return x;
}

std::vector<double> fp64_reference(const ml::BaggingEnsemble& ensemble,
                                   const std::vector<float>& x,
                                   std::size_t rows) {
  const std::size_t cols = x.size() / rows;
  ml::Matrix m(rows, cols);
  for (std::size_t r = 0; r < rows; ++r)
    for (std::size_t c = 0; c < cols; ++c)
      m(r, c) = static_cast<double>(x[r * cols + c]);
  return ensemble.predict_batch(m);
}

double max_abs_error(const ml::BaggingEnsemble& ensemble,
                     const ml::QuantizedEnsemble& quant,
                     const std::vector<float>& x, std::size_t rows) {
  std::vector<float> got;
  ml::QuantizedEnsemble::Scratch scratch;
  quant.predict_batch_into(x.data(), rows, got, scratch);
  const auto want = fp64_reference(ensemble, x, rows);
  double max_err = 0.0;
  for (std::size_t r = 0; r < rows; ++r)
    max_err = std::max(max_err,
                       std::fabs(static_cast<double>(got[r]) - want[r]));
  return max_err;
}

/// A trained ensemble (the realistic accuracy case: fitted scaler, trained
/// weight magnitudes).
ml::BaggingEnsemble fitted_ensemble(std::uint64_t seed) {
  ml::BaggingEnsemble::Options opts;
  opts.k = 5;
  opts.hidden_layers = {{30, ml::Activation::kSigmoid}};
  opts.trainer.common.max_epochs = 60;
  ml::BaggingEnsemble ensemble(opts);
  pt::common::Rng rng(seed);
  ml::Dataset data;
  data.x = ml::Matrix(80, 4);
  data.y = ml::Matrix(80, 1);
  for (std::size_t i = 0; i < 80; ++i) {
    for (std::size_t c = 0; c < 4; ++c) data.x(i, c) = rng.uniform() * 8.0;
    data.y(i, 0) = std::sin(data.x(i, 0)) + 0.1 * data.x(i, 1) -
                   0.05 * data.x(i, 2) * data.x(i, 3);
  }
  ensemble.fit(data, rng);
  return ensemble;
}

}  // namespace

TEST(QuantizedInt8, MatchesFp64AcrossTopologies) {
  // Hidden sizes straddle the 32-channel panel block and the 16-channel
  // kernel block: below, at, and above each.
  const std::size_t hidden_sizes[] = {1, 7, 16, 30, 33, 40};
  for (const std::size_t h : hidden_sizes) {
    auto ensemble = wrap({make_net(
        5, {{h, ml::Activation::kSigmoid}, {1, ml::Activation::kLinear}},
        1000 + h)});
    const auto calib = uniform_calibration(5, -4.0f, 4.0f);
    const ml::QuantizedEnsemble quant(ensemble, calib);
    const auto x = rows_in_range(256, calib, 7 * h);
    EXPECT_LE(max_abs_error(ensemble, quant, x, 256), kDeclaredQuantBound)
        << "hidden = " << h;
  }
}

TEST(QuantizedInt8, TwoHiddenLayersWithTanh) {
  auto ensemble = wrap({make_net(6,
                                 {{20, ml::Activation::kSigmoid},
                                  {10, ml::Activation::kTanh},
                                  {1, ml::Activation::kLinear}},
                                 7)});
  const auto calib = uniform_calibration(6, -3.0f, 3.0f);
  const ml::QuantizedEnsemble quant(ensemble, calib);
  const auto x = rows_in_range(256, calib, 55);
  EXPECT_LE(max_abs_error(ensemble, quant, x, 256), kDeclaredQuantBound);
}

TEST(QuantizedInt8, MeasuredErrorHasTwoTimesMarginOnDeclaredBound) {
  // The exactness of the quantized scan rests on quant_error_bound being a
  // true bound on |quant raw - fp64 raw|; this asserts the measured error on
  // a trained ensemble stays under HALF the declared bound.
  const ml::BaggingEnsemble ensemble = fitted_ensemble(11);
  const auto calib = uniform_calibration(4, 0.0f, 8.0f);
  const ml::QuantizedEnsemble quant(ensemble, calib);
  const auto x = rows_in_range(1024, calib, 77);
  const double err = max_abs_error(ensemble, quant, x, 1024);
  EXPECT_LE(err, kDeclaredQuantBound / 2.0)
      << "int8 error consumes more than half the declared bound";
}

TEST(QuantizedInt8, SaturatingActivationsStayAccurate) {
  // Hidden units driven deep into saturation (biases far outside the LUT
  // domain [-8, 8)) must clamp to exactly 0/1 (sigmoid) and -1/1 (tanh),
  // matching the fp64 forward.
  for (const auto act : {ml::Activation::kSigmoid, ml::Activation::kTanh}) {
    ml::Mlp net(2, {{4, act}, {1, ml::Activation::kLinear}});
    for (std::size_t j = 0; j < 4; ++j) {
      net.weights(0)(0, j) = 0.25;
      net.weights(0)(1, j) = -0.125;
      // Saturate two channels high and two low; folded index biases are far
      // outside [0, 511] and must clamp, not wrap.
      net.biases(0)[j] = j % 2 == 0 ? 40.0 : -40.0;
      net.weights(1)(j, 0) = 0.5 + 0.1 * static_cast<double>(j);
    }
    net.biases(1)[0] = -0.3;
    auto ensemble = wrap({std::move(net)});
    const auto calib = uniform_calibration(2, -4.0f, 4.0f);
    const ml::QuantizedEnsemble quant(ensemble, calib);
    const auto x = rows_in_range(64, calib, 17);
    EXPECT_LE(max_abs_error(ensemble, quant, x, 64), 0.02);
  }
}

TEST(QuantizedInt8, AllZeroWeightColumnsFoldToBias) {
  // A hidden channel with every weight zero contributes act(bias) exactly;
  // the packer must not divide by a zero weight scale.
  ml::Mlp net(3, {{3, ml::Activation::kSigmoid}, {1, ml::Activation::kLinear}});
  for (std::size_t i = 0; i < 3; ++i) {
    net.weights(0)(i, 0) = 0.0;  // channel 0: all-zero weights
    net.weights(0)(i, 1) = 0.4;
    net.weights(0)(i, 2) = -0.2;
  }
  net.biases(0) = {0.7, -0.1, 0.3};
  net.weights(1)(0, 0) = 2.0;
  net.weights(1)(1, 0) = 1.0;
  net.weights(1)(2, 0) = -1.5;
  net.biases(1)[0] = 0.25;
  auto ensemble = wrap({std::move(net)});
  const auto calib = uniform_calibration(3, -1.0f, 1.0f);
  const ml::QuantizedEnsemble quant(ensemble, calib);
  const auto x = rows_in_range(64, calib, 29);
  EXPECT_LE(max_abs_error(ensemble, quant, x, 64), kDeclaredQuantBound / 2.0);
}

TEST(QuantizedInt8, DegenerateCalibrationRangeIsExactForThatFeature) {
  // A fixed feature (lo == hi, e.g. an input-aware instance tail) folds its
  // whole contribution into the bias at pack time; rows carrying exactly
  // that value lose nothing to quantization on that feature.
  auto ensemble = wrap({make_net(
      4, {{10, ml::Activation::kSigmoid}, {1, ml::Activation::kLinear}},
      31)});
  ml::QuantCalibration calib = uniform_calibration(4, -2.0f, 2.0f);
  calib.lo[2] = calib.hi[2] = 1.25f;
  const ml::QuantizedEnsemble quant(ensemble, calib);
  auto x = rows_in_range(128, calib, 37);
  for (std::size_t r = 0; r < 128; ++r) x[r * 4 + 2] = 1.25f;
  EXPECT_LE(max_abs_error(ensemble, quant, x, 128), kDeclaredQuantBound);
}

TEST(QuantizedInt8, UnsupportedTopologiesThrow) {
  const auto calib2 = uniform_calibration(2, -1.0f, 1.0f);
  {
    // ReLU hidden layers have no u7 LUT representation.
    auto ensemble = wrap({make_net(
        2, {{4, ml::Activation::kRelu}, {1, ml::Activation::kLinear}}, 1)});
    EXPECT_THROW(
        ml::QuantizedEnsemble(ensemble, calib2),
        std::invalid_argument);
  }
  {
    // Multi-output nets: the int8 tier packs a single output dot column.
    // (BaggingEnsemble::restore rejects these too, so pack the Mlp
    // directly.)
    const ml::Mlp net = make_net(
        2, {{4, ml::Activation::kSigmoid}, {2, ml::Activation::kLinear}}, 2);
    EXPECT_THROW(ml::QuantizedMlp(net, nullptr, calib2),
                 std::invalid_argument);
  }
  {
    // No hidden layer at all.
    auto ensemble = wrap({make_net(2, {{1, ml::Activation::kLinear}}, 3)});
    EXPECT_THROW(
        ml::QuantizedEnsemble(ensemble, calib2),
        std::invalid_argument);
  }
}

TEST(QuantizedInt8, BadCalibrationThrows) {
  auto ensemble = wrap({make_net(
      3, {{4, ml::Activation::kSigmoid}, {1, ml::Activation::kLinear}}, 5)});
  const auto narrow = uniform_calibration(2, -1.0f, 1.0f);
  EXPECT_THROW(ml::QuantizedEnsemble(ensemble, narrow),
               std::invalid_argument);
  auto inverted = uniform_calibration(3, -1.0f, 1.0f);
  inverted.lo[1] = 2.0f;
  inverted.hi[1] = -2.0f;
  EXPECT_THROW(
      ml::QuantizedEnsemble(ensemble, inverted),
      std::invalid_argument);
}

TEST(QuantizedEnsemble, ChunkingInvariance) {
  // Chunk boundaries must not change outputs: bit-identical whole vs split.
  const ml::BaggingEnsemble ensemble = fitted_ensemble(17);
  const auto calib = uniform_calibration(4, 0.0f, 8.0f);
  const ml::QuantizedEnsemble quant(ensemble, calib);
  const std::size_t rows = 96;
  const auto x = rows_in_range(rows, calib, 41);
  std::vector<float> whole;
  ml::QuantizedEnsemble::Scratch s1;
  quant.predict_batch_into(x.data(), rows, whole, s1);
  std::vector<float> first;
  std::vector<float> second;
  ml::QuantizedEnsemble::Scratch s2;
  quant.predict_batch_into(x.data(), 37, first, s2);
  quant.predict_batch_into(x.data() + 37 * 4, rows - 37, second, s2);
  for (std::size_t r = 0; r < 37; ++r) EXPECT_EQ(whole[r], first[r]);
  for (std::size_t r = 37; r < rows; ++r) EXPECT_EQ(whole[r], second[r - 37]);
}

TEST(BatchedEnsembleCache, QuantizedSlotIsKeyedByCalibration) {
  const ml::BaggingEnsemble ensemble = fitted_ensemble(19);
  const auto calib_a = uniform_calibration(4, 0.0f, 8.0f);
  const auto calib_b = uniform_calibration(4, 0.0f, 4.0f);
  ml::BatchedEnsembleCache cache;

  const auto int8_a = cache.get_quantized(ensemble, calib_a);
  EXPECT_EQ(int8_a.get(), cache.get_quantized(ensemble, calib_a).get())
      << "same calibration must reuse the packed engine";

  // A different calibration (e.g. new input-aware instance tail) repacks.
  const auto int8_b = cache.get_quantized(ensemble, calib_b);
  EXPECT_NE(int8_a.get(), int8_b.get());
  EXPECT_TRUE(int8_b->calibration() == calib_b);

  // The fp32 slot is independent of the quantized one.
  const auto fp32 = cache.get(ensemble, calib_b);
  EXPECT_EQ(fp32.get(), cache.get(ensemble, calib_b).get());
  EXPECT_EQ(int8_b.get(), cache.get_quantized(ensemble, calib_b).get());

  cache.reset();
  EXPECT_NE(int8_b.get(), cache.get_quantized(ensemble, calib_b).get())
      << "reset must drop the quantized engine";
  // Outstanding shared_ptrs stay valid after reset.
  EXPECT_EQ(int8_b->member_count(), ensemble.member_count());
}
