// Tests for the batched fp32 inference engine (ml/batched.hpp): parity with
// the per-row fp64 forward pass across hidden widths, scaler folding,
// ensemble averaging, determinism, rows that equal
// their one-row calls bit for bit however a batch groups them, cache
// semantics, and the certified error bound (measured <= certified on random
// networks, cancellation-heavy scaler folds and degenerate calibration
// ranges).

#include "ml/batched.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "common/math.hpp"
#include "common/rng.hpp"
#include "ml/dataset.hpp"
#include "ml/ensemble.hpp"
#include "ml/member.hpp"

namespace ml = pt::ml;

namespace {

ml::Member make_net(std::size_t inputs, std::size_t hidden,
                    std::uint64_t seed) {
  ml::Member net(inputs, hidden);
  pt::common::Rng rng(seed);
  net.init_weights(rng);
  return net;
}

std::vector<float> random_rows(std::size_t rows, std::size_t cols,
                               std::uint64_t seed) {
  pt::common::Rng rng(seed);
  std::vector<float> x(rows * cols);
  for (auto& v : x)
    v = static_cast<float>(rng.uniform() * 8.0 - 4.0);
  return x;
}

ml::CertificationBox box(std::size_t width, float lo, float hi) {
  ml::CertificationBox calib;
  calib.lo.assign(width, lo);
  calib.hi.assign(width, hi);
  return calib;
}

/// fp64 forward pass of one row.
double forward(const ml::Member& net, const std::vector<double>& row) {
  ml::Matrix x(1, row.size());
  std::copy(row.begin(), row.end(), x.flat().begin());
  double y = 0.0;
  ml::member_forward(net, x, {&y, 1});
  return y;
}

/// fp64 reference for one row of fp32 features.
double reference_forward(const ml::Member& net, const float* row,
                         std::size_t cols) {
  return forward(net, std::vector<double>(row, row + cols));
}

}  // namespace

TEST(BatchedMlp, MatchesFp64ForwardAcrossTopologies) {
  // Hidden sizes straddle the vector width: below, at, and above one lane
  // group, plus the paper's 30 and a 33 that exercises the 4-tile loop tail.
  const std::size_t hidden_sizes[] = {1, 3, 7, 8, 9, 16, 30, 33};
  for (const std::size_t h : hidden_sizes) {
    const ml::Member net = make_net(5, h, 1000 + h);
    const ml::BatchedMlp batched(net);
    const std::size_t rows = 64;
    const auto x = random_rows(rows, 5, 7 * h);
    std::vector<float> out(rows);
    batched.forward_column0(x.data(), rows, out.data());
    for (std::size_t r = 0; r < rows; ++r) {
      const double want = reference_forward(net, x.data() + r * 5, 5);
      EXPECT_NEAR(out[r], want, 1e-4) << "hidden = " << h << ", row = " << r;
    }
  }
}

TEST(BatchedMlp, ScalerFoldingMatchesExplicitStandardization) {
  const ml::Member net = make_net(4, 9, 3);
  // A scaler with distinctly non-trivial means and stddevs.
  ml::StandardScaler scaler;
  scaler.restore({10.0, -3.0, 0.5, 100.0}, {2.0, 0.25, 1.5, 30.0});
  const ml::BatchedMlp batched(net, &scaler);

  const std::size_t rows = 32;
  const auto x = random_rows(rows, 4, 31);
  std::vector<float> out(rows);
  batched.forward_column0(x.data(), rows, out.data());
  for (std::size_t r = 0; r < rows; ++r) {
    // Reference: standardize in double, then fp64 forward.
    std::vector<double> row(4);
    for (std::size_t c = 0; c < 4; ++c)
      row[c] = (static_cast<double>(x[r * 4 + c]) - scaler.means()[c]) /
               scaler.stddevs()[c];
    EXPECT_NEAR(out[r], forward(net, row), 1e-4) << "row = " << r;
  }
}

TEST(BatchedMlp, ScalerWidthMismatchThrows) {
  const ml::Member net = make_net(4, 5, 3);
  ml::StandardScaler scaler;
  scaler.restore({0.0, 0.0}, {1.0, 1.0});
  EXPECT_THROW(ml::BatchedMlp(net, &scaler), std::invalid_argument);
}

namespace {

ml::BaggingEnsemble fitted_ensemble(std::uint64_t seed) {
  ml::BaggingEnsemble::Options opts;
  opts.k = 5;
  opts.hidden_layers = {{10, ml::Activation::kSigmoid}};
  opts.trainer.common.max_epochs = 40;
  ml::BaggingEnsemble ensemble(opts);
  pt::common::Rng rng(seed);
  ml::Dataset data;
  data.x = ml::Matrix(60, 3);
  data.y = ml::Matrix(60, 1);
  for (std::size_t i = 0; i < 60; ++i) {
    for (std::size_t c = 0; c < 3; ++c)
      data.x(i, c) = rng.uniform() * 10.0;
    data.y(i, 0) =
        std::sin(data.x(i, 0)) + 0.1 * data.x(i, 1) - 0.05 * data.x(i, 2);
  }
  ensemble.fit(data, rng);
  return ensemble;
}

}  // namespace

TEST(BatchedEnsemble, MatchesFp64EnsemblePrediction) {
  const ml::BaggingEnsemble ensemble = fitted_ensemble(11);
  const ml::BatchedEnsemble batched(ensemble, box(3, -4.0f, 4.0f));
  EXPECT_EQ(batched.input_width(), 3u);
  EXPECT_EQ(batched.member_count(), ensemble.member_count());

  const std::size_t rows = 200;
  const auto x = random_rows(rows, 3, 77);
  std::vector<float> out;
  ml::BatchedEnsemble::Scratch scratch;
  batched.predict_batch_into(x.data(), rows, out, scratch);
  ASSERT_EQ(out.size(), rows);
  for (std::size_t r = 0; r < rows; ++r) {
    std::vector<double> row(x.begin() + static_cast<std::ptrdiff_t>(r * 3),
                            x.begin() + static_cast<std::ptrdiff_t>(r * 3 + 3));
    EXPECT_NEAR(out[r], ensemble.predict(row), batched.error_bound())
        << "row = " << r;
  }
}

TEST(BatchedEnsemble, DeterministicAndChunkingIndependent) {
  const ml::BaggingEnsemble ensemble = fitted_ensemble(13);
  const ml::BatchedEnsemble batched(ensemble, box(3, -4.0f, 4.0f));
  const std::size_t rows = 96;
  const auto x = random_rows(rows, 3, 5);

  std::vector<float> whole;
  ml::BatchedEnsemble::Scratch s1;
  batched.predict_batch_into(x.data(), rows, whole, s1);

  // Same rows evaluated in two pieces must give bit-identical outputs.
  std::vector<float> first, second;
  ml::BatchedEnsemble::Scratch s2;
  batched.predict_batch_into(x.data(), 40, first, s2);
  batched.predict_batch_into(x.data() + 40 * 3, rows - 40, second, s2);
  for (std::size_t r = 0; r < 40; ++r) EXPECT_EQ(whole[r], first[r]);
  for (std::size_t r = 40; r < rows; ++r) EXPECT_EQ(whole[r], second[r - 40]);
}

TEST(BatchedEnsemble, UnfittedEnsembleThrows) {
  const ml::BaggingEnsemble ensemble;
  EXPECT_THROW(ml::BatchedEnsemble(ensemble, box(3, 0.0f, 1.0f)),
               std::invalid_argument);
}

TEST(BatchedEnsemble, BadCalibrationThrows) {
  const ml::BaggingEnsemble ensemble = fitted_ensemble(23);
  EXPECT_THROW(ml::BatchedEnsemble(ensemble, box(2, 0.0f, 1.0f)),
               std::invalid_argument);
  ml::CertificationBox inverted = box(3, 0.0f, 1.0f);
  inverted.lo[1] = 2.0f;
  EXPECT_THROW(ml::BatchedEnsemble(ensemble, inverted), std::invalid_argument);
}

TEST(BatchedEnsembleCache, BuildsOnceAndResets) {
  const ml::BaggingEnsemble ensemble = fitted_ensemble(17);
  const ml::CertificationBox calib = box(3, 0.0f, 10.0f);
  ml::BatchedEnsembleCache cache;
  const auto a = cache.get(ensemble, calib);
  const auto b = cache.get(ensemble, calib);
  EXPECT_EQ(a.get(), b.get());  // same packed engine
  cache.reset();
  const auto c = cache.get(ensemble, calib);
  EXPECT_NE(a.get(), c.get());  // rebuilt
  EXPECT_EQ(a->member_count(), c->member_count());
  // A different calibration (e.g. a new input-aware instance tail) repacks
  // and re-certifies.
  const auto d = cache.get(ensemble, box(3, 0.0f, 5.0f));
  EXPECT_NE(c.get(), d.get());
  EXPECT_TRUE(d->calibration() == box(3, 0.0f, 5.0f));
}

TEST(BatchedEnsembleCache, CopyResetsMoveTransfers) {
  const ml::BaggingEnsemble ensemble = fitted_ensemble(19);
  const ml::CertificationBox calib = box(3, 0.0f, 10.0f);
  ml::BatchedEnsembleCache cache;
  const auto original = cache.get(ensemble, calib);

  ml::BatchedEnsembleCache copy(cache);
  EXPECT_NE(copy.get(ensemble, calib).get(), original.get());  // re-packs

  ml::BatchedEnsembleCache moved(std::move(cache));
  EXPECT_EQ(moved.get(ensemble, calib).get(), original.get());  // transfers
}

// ---- Certified error bound --------------------------------------------------

namespace {

/// Max |fp32 engine - fp64 ensemble| over rows drawn inside `calib` (every
/// corner of the box first, then uniform samples), in raw output units.
double measured_error(const ml::BaggingEnsemble& ensemble,
                      const ml::BatchedEnsemble& batched,
                      const ml::CertificationBox& calib, std::size_t samples,
                      std::uint64_t seed) {
  const std::size_t cols = calib.width();
  const std::size_t corners = cols <= 10 ? std::size_t{1} << cols : 0;
  const std::size_t rows = corners + samples;
  pt::common::Rng rng(seed);
  std::vector<float> x(rows * cols);
  for (std::size_t r = 0; r < rows; ++r)
    for (std::size_t c = 0; c < cols; ++c)
      x[r * cols + c] =
          r < corners
              ? ((r >> c) & 1U ? calib.hi[c] : calib.lo[c])
              : static_cast<float>(calib.lo[c] +
                                   rng.uniform() * (calib.hi[c] - calib.lo[c]));
  std::vector<float> got;
  ml::BatchedEnsemble::Scratch scratch;
  batched.predict_batch_into(x.data(), rows, got, scratch);
  ml::Matrix m(rows, cols);
  for (std::size_t r = 0; r < rows; ++r)
    for (std::size_t c = 0; c < cols; ++c) m(r, c) = x[r * cols + c];
  const std::vector<double> want = ensemble.predict_batch(m);
  double worst = 0.0;
  for (std::size_t r = 0; r < rows; ++r)
    worst = std::max(worst, std::fabs(static_cast<double>(got[r]) - want[r]));
  return worst;
}

/// An ensemble of `k` random networks of `units` sigmoid units (Xavier
/// init, then weights scaled by `gain` so hidden units leave the linear
/// region) behind `scaler`.
ml::BaggingEnsemble random_ensemble(std::size_t inputs, std::size_t units,
                                    std::size_t k, double gain,
                                    ml::StandardScaler scaler,
                                    std::uint64_t seed) {
  std::vector<ml::Member> members;
  for (std::size_t i = 0; i < k; ++i) {
    ml::Member net = make_net(inputs, units, seed + i);
    for (std::size_t f = 0; f < inputs; ++f)
      for (double& w : net.w1(f)) w *= gain;
    for (double& b : net.b1()) b = gain * (b + 0.1);
    for (double& w : net.w2()) w *= gain;
    net.b2() = gain * (net.b2() + 0.2);
    members.push_back(std::move(net));
  }
  ml::BaggingEnsemble::Options opts;
  opts.k = k;
  opts.hidden_layers = {{units, ml::Activation::kSigmoid}};
  ml::BaggingEnsemble ensemble(opts);
  ensemble.restore(opts, std::move(scaler), std::move(members));
  return ensemble;
}

ml::StandardScaler scaler_of(std::vector<double> means,
                             std::vector<double> stddevs) {
  ml::StandardScaler scaler;
  scaler.restore(std::move(means), std::move(stddevs));
  return scaler;
}

}  // namespace

TEST(BatchedEnsembleBound, MeasuredWithinCertifiedOnRandomNetworks) {
  // Random hidden widths, with weights large enough to saturate: the
  // measured fp32-vs-fp64 error may never exceed the bound certified for the
  // box the rows come from.
  pt::common::Rng widths(100);
  std::uint64_t seed = 100;
  for (int trial = 0; trial < 12; ++trial) {
    const std::size_t units = 1 + widths.below(40);
    const double gain = trial % 2 == 0 ? 1.0 : 4.0;
    const ml::CertificationBox calib = box(5, -3.0f, 7.0f);
    const auto ensemble = random_ensemble(
        5, units, 5, gain,
        scaler_of({2.0, 2.0, 2.0, 2.0, 2.0}, {2.5, 1.0, 3.0, 0.5, 2.0}),
        seed += 10);
    const ml::BatchedEnsemble batched(ensemble, calib);
    const double err = measured_error(ensemble, batched, calib, 2000, seed);
    EXPECT_LE(err, batched.error_bound()) << units << " units, gain " << gain;
    EXPECT_GT(batched.error_bound(), 0.0);
  }
}

TEST(BatchedEnsembleBound, CoversCancellationHeavyScalerFolds) {
  // Features far from the origin relative to their spread: the folded bias
  // b' = b - sum m*W/s nearly cancels the x*W' terms, so fp32 accumulates
  // large terms into a small result. The bound must price that in (it
  // grows with the raw magnitudes) and still hold.
  const ml::CertificationBox calib = box(4, 990.0f, 1010.0f);
  const auto ensemble = random_ensemble(
      4, 20, 3, 1.0,
      scaler_of({1000.0, 1000.0, 1000.0, 1000.0}, {5.0, 5.0, 5.0, 5.0}), 7);
  const ml::BatchedEnsemble batched(ensemble, calib);
  const double err = measured_error(ensemble, batched, calib, 4000, 9);
  EXPECT_LE(err, batched.error_bound());
  // The same network over a box at the origin certifies a far tighter bound.
  const auto centered = random_ensemble(
      4, 20, 3, 1.0,
      scaler_of({0.0, 0.0, 0.0, 0.0}, {5.0, 5.0, 5.0, 5.0}), 7);
  const ml::BatchedEnsemble tight(centered, box(4, -10.0f, 10.0f));
  EXPECT_LT(10.0 * tight.error_bound(), batched.error_bound());
}

TEST(BatchedEnsembleBound, DegenerateCalibrationRanges) {
  // Fixed features (lo == hi, e.g. input-aware instance tails) and a box
  // that is a single point: still sound, and a point box certifies no more
  // than the full box it sits in.
  const auto ensemble = random_ensemble(
      3, 12, 4, 2.0,
      scaler_of({1.0, -2.0, 8.0}, {1.5, 0.75, 2.0}), 31);
  ml::CertificationBox calib = box(3, -1.0f, 3.0f);
  calib.lo[2] = calib.hi[2] = 9.5f;
  const ml::BatchedEnsemble batched(ensemble, calib);
  EXPECT_LE(measured_error(ensemble, batched, calib, 1000, 3),
            batched.error_bound());

  ml::CertificationBox point = calib;
  point.hi[0] = point.lo[0] = 0.5f;
  point.hi[1] = point.lo[1] = 2.25f;
  const ml::BatchedEnsemble at_point(ensemble, point);
  EXPECT_LE(measured_error(ensemble, at_point, point, 1, 4),
            at_point.error_bound());
  EXPECT_LE(at_point.error_bound(), batched.error_bound());
}

// ---- Node bounds ------------------------------------------------------------

namespace {

/// The node bound's exact value, in long double: each member's hidden unit
/// j sums its terms at the row's fixed features (i >= k) and, per free
/// feature, the smallest (v_j >= 0) or largest of its term over the box.
long double exact_node_value(const ml::BaggingEnsemble& ensemble,
                             const ml::CertificationBox& calib,
                             const std::vector<float>& row, std::size_t k) {
  const std::vector<double>& mean = ensemble.scaler().means();
  const std::vector<double>& stddev = ensemble.scaler().stddevs();
  long double total = 0.0L;
  for (std::size_t n = 0; n < ensemble.member_count(); ++n) {
    const ml::Member& net = ensemble.member(n);
    const auto v = net.w2();
    long double out = net.b2();
    for (std::size_t j = 0; j < net.hidden(); ++j) {
      long double z = net.b1()[j];
      for (std::size_t i = 0; i < net.inputs(); ++i) {
        const auto term = [&](float x) {
          return static_cast<long double>(net.w1(i)[j]) *
                 ((static_cast<long double>(x) - mean[i]) / stddev[i]);
        };
        if (i >= k)
          z += term(row[i]);
        else if (v[j] >= 0.0)
          z += std::min(term(calib.lo[i]), term(calib.hi[i]));
        else
          z += std::max(term(calib.lo[i]), term(calib.hi[i]));
      }
      const double h =
          1.0 / (1.0 + pt::common::math::exp(-static_cast<double>(z)));
      out += v[j] * h;
    }
    total += static_cast<double>(out);
  }
  return total / static_cast<long double>(ensemble.member_count());
}

/// Checks random nodes (first k features free over `calib`, the rest fixed
/// at random points of it), for every k from 0 to the width: L~ is within
/// E(k) of its exact value, and every row's fp32 prediction is at least
/// L~ - E(k) - B. The free features take every corner of their box (up to
/// 2^10) and `samples` random points.
void expect_node_bounds_hold(const ml::BaggingEnsemble& ensemble,
                             const ml::BatchedEnsemble& batched,
                             const ml::CertificationBox& calib,
                             std::size_t samples, std::uint64_t seed) {
  const std::size_t cols = calib.width();
  pt::common::Rng rng(seed);
  const auto draw = [&](std::size_t c) {
    return static_cast<float>(calib.lo[c] +
                              rng.uniform() * (calib.hi[c] - calib.lo[c]));
  };
  ml::BatchedEnsemble::Scratch scratch;
  for (std::size_t k = 0; k <= cols; ++k) {
    for (std::size_t node = 0; node < 4; ++node) {
      std::vector<float> row(cols, 0.0f);
      for (std::size_t c = k; c < cols; ++c) row[c] = draw(c);
      std::vector<float> bound;
      batched.node_lower_bounds(row.data(), 1, k, bound, scratch);
      ASSERT_EQ(bound.size(), 1u);
      EXPECT_LE(std::fabs(static_cast<long double>(bound[0]) -
                          exact_node_value(ensemble, calib, row, k)),
                batched.node_error_bound(k))
          << "k = " << k << ", node " << node;
      const double floor = static_cast<double>(bound[0]) -
                           batched.node_error_bound(k) - batched.error_bound();

      const std::size_t corners = k <= 10 ? std::size_t{1} << k : 0;
      const std::size_t rows = corners + samples;
      std::vector<float> x(rows * cols);
      for (std::size_t r = 0; r < rows; ++r)
        for (std::size_t c = 0; c < cols; ++c)
          x[r * cols + c] =
              c >= k      ? row[c]
              : r < corners ? ((r >> c) & 1U ? calib.hi[c] : calib.lo[c])
                            : draw(c);
      std::vector<float> got;
      batched.predict_batch_into(x.data(), rows, got, scratch);
      for (std::size_t r = 0; r < rows; ++r)
        ASSERT_GE(static_cast<double>(got[r]), floor)
            << "k = " << k << ", node " << node << ", row " << r;
      if (k == 0) {
        // No free feature: the bound runs the packed network on the row.
        EXPECT_EQ(bound[0], got[0]);
      }
    }
  }
}

}  // namespace

TEST(BatchedEnsembleNodeBound, RowsOfRandomNodesStayAboveTheBound) {
  // Random hidden widths, weights large enough to saturate, a radix-1
  // (lo == hi) feature between free ones.
  pt::common::Rng widths(500);
  std::uint64_t seed = 500;
  for (int trial = 0; trial < 6; ++trial) {
    const std::size_t units = 1 + widths.below(40);
    const double gain = trial % 2 == 0 ? 1.0 : 4.0;
    SCOPED_TRACE(std::to_string(units) + " units" +
                 (gain > 1.0 ? ", saturating" : ""));
    ml::CertificationBox calib = box(6, -3.0f, 7.0f);
    calib.lo[2] = calib.hi[2] = 1.5f;
    calib.lo[4] = 0.0f;
    calib.hi[4] = 1.0f;
    const auto ensemble = random_ensemble(
        6, units, 5, gain,
        scaler_of({2.0, 2.0, 1.5, 2.0, 0.5, -1.0},
                  {2.5, 1.0, 3.0, 0.5, 0.5, 2.0}),
        seed += 10);
    const ml::BatchedEnsemble batched(ensemble, calib);
    expect_node_bounds_hold(ensemble, batched, calib, 300, seed);
  }
}

TEST(BatchedEnsembleNodeBound, CoversCancellationHeavyScalerFolds) {
  // Raw features far from the origin against a small spread: the selection
  // bias sums large terms that nearly cancel.
  const ml::CertificationBox calib = box(4, 990.0f, 1010.0f);
  const auto ensemble = random_ensemble(
      4, 20, 3, 2.0,
      scaler_of({1000.0, 1000.0, 1000.0, 1000.0}, {5.0, 5.0, 5.0, 5.0}), 7);
  const ml::BatchedEnsemble batched(ensemble, calib);
  expect_node_bounds_hold(ensemble, batched, calib, 2000, 9);
  // Freed features leave the fp32 accumulation for the double-precision
  // selection bias, so their large cancelling terms stop costing fp32
  // rounding error.
  EXPECT_LT(batched.node_error_bound(4), batched.node_error_bound(0));
}

TEST(BatchedEnsemble, EveryRowEqualsItsOneRowCall) {
  // The forward pass runs rows three at a time and the last one or two
  // alone; a row's bits must not depend on which rows share its pass. For
  // batches of 1 to 10 rows, and for a 10-row batch split at every offset,
  // predict_batch_into and node_lower_bounds (every count of free features)
  // equal one-row calls, at hidden widths that leave 1 to 4 vectors in the
  // last tile.
  constexpr std::size_t kCols = 5;
  constexpr std::size_t kRows = 10;
  const auto x = random_rows(kRows, kCols, 62);
  const auto bits = [](float v) { return std::bit_cast<std::uint32_t>(v); };
  for (const std::size_t units : {5u, 12u, 30u, 40u}) {
    const auto ensemble = random_ensemble(
        kCols, units, 4, 2.0,
        scaler_of({1.0, -0.5, 0.0, 2.0, 0.25}, {2.0, 1.0, 0.5, 3.0, 1.5}),
        60 + units);
    const ml::BatchedEnsemble batched(ensemble, box(kCols, -4.0f, 4.0f));
    // free == kCols + 1 stands for predict_batch_into.
    for (std::size_t free = 0; free <= kCols + 1; ++free) {
      SCOPED_TRACE(std::to_string(units) + " units, free " +
                   std::to_string(free));
      ml::BatchedEnsemble::Scratch scratch;
      const auto run = [&](std::size_t first, std::size_t rows) {
        std::vector<float> out;
        if (free > kCols)
          batched.predict_batch_into(x.data() + first * kCols, rows, out,
                                     scratch);
        else
          batched.node_lower_bounds(x.data() + first * kCols, rows, free, out,
                                    scratch);
        return out;
      };
      std::vector<float> single(kRows);
      for (std::size_t r = 0; r < kRows; ++r) single[r] = run(r, 1)[0];
      for (std::size_t rows = 1; rows <= kRows; ++rows) {
        const std::vector<float> out = run(0, rows);
        ASSERT_EQ(out.size(), rows);
        for (std::size_t r = 0; r < rows; ++r)
          EXPECT_EQ(bits(out[r]), bits(single[r]))
              << rows << " rows, row " << r;
      }
      for (std::size_t split = 0; split <= kRows; ++split) {
        const std::vector<float> head = run(0, split);
        const std::vector<float> tail = run(split, kRows - split);
        for (std::size_t r = 0; r < kRows; ++r)
          EXPECT_EQ(bits(r < split ? head[r] : tail[r - split]),
                    bits(single[r]))
              << "split " << split << ", row " << r;
      }
    }
  }
}
