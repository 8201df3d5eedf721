#pragma once

// Synthetic evaluators with analytically known optima, and random
// ensembles over a space, for tuner unit tests that should not depend on
// the benchmark suite or the timing model.

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <vector>

#include "common/rng.hpp"
#include "ml/ensemble.hpp"
#include "tuner/evaluator.hpp"

namespace pt::tuner::testing {

/// Small space: 3 parameters, 8*8*4 = 256 configurations.
inline ParamSpace small_space() {
  ParamSpace space;
  space.add("A", {1, 2, 4, 8, 16, 32, 64, 128});
  space.add("B", {1, 2, 4, 8, 16, 32, 64, 128});
  space.add("C", {0, 1, 2, 3});
  return space;
}

/// Smooth bowl with the optimum at A=8, B=16, C=2; optionally an invalid
/// region (A=128 rejected, like a too-large work-group).
class BowlEvaluator final : public Evaluator {
 public:
  explicit BowlEvaluator(bool with_invalid = false)
      : space_(small_space()), with_invalid_(with_invalid) {}

  [[nodiscard]] const ParamSpace& space() const override { return space_; }
  [[nodiscard]] std::string name() const override { return "bowl"; }

  [[nodiscard]] Measurement measure(const Configuration& config) override {
    ++calls_;
    const double a = std::log2(static_cast<double>(config.values[0]));
    const double b = std::log2(static_cast<double>(config.values[1]));
    const double c = static_cast<double>(config.values[2]);
    Measurement m;
    if (with_invalid_ && config.values[0] == 128) {
      m.valid = false;
      m.status = clsim::Status::kInvalidWorkGroupSize;
      m.cost_ms = 0.5;
      return m;
    }
    m.valid = true;
    m.time_ms = 1.0 + (a - 3.0) * (a - 3.0) + (b - 4.0) * (b - 4.0) +
                0.5 * (c - 2.0) * (c - 2.0);
    m.cost_ms = m.time_ms + 1.0;
    return m;
  }

  [[nodiscard]] std::size_t calls() const noexcept { return calls_; }

  /// The known global optimum.
  [[nodiscard]] static Configuration optimum() {
    return Configuration{{8, 16, 2}};
  }
  [[nodiscard]] static double optimum_time() { return 1.0; }

 private:
  ParamSpace space_;
  bool with_invalid_;
  std::size_t calls_ = 0;
};

/// Valid at training time but invalid everywhere the model predicts fast:
/// mimics the paper's stereo-on-GPU failure (all of stage 2 invalid). The
/// entire "fast" half (A >= 16) is invalid; valid configs are slow and
/// nearly flat, so the model steers stage 2 into the trap.
class TrapEvaluator final : public Evaluator {
 public:
  TrapEvaluator() : space_(small_space()) {}
  [[nodiscard]] const ParamSpace& space() const override { return space_; }
  [[nodiscard]] std::string name() const override { return "trap"; }
  [[nodiscard]] Measurement measure(const Configuration& config) override {
    Measurement m;
    m.cost_ms = 0.1;
    if (config.values[0] >= 16) {
      m.valid = false;
      m.status = clsim::Status::kOutOfLocalMemory;
      return m;
    }
    m.valid = true;
    const double a = std::log2(static_cast<double>(config.values[0]));
    m.time_ms = 100.0 - 10.0 * a;  // decreasing toward the invalid region
    return m;
  }

  /// Fastest *valid* configuration: A=8 (any B/C tie at the same time).
  [[nodiscard]] static double best_valid_time() { return 70.0; }

 private:
  ParamSpace space_;
};

/// `k` random networks of `units` sigmoid units and one linear output
/// (Xavier init scaled by `gain`), standardizing the space's raw features.
inline ml::BaggingEnsemble random_ensemble(const ParamSpace& space,
                                           std::size_t units, std::size_t k,
                                           double gain, std::uint64_t seed) {
  const std::size_t inputs = space.dimension_count();
  common::Rng rng(seed);
  std::vector<ml::Member> members;
  for (std::size_t i = 0; i < k; ++i) {
    ml::Member net(inputs, units);
    net.init_weights(rng);
    for (std::size_t f = 0; f < inputs; ++f)
      for (double& w : net.w1(f)) w *= gain;
    for (double& b : net.b1()) b = gain * (rng.uniform() - 0.5);
    for (double& w : net.w2()) w *= gain;
    net.b2() = gain * (rng.uniform() - 0.5);
    members.push_back(std::move(net));
  }
  std::vector<double> means;
  std::vector<double> stddevs;
  for (std::size_t d = 0; d < inputs; ++d) {
    const auto& values = space.parameter(d).values;
    const auto [lo, hi] = std::minmax_element(values.begin(), values.end());
    means.push_back(0.5 * (*lo + *hi) + 0.25);
    stddevs.push_back(0.5 * (*hi - *lo) + 0.75);
  }
  ml::StandardScaler scaler;
  scaler.restore(std::move(means), std::move(stddevs));
  ml::BaggingEnsemble::Options opts;
  opts.k = k;
  opts.hidden_layers = {{units, ml::Activation::kSigmoid}};
  ml::BaggingEnsemble ensemble(opts);
  ensemble.restore(opts, std::move(scaler), std::move(members));
  return ensemble;
}

}  // namespace pt::tuner::testing
