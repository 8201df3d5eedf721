#pragma once

// Raycasting benchmark (paper Table 1): volume visualization generating a
// 1024x1024 image from a 512^3 volume by orthographic front-to-back ray
// marching with a transfer-function lookup and early ray termination.
//
// Tuning parameters (Table 2): work-group shape, rays per thread, the
// memory space of the volume (buffer vs image), the placement of the
// transfer function (any combination of image / local / constant on top of
// a global fallback), interleaved ray assignment, and a *manual* unroll
// factor {1,2,4,8,16} for the traversal loop (macros, not driver pragmas —
// the paper credits this for raycasting's better model accuracy on AMD).
// Space size: 8^4 * 2^5 * 5 = 655,360.
//
// The volume, the transfer-function tables and the output are built on their
// first functional use (OnDemand): a kernel body, verify() or reference().
// Measuring a configuration on a timing-only queue builds none of them.

#include <memory>

#include "benchmarks/benchmark.hpp"

namespace pt::benchkit {

class RaycastingBenchmark final : public TunableBenchmark {
 public:
  struct Geometry {
    std::size_t volume = 512;   // cubic volume edge
    std::size_t width = 1024;   // output image
    std::size_t height = 1024;
    float termination_alpha = 0.98f;  // early-exit opacity threshold
  };

  RaycastingBenchmark() : RaycastingBenchmark(Geometry{}) {}
  explicit RaycastingBenchmark(const Geometry& geometry);

  [[nodiscard]] const std::string& name() const noexcept override {
    return name_;
  }
  [[nodiscard]] const tuner::ParamSpace& space() const noexcept override {
    return space_;
  }
  [[nodiscard]] const Geometry& geometry() const noexcept { return geometry_; }

  [[nodiscard]] clsim::BuildOptions build_options(
      const tuner::Configuration& config) const override;

  [[nodiscard]] LaunchPlan prepare(
      const clsim::Device& device,
      const tuner::Configuration& config) const override;

  [[nodiscard]] double verify(const clsim::Device& device,
                              const tuner::Configuration& config) const override;
  [[nodiscard]] CheckedVerification verify_checked(
      const clsim::Device& device,
      const tuner::Configuration& config) const override;

  /// Complete clstat constraint set: geometry limits, the staged
  /// transfer-function's local/constant budgets (mutually exclusive paths),
  /// register pressure, and the derived image-usage condition.
  [[nodiscard]] clsim::analyze::KernelConstraints constraints() const override;

  /// Scalar reference rendering.
  [[nodiscard]] std::vector<float> reference() const;

  /// Deterministic volume density in [0, 1).
  [[nodiscard]] static float density(std::size_t x, std::size_t y,
                                     std::size_t z) noexcept;

  static constexpr std::size_t kTfEntries = 256;

  /// Volumes up to this edge length can be built for functional runs;
  /// larger instances are timing-only and never build their functional data
  /// (the paper-scale 512^3 volume would cost a gigabyte of host memory that
  /// timing experiments never touch).
  static constexpr std::size_t kMaxFunctionalVolume = 192;

  /// True when a functional run can build the volume, so verify() and
  /// functional queues work; the first of them builds it.
  [[nodiscard]] bool materialized() const noexcept {
    return static_cast<bool>(inputs_);
  }

  /// The data objects only functional runs read (raycasting.cpp).
  struct Inputs;

 private:
  void build_space();
  void build_program();
  /// The functional data, built on the first call; throws std::logic_error
  /// on a timing-only instance.
  const Inputs& functional_inputs() const;
  double run_functional(const clsim::Device& device,
                        const tuner::Configuration& config,
                        clsim::CheckReport* report) const;

  std::string name_ = "raycasting";
  Geometry geometry_;
  tuner::ParamSpace space_;
  // Shared with the kernel factory, whose bodies read it; null on a
  // timing-only instance.
  std::shared_ptr<const OnDemand<Inputs>> inputs_;
  clsim::Program program_;
};

}  // namespace pt::benchkit
