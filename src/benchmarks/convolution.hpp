#pragma once

// Convolution benchmark (paper Table 1): 2D convolution of a 2048x2048
// image with a 5x5 box filter — a stencil computation. Nine tuning
// parameters (Table 2): work-group shape, outputs per thread, and five
// boolean optimizations (image memory, local-memory tiling, input padding,
// interleaved output assignment, driver-pragma loop unrolling). The space
// has 8*8*8*8 * 2^5 = 131,072 configurations.
//
// All configurations are functionally equivalent: boundary handling is
// clamp-to-edge, implemented either by explicit clamping, by a pre-padded
// input whose apron replicates the edge, or by the image sampler.
//
// The input, its padded copy and image, the filter and the output are built
// on their first functional use (OnDemand): a kernel body, verify(),
// reference() or one of the input views. Measuring a configuration on a
// timing-only queue builds none of them. The input is filled row by row, on
// the thread that asks first. input_value's sin(0.11 x) is computed once per
// column, leaving 1 libm call per pixel, and each finished row is copied into
// the image and, with its apron, into the padded buffer. Only the whole libm
// result is reused, so every pixel equals the per-pixel input_value bit for
// bit (tests/benchmarks/test_inputs.cpp).

#include <cstddef>
#include <memory>
#include <span>

#include "benchmarks/benchmark.hpp"

namespace pt::benchkit {

class ConvolutionBenchmark final : public TunableBenchmark {
 public:
  struct Geometry {
    std::size_t width = 2048;
    std::size_t height = 2048;
    int radius = 2;  // 5x5 box filter
  };

  /// Full paper-scale instance.
  ConvolutionBenchmark() : ConvolutionBenchmark(Geometry{}) {}
  /// Custom instance (tests use small images so functional runs are cheap).
  explicit ConvolutionBenchmark(const Geometry& geometry);

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

  /// Complete clstat constraint set: work-group geometry, local-tile and
  /// constant budgets, register pressure, image support, and the factory's
  /// ppt-vs-extent build precondition.
  [[nodiscard]] clsim::analyze::KernelConstraints constraints() const override;

  /// Scalar reference result (clamp-to-edge box filter of the input).
  [[nodiscard]] std::vector<float> reference() const;

  /// The deterministic input signal (exposed for tests).
  [[nodiscard]] static float input_value(std::size_t x, std::size_t y) noexcept;

  /// Read-only views of the generated inputs (the first call builds them):
  /// the width x height input and image (same pixels), and the
  /// (width+2R) x (height+2R) padded copy whose apron replicates the clamped
  /// edge.
  [[nodiscard]] std::span<const float> input() const;
  [[nodiscard]] std::span<const float> padded() const;
  [[nodiscard]] std::span<const float> image() const;

  /// The data objects only functional runs read (convolution.cpp).
  struct Inputs;

 private:
  void build_space();
  void build_program();
  double run_functional(const clsim::Device& device,
                        const tuner::Configuration& config,
                        clsim::CheckReport* report) const;

  std::string name_ = "convolution";
  Geometry geometry_;
  tuner::ParamSpace space_;
  // Shared with the kernel factory, whose bodies read it.
  std::shared_ptr<const OnDemand<Inputs>> inputs_;
  clsim::Program program_;
};

}  // namespace pt::benchkit
