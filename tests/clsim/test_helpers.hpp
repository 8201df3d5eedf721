#pragma once

// Shared clsim test fixtures: a constant-time oracle and a permissive device.

#include "clsim/clsim.hpp"

namespace pt::clsim::testing {

/// Oracle returning fixed durations — unit tests of the runtime should not
/// depend on the archsim cost model.
class StubOracle final : public TimingOracle {
 public:
  explicit StubOracle(double kernel_ms = 1.0, double compile_ms = 10.0)
      : kernel_ms_(kernel_ms), compile_ms_(compile_ms) {}

  double kernel_time_ms(const DeviceInfo&,
                        const LaunchDescriptor&) const override {
    return kernel_ms_;
  }
  double compile_time_ms(const DeviceInfo&,
                         const KernelProfile&) const override {
    return compile_ms_;
  }

 private:
  double kernel_ms_;
  double compile_ms_;
};

inline Device make_test_device(DeviceInfo info = DeviceInfo{}) {
  if (info.name.empty()) info.name = "test-device";
  return Device(std::move(info), std::make_shared<StubOracle>());
}

}  // namespace pt::clsim::testing
