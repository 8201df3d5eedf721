#pragma once

// Platform: the device roster (clGetPlatformIDs/clGetDeviceIDs analogue).
// Device construction lives in archsim (the catalog of modeled hardware);
// this class only holds a set of devices and looks them up by name.

#include <string>
#include <vector>

#include "clsim/device.hpp"

namespace pt::clsim {

class Platform {
 public:
  Platform(std::string name, std::vector<Device> devices)
      : name_(std::move(name)), devices_(std::move(devices)) {}

  [[nodiscard]] const std::string& name() const noexcept { return name_; }
  [[nodiscard]] const std::vector<Device>& devices() const noexcept {
    return devices_;
  }

  /// Device by exact name; throws ClException(kDeviceNotFound) if absent.
  [[nodiscard]] Device device_by_name(const std::string& name) const;

 private:
  std::string name_;
  std::vector<Device> devices_;
};

}  // namespace pt::clsim
