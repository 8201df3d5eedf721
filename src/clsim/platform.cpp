#include "clsim/platform.hpp"

#include "clsim/error.hpp"

namespace pt::clsim {

Device Platform::device_by_name(const std::string& name) const {
  for (const auto& d : devices_)
    if (d.name() == name) return d;
  throw ClException(Status::kDeviceNotFound, name);
}

}  // namespace pt::clsim
