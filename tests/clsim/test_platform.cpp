#include "clsim/platform.hpp"

#include <gtest/gtest.h>

#include "test_helpers.hpp"

namespace pt::clsim {
namespace {

Platform make_platform() {
  DeviceInfo cpu;
  cpu.name = "Test CPU";
  cpu.type = DeviceType::kCpu;
  DeviceInfo gpu1;
  gpu1.name = "Test GPU Alpha";
  gpu1.type = DeviceType::kGpu;
  DeviceInfo gpu2;
  gpu2.name = "Test GPU Beta";
  gpu2.type = DeviceType::kGpu;
  return Platform("test", {testing::make_test_device(cpu),
                           testing::make_test_device(gpu1),
                           testing::make_test_device(gpu2)});
}

TEST(Platform, ListsDevices) {
  const Platform p = make_platform();
  EXPECT_EQ(p.name(), "test");
  EXPECT_EQ(p.devices().size(), 3u);
}

TEST(Platform, DeviceByExactName) {
  const Platform p = make_platform();
  EXPECT_EQ(p.device_by_name("Test CPU").type(), DeviceType::kCpu);
  try {
    (void)p.device_by_name("Nope");
    FAIL();
  } catch (const ClException& e) {
    EXPECT_EQ(e.status(), Status::kDeviceNotFound);
  }
}

TEST(Device, ConstructionValidation) {
  DeviceInfo info;
  info.name = "x";
  EXPECT_THROW(Device(info, nullptr), std::invalid_argument);
  info.compute_units = 0;
  EXPECT_THROW(Device(info, std::make_shared<testing::StubOracle>()),
               std::invalid_argument);
}

}  // namespace
}  // namespace pt::clsim
