#include "clsim/kernel.hpp"

#include <gtest/gtest.h>

#include "test_helpers.hpp"

namespace pt::clsim {
namespace {

using testing::make_test_device;

CompiledKernel trivial_kernel(const std::string& name = "k",
                              KernelProfile profile = KernelProfile{}) {
  CompiledKernel ck;
  ck.name = name;
  ck.profile = std::move(profile);
  ck.body = [](WorkItemCtx&) -> WorkItemTask { co_return; };
  return ck;
}

TEST(BuildOptions, DefineAndQuery) {
  BuildOptions o;
  o.define("WG_X", 16);
  EXPECT_EQ(o.require("WG_X"), 16);
}

TEST(BuildOptions, RequireMissingThrowsBuildFailure) {
  const BuildOptions o;
  try {
    (void)o.require("NOPE");
    FAIL();
  } catch (const ClException& e) {
    EXPECT_EQ(e.status(), Status::kBuildProgramFailure);
  }
}

TEST(Kernel, ValidateLaunchAcceptsLegalGeometry) {
  const Device dev = make_test_device();
  const Kernel k(dev, trivial_kernel());
  EXPECT_EQ(k.validate_launch(NDRange(64, 64), NDRange(8, 8)),
            Status::kSuccess);
}

TEST(Kernel, ValidateLaunchRejectsOversizedGroup) {
  DeviceInfo info;
  info.max_work_group_size = 64;
  const Device dev = make_test_device(info);
  const Kernel k(dev, trivial_kernel());
  EXPECT_EQ(k.validate_launch(NDRange(128, 128), NDRange(16, 16)),
            Status::kInvalidWorkGroupSize);
}

TEST(Kernel, ValidateLaunchRejectsPerDimensionLimit) {
  DeviceInfo info;
  info.max_work_item_sizes[1] = 4;
  const Device dev = make_test_device(info);
  const Kernel k(dev, trivial_kernel());
  EXPECT_EQ(k.validate_launch(NDRange(8, 8), NDRange(1, 8)),
            Status::kInvalidWorkItemSize);
}

TEST(Kernel, ValidateLaunchRejectsIndivisibleGlobal) {
  const Device dev = make_test_device();
  const Kernel k(dev, trivial_kernel());
  EXPECT_EQ(k.validate_launch(NDRange(10), NDRange(4)),
            Status::kInvalidWorkGroupSize);
}

TEST(Kernel, ValidateLaunchRejectsLocalMemoryOverflow) {
  DeviceInfo info;
  info.local_mem_bytes = 1024;
  const Device dev = make_test_device(info);
  KernelProfile p;
  p.local_mem_bytes_per_group = 2048;
  const Kernel k(dev, trivial_kernel("k", p));
  EXPECT_EQ(k.validate_launch(NDRange(8), NDRange(8)),
            Status::kOutOfLocalMemory);
}

TEST(Kernel, ValidateLaunchRejectsRegisterPressure) {
  DeviceInfo info;
  info.registers_per_cu = 1024;
  const Device dev = make_test_device(info);
  KernelProfile p;
  p.registers_per_item = 64;
  const Kernel k(dev, trivial_kernel("k", p));
  // 64 regs * 32 items = 2048 > 1024.
  EXPECT_EQ(k.validate_launch(NDRange(32), NDRange(32)),
            Status::kOutOfResources);
}

TEST(Kernel, ValidateLaunchRejectsImagesWhenUnsupported) {
  DeviceInfo info;
  info.images_supported = false;
  const Device dev = make_test_device(info);
  KernelProfile p;
  MemoryStream s;
  s.space = MemorySpace::kImage;
  s.accesses_per_item = 1;
  p.streams.push_back(s);
  const Kernel k(dev, trivial_kernel("k", p));
  EXPECT_EQ(k.validate_launch(NDRange(8), NDRange(4)),
            Status::kInvalidOperation);
}

TEST(Kernel, ValidateLaunchRejectsConstantOverflow) {
  DeviceInfo info;
  info.constant_mem_bytes = 128;
  const Device dev = make_test_device(info);
  KernelProfile p;
  p.constant_mem_bytes = 256;
  const Kernel k(dev, trivial_kernel("k", p));
  EXPECT_EQ(k.validate_launch(NDRange(8), NDRange(4)),
            Status::kOutOfResources);
}

TEST(Program, BuildKernelByName) {
  const Device dev = make_test_device();
  Program prog("p");
  prog.add_kernel("only", [](const DeviceInfo&, const BuildOptions& o) {
    CompiledKernel ck{"only", KernelProfile{}, nullptr};
    ck.profile.flops_per_item = o.require("F");
    return ck;
  });
  BuildOptions opts;
  opts.define("F", 99);
  const auto [kernel, ms] = prog.build_kernel(dev, "only", opts);
  EXPECT_DOUBLE_EQ(kernel.profile().flops_per_item, 99.0);
  EXPECT_DOUBLE_EQ(ms, 10.0);
}

TEST(Program, UnknownKernelNameThrows) {
  const Device dev = make_test_device();
  const Program prog("p");
  try {
    (void)prog.build_kernel(dev, "ghost", BuildOptions{});
    FAIL();
  } catch (const ClException& e) {
    EXPECT_EQ(e.status(), Status::kInvalidKernelName);
  }
}

TEST(Program, FactoryBuildFailurePropagates) {
  const Device dev = make_test_device();
  Program prog("p");
  prog.add_kernel("bad", [](const DeviceInfo&, const BuildOptions&)
                      -> CompiledKernel {
    throw ClException(Status::kBuildProgramFailure, "static invalid");
  });
  EXPECT_THROW((void)prog.build_kernel(dev, "bad", BuildOptions{}),
               ClException);
}

TEST(Program, NullFactoryRejected) {
  Program prog("p");
  EXPECT_THROW(prog.add_kernel("x", nullptr), ClException);
}

}  // namespace
}  // namespace pt::clsim
