#include "clsim/queue.hpp"

#include <gtest/gtest.h>

#include "test_helpers.hpp"

namespace pt::clsim {
namespace {

using testing::make_test_device;

Kernel counting_kernel(const Device& dev, Buffer out) {
  CompiledKernel ck;
  ck.name = "count";
  ck.body = [out](WorkItemCtx& ctx) -> WorkItemTask {
    out.as<int>()[ctx.global_id(0)] += 1;
    co_return;
  };
  return Kernel(dev, std::move(ck));
}

TEST(Queue, FunctionalModeExecutesBody) {
  const Device dev = make_test_device();
  Buffer out(8 * sizeof(int));
  CommandQueue q(dev);
  const Kernel k = counting_kernel(dev, out);
  q.enqueue_nd_range(k, NDRange(8), NDRange(4));
  for (int v : out.as<const int>()) EXPECT_EQ(v, 1);
}

TEST(Queue, TimingOnlyModeSkipsBody) {
  const Device dev = make_test_device();
  Buffer out(8 * sizeof(int));
  CommandQueue q(dev, {ExecMode::kTimingOnly, nullptr});
  const Kernel k = counting_kernel(dev, out);
  const double ms = q.enqueue_nd_range(k, NDRange(8), NDRange(4));
  EXPECT_DOUBLE_EQ(ms, 1.0);  // stub oracle
  for (int v : out.as<const int>()) EXPECT_EQ(v, 0);
}

TEST(Queue, TimelineAdvancesInOrder) {
  const Device dev = make_test_device();
  Buffer out(4 * sizeof(int));
  CommandQueue q(dev, {ExecMode::kTimingOnly, nullptr});
  const Kernel k = counting_kernel(dev, out);
  const double e1 = q.enqueue_nd_range(k, NDRange(4), NDRange(2));
  const double e2 = q.enqueue_nd_range(k, NDRange(4), NDRange(2));
  EXPECT_DOUBLE_EQ(e1, 1.0);
  EXPECT_DOUBLE_EQ(e2, 1.0);
  EXPECT_DOUBLE_EQ(q.total_kernel_ms(), 2.0);
}

TEST(Queue, InvalidLaunchThrowsWithStatus) {
  DeviceInfo info;
  info.max_work_group_size = 16;
  const Device dev = make_test_device(info);
  Buffer out(64 * sizeof(int));
  CommandQueue q(dev, {ExecMode::kTimingOnly, nullptr});
  const Kernel k = counting_kernel(dev, out);
  try {
    q.enqueue_nd_range(k, NDRange(64), NDRange(32));
    FAIL();
  } catch (const ClException& e) {
    EXPECT_EQ(e.status(), Status::kInvalidWorkGroupSize);
    EXPECT_TRUE(e.is_invalid_configuration());
  }
  // Failed launches add nothing to the kernel total.
  EXPECT_DOUBLE_EQ(q.total_kernel_ms(), 0.0);
}

TEST(Queue, FunctionalQueueRejectsBodylessKernel) {
  const Device dev = make_test_device();
  CompiledKernel ck;
  ck.name = "timing-only";
  const Kernel k(dev, std::move(ck));
  CommandQueue q(dev);
  EXPECT_THROW(q.enqueue_nd_range(k, NDRange(4), NDRange(2)), ClException);
}

TEST(Queue, RecordBuildAccumulates) {
  const Device dev = make_test_device();
  CommandQueue q(dev);
  q.record_build(12.5);
  q.record_build(7.5);
  EXPECT_DOUBLE_EQ(q.total_build_ms(), 20.0);
}

/// Counts kernel_time_ms calls: the archsim oracle advances its
/// measurement-noise counter on each one.
class CountingOracle final : public TimingOracle {
 public:
  double kernel_time_ms(const DeviceInfo&,
                        const LaunchDescriptor&) const override {
    return static_cast<double>(++calls);
  }
  double compile_time_ms(const DeviceInfo&,
                         const KernelProfile&) const override {
    return 0.0;
  }
  mutable int calls = 0;
};

TEST(Queue, EveryValidLaunchAsksTheOracleOnce) {
  DeviceInfo info;
  info.name = "counting-device";
  info.max_work_group_size = 16;
  const auto oracle = std::make_shared<CountingOracle>();
  const Device dev(info, oracle);
  Buffer out(64 * sizeof(int));
  const Kernel k = counting_kernel(dev, out);
  CommandQueue timing(dev, {ExecMode::kTimingOnly, nullptr});
  CommandQueue functional(dev);
  EXPECT_DOUBLE_EQ(timing.enqueue_nd_range(k, NDRange(8), NDRange(4)), 1.0);
  EXPECT_DOUBLE_EQ(functional.enqueue_nd_range(k, NDRange(8), NDRange(4)),
                   2.0);
  EXPECT_THROW(timing.enqueue_nd_range(k, NDRange(64), NDRange(32)),
               ClException);
  EXPECT_EQ(oracle->calls, 2);
}

}  // namespace
}  // namespace pt::clsim
