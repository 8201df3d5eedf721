#include "clsim/queue.hpp"

#include <string>

#include "common/telemetry/telemetry.hpp"

namespace pt::clsim {

namespace tel = pt::common::telemetry;

CommandQueue::CommandQueue(Device device, Options options)
    : device_(std::move(device)), options_(options) {}

double CommandQueue::enqueue_nd_range(const Kernel& kernel,
                                      const NDRange& global,
                                      const NDRange& local) {
  const Status status = kernel.validate_launch(global, local);
  if (status != Status::kSuccess) {
    if (tel::enabled())
      tel::count(std::string("clsim.launch.rejected.") + to_string(status));
    throw ClException(status, "enqueue_nd_range of " + kernel.name() + " " +
                                  to_string(global) + "/" + to_string(local));
  }

  LaunchDescriptor launch;
  launch.profile = &kernel.profile();
  launch.global = global;
  launch.local = local;
  launch.local_mem_bytes = kernel.profile().local_mem_bytes_per_group;

  const double duration =
      device_.oracle().kernel_time_ms(device_.info(), launch);

  if (options_.mode == ExecMode::kFunctional) {
    if (!kernel.body())
      throw ClException(Status::kInvalidOperation,
                        "functional queue but kernel " + kernel.name() +
                            " has no body");
    const tel::Span exec_span(
        tel::enabled() ? "clsim.exec." + kernel.name() : std::string());
    if (options_.check == CheckMode::kOn) {
      check::LaunchCheckState launch_check(kernel.name(), &check_report_);
      NDRangeExecutor executor(nullptr);
      executor.run(global, local, kernel.profile().local_mem_bytes_per_group,
                   kernel.body(), &launch_check);
    } else {
      NDRangeExecutor executor(options_.pool, options_.executor);
      executor.run(global, local, kernel.profile().local_mem_bytes_per_group,
                   kernel.body(), nullptr, &kernel.profile());
    }
  }

  total_kernel_ms_ += duration;
  if (tel::enabled()) {
    tel::count("clsim.launches");
    tel::count("clsim.sim_kernel_ms", duration);
    // Per-kernel simulated-time attribution.
    tel::count("clsim.sim_kernel_ms." + kernel.name(), duration);
  }
  return duration;
}

void CommandQueue::record_build(double build_time_ms) {
  total_build_ms_ += build_time_ms;
  if (tel::enabled()) {
    tel::count("clsim.builds");
    tel::count("clsim.sim_build_ms", build_time_ms);
  }
}

}  // namespace pt::clsim
