#include "clsim/kernel.hpp"

namespace pt::clsim {

int BuildOptions::require(const std::string& name) const {
  const auto it = defines_.find(name);
  if (it == defines_.end())
    throw ClException(Status::kBuildProgramFailure,
                      "missing required define " + name);
  return it->second;
}

Kernel::Kernel(Device device, CompiledKernel compiled)
    : device_(std::move(device)),
      compiled_(std::make_shared<const CompiledKernel>(std::move(compiled))) {}

Status Kernel::validate_launch(const NDRange& global,
                               const NDRange& local) const noexcept {
  const DeviceInfo& dev = device_.info();
  const std::size_t dims = global.dimensions();
  if (dims == 0 || dims > 3) return Status::kInvalidWorkDimension;
  if (local.dimensions() != dims) return Status::kInvalidWorkGroupSize;

  for (std::size_t d = 0; d < dims; ++d) {
    if (local[d] == 0) return Status::kInvalidWorkGroupSize;
    if (local[d] > dev.max_work_item_sizes[d]) return Status::kInvalidWorkItemSize;
    if (global[d] % local[d] != 0) return Status::kInvalidWorkGroupSize;
  }
  const std::size_t group_items = local.total();
  if (group_items > dev.max_work_group_size)
    return Status::kInvalidWorkGroupSize;

  const KernelProfile& prof = compiled_->profile;
  if (prof.local_mem_bytes_per_group > dev.local_mem_bytes)
    return Status::kOutOfLocalMemory;
  if (prof.constant_mem_bytes > dev.constant_mem_bytes)
    return Status::kOutOfResources;
  // A group must fit the register file of one compute unit.
  if (prof.registers_per_item * group_items > dev.registers_per_cu)
    return Status::kOutOfResources;
  if (prof.uses_space(MemorySpace::kImage) && !dev.images_supported)
    return Status::kInvalidOperation;
  return Status::kSuccess;
}

void Program::add_kernel(const std::string& kernel_name,
                         KernelFactory factory) {
  if (!factory)
    throw ClException(Status::kInvalidValue, "null kernel factory");
  factories_[kernel_name] = std::move(factory);
}

std::pair<Kernel, double> Program::build_kernel(
    const Device& device, const std::string& kernel_name,
    const BuildOptions& options) const {
  const auto it = factories_.find(kernel_name);
  if (it == factories_.end())
    throw ClException(Status::kInvalidKernelName,
                      "no kernel named " + kernel_name + " in program " +
                          name_);
  CompiledKernel compiled = it->second(device.info(), options);
  const double build_ms =
      device.oracle().compile_time_ms(device.info(), compiled.profile);
  return {Kernel(device, std::move(compiled)), build_ms};
}

}  // namespace pt::clsim
