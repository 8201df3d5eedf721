// Extending the library with your own tunable kernel: a tiled matrix
// transpose with four tuning parameters. Shows the full recipe —
//   1. define a ParamSpace,
//   2. write a kernel factory (functional body + static KernelProfile),
//   3. implement TunableBenchmark,
//   4. hand it to the auto-tuner.
//
// The transpose is the classic coalescing case study: reading rows while
// writing columns leaves one side uncoalesced unless a local-memory tile
// rotates the access pattern.

#include <algorithm>
#include <iostream>

#include "archsim/devices.hpp"
#include "benchmarks/benchmark.hpp"
#include "common/cli.hpp"
#include "common/table.hpp"
#include "tuner/autotuner.hpp"

namespace {

using namespace pt;

class TransposeBenchmark final : public benchkit::TunableBenchmark {
 public:
  explicit TransposeBenchmark(std::size_t n = 2048)
      : n_(n),
        input_(n * n * sizeof(float)),
        output_(n * n * sizeof(float)),
        program_("transpose") {
    auto in = input_.as<float>();
    for (std::size_t i = 0; i < in.size(); ++i)
      in[i] = static_cast<float>(i % 1013) * 0.25f;

    // 1. The tuning space: square tile size, work per thread, local tile
    //    on/off, +1 padding of the local tile against bank conflicts.
    space_.add("TILE", {4, 8, 16, 32, 64});
    space_.add("ROWS_PER_THREAD", {1, 2, 4, 8});
    space_.add("USE_LOCAL", {0, 1});
    space_.add("PAD_LOCAL", {0, 1});

    // 2. The kernel factory.
    const clsim::Buffer input = input_;
    const clsim::Buffer output = output_;
    const std::size_t size = n_;
    program_.add_kernel(
        "transpose",
        [input, output, size](const clsim::DeviceInfo&,
                              const clsim::BuildOptions& options) {
          const int tile = options.require("TILE");
          const int rows = options.require("ROWS_PER_THREAD");
          const bool use_local = options.require("USE_LOCAL") != 0;
          const bool pad = options.require("PAD_LOCAL") != 0;
          if (rows > tile)
            throw clsim::ClException(clsim::Status::kBuildProgramFailure,
                                     "ROWS_PER_THREAD exceeds TILE");

          clsim::CompiledKernel compiled;
          compiled.name = "transpose";
          // --- static profile for the timing model ---
          auto& p = compiled.profile;
          p.kernel_name = "transpose";
          p.config_fingerprint = clsim::fingerprint_values(
              {tile, rows, use_local, pad}, clsim::fnv1a("transpose", 9));
          p.flops_per_item = 0.0;
          p.int_ops_per_item = 6.0 * rows;
          clsim::MemoryStream loads;
          loads.accesses_per_item = rows;
          loads.bytes_per_access = 4;
          loads.pattern = clsim::AccessPattern::kCoalesced;
          p.streams.push_back(loads);
          clsim::MemoryStream stores;
          stores.accesses_per_item = rows;
          stores.bytes_per_access = 4;
          stores.is_write = true;
          // The point of the local tile: without it, stores stride by a
          // full row; with it, both sides are coalesced.
          stores.pattern = use_local ? clsim::AccessPattern::kCoalesced
                                     : clsim::AccessPattern::kStrided;
          stores.stride_bytes = size * 4;
          p.streams.push_back(stores);
          if (use_local) {
            clsim::MemoryStream lds;
            lds.space = clsim::MemorySpace::kLocal;
            lds.accesses_per_item = 2.0 * rows;
            lds.bytes_per_access = 4;
            lds.pattern = pad ? clsim::AccessPattern::kCoalesced
                              : clsim::AccessPattern::kStrided;
            lds.stride_bytes = static_cast<std::size_t>(tile) * 4;
            p.streams.push_back(lds);
            p.local_mem_bytes_per_group =
                static_cast<std::size_t>(tile) * (tile + (pad ? 1 : 0)) * 4;
            p.barriers_per_item = 1.0;
          }
          p.registers_per_item = 12 + rows;
          p.compile_complexity = 400.0 + (use_local ? 150.0 : 0.0);

          // --- functional body ---
          compiled.body = [input, output, size, tile, rows, use_local,
                           pad](clsim::WorkItemCtx& ctx)
              -> clsim::WorkItemTask {
            const auto src = ctx.view<const float>(input, "input");
            auto out = ctx.view<float>(output, "output");
            const long lt = tile;
            const long stride = pad ? lt + 1 : lt;
            const long gx = static_cast<long>(ctx.group_id(0)) * lt +
                            static_cast<long>(ctx.local_id(0));
            const long base_y = static_cast<long>(ctx.group_id(1)) * lt;
            const long ly = static_cast<long>(ctx.local_id(1)) * rows;
            if (use_local) {
              auto scratch = ctx.local_view<float>(
                  static_cast<std::size_t>(lt * stride), "scratch");
              for (long r = 0; r < rows; ++r) {
                const long y = base_y + ly + r;
                if (gx < static_cast<long>(size) &&
                    y < static_cast<long>(size)) {
                  scratch[static_cast<std::size_t>(
                      (ly + r) * stride + ctx.local_id(0))] =
                      src[static_cast<std::size_t>(y * size + gx)];
                }
              }
              co_await ctx.barrier();
              // Write transposed: swap roles of x and y within the tile.
              const long ox = base_y + static_cast<long>(ctx.local_id(0));
              for (long r = 0; r < rows; ++r) {
                const long oy = static_cast<long>(ctx.group_id(0)) * lt +
                                ly + r;
                if (ox < static_cast<long>(size) &&
                    oy < static_cast<long>(size)) {
                  out[static_cast<std::size_t>(oy * size + ox)] =
                      scratch[static_cast<std::size_t>(
                          ctx.local_id(0) * stride + ly + r)];
                }
              }
            } else {
              for (long r = 0; r < rows; ++r) {
                const long y = base_y + ly + r;
                if (gx < static_cast<long>(size) &&
                    y < static_cast<long>(size)) {
                  out[static_cast<std::size_t>(gx * size + y)] =
                      src[static_cast<std::size_t>(y * size + gx)];
                }
              }
            }
            co_return;
          };
          return compiled;
        });
  }

  const std::string& name() const noexcept override { return name_; }
  const tuner::ParamSpace& space() const noexcept override { return space_; }

  clsim::BuildOptions build_options(
      const tuner::Configuration& config) const override {
    clsim::BuildOptions options;
    for (std::size_t d = 0; d < space_.dimension_count(); ++d)
      options.define(space_.parameter(d).name, config.values[d]);
    return options;
  }

  benchkit::LaunchPlan prepare(
      const clsim::Device& device,
      const tuner::Configuration& config) const override {
    auto [kernel, build_ms] =
        program_.build_kernel(device, "transpose", build_options(config));
    const auto tile = static_cast<std::size_t>(space_.value_of(config, "TILE"));
    const auto rows =
        static_cast<std::size_t>(space_.value_of(config, "ROWS_PER_THREAD"));
    const std::size_t groups = (n_ + tile - 1) / tile;
    return benchkit::LaunchPlan{
        std::move(kernel),
        clsim::NDRange(groups * tile, groups * (tile / rows)),
        clsim::NDRange(tile, tile / rows), build_ms};
  }

  double verify(const clsim::Device& device,
                const tuner::Configuration& config) const override {
    return run_functional(device, config, nullptr);
  }

  benchkit::CheckedVerification verify_checked(
      const clsim::Device& device,
      const tuner::Configuration& config) const override {
    benchkit::CheckedVerification result;
    result.max_abs_error = run_functional(device, config, &result.report);
    return result;
  }

 private:
  double run_functional(const clsim::Device& device,
                        const tuner::Configuration& config,
                        clsim::CheckReport* report) const {
    auto plan = prepare(device, config);
    auto out = output_.as<float>();
    std::fill(out.begin(), out.end(), -1.0f);
    clsim::CommandQueue::Options options{clsim::ExecMode::kFunctional,
                                         nullptr};
    if (report != nullptr) options.check = clsim::CheckMode::kOn;
    clsim::CommandQueue queue(device, options);
    queue.enqueue_nd_range(plan.kernel, plan.global, plan.local);
    if (report != nullptr) *report = queue.check_report();
    const auto in = input_.as<const float>();
    double max_err = 0.0;
    for (std::size_t y = 0; y < n_; ++y)
      for (std::size_t x = 0; x < n_; ++x)
        max_err = std::max(
            max_err,
            static_cast<double>(std::abs(out[x * n_ + y] - in[y * n_ + x])));
    return max_err;
  }

 private:
  std::string name_ = "transpose";
  std::size_t n_;
  tuner::ParamSpace space_;
  clsim::Buffer input_;
  clsim::Buffer output_;
  clsim::Program program_;
};

}  // namespace

int main(int argc, char** argv) {
  const common::CliArgs args(argc, argv);
  common::apply_thread_option(args);
  const clsim::Platform platform = archsim::default_platform();

  // Functional check on a small instance first.
  {
    const TransposeBenchmark small(64);
    const clsim::Device cpu = platform.device_by_name(archsim::kIntelI7);
    common::Rng rng(1);
    int checked = 0;
    for (int i = 0; i < 20 && checked < 5; ++i) {
      const auto config = small.space().random(rng);
      try {
        const double err = small.verify(cpu, config);
        if (err != 0.0) {
          std::cout << "FUNCTIONAL MISMATCH for "
                    << small.space().to_string(config) << "\n";
          return 1;
        }
        ++checked;
      } catch (const clsim::ClException& e) {
        if (!e.is_invalid_configuration()) throw;
      }
    }
    std::cout << "functional check: " << checked
              << " random configurations verified\n";
  }

  // Tune the full-size transpose on every main device.
  const TransposeBenchmark benchmark;
  common::Table table({"Device", "Best config (TILE, RPT, LOCAL, PAD)",
                       "Time"});
  for (const char* device_name :
       {archsim::kIntelI7, archsim::kNvidiaK40, archsim::kAmdHd7970}) {
    benchkit::BenchmarkEvaluator evaluator(
        benchmark, platform.device_by_name(device_name));
    tuner::AutoTunerOptions options;
    options.training_samples =
        static_cast<std::size_t>(args.get("training", 80L));
    options.second_stage_size = 10;
    const auto seed = static_cast<std::uint64_t>(args.get("seed", 2L));
    const auto result = tuner::AutoTuner(options).tune(
        evaluator, tuner::TuneRun::with_seed(seed));
    table.add_row({device_name,
                   result.success
                       ? benchmark.space().to_string(result.best_config)
                       : "no prediction",
                   result.success ? common::fmt_time_ms(result.best_time_ms)
                                  : "-"});
  }
  table.print(std::cout);
  return 0;
}
