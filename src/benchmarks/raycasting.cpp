#include "benchmarks/raycasting.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace pt::benchkit {

// Shared data objects (handle semantics).
struct RaycastingBenchmark::Inputs {
  clsim::Buffer volume;    // volume^3 floats (densities)
  clsim::Image3D volume_image;
  clsim::Buffer tf;        // kTfEntries * 2 floats: (emission, alpha)
  clsim::Image2D tf_image; // same data as a 256x1 2-channel image
  clsim::Buffer output;    // width*height floats
};

namespace {

using Inputs = RaycastingBenchmark::Inputs;

struct RayData {
  std::shared_ptr<const OnDemand<Inputs>> inputs;
  std::size_t n;  // volume edge
  std::size_t width;
  std::size_t height;
  float termination_alpha;
};

struct RayConfig {
  int wg_x, wg_y, ppt_x, ppt_y;
  bool image_data, image_tf, local_tf, const_tf, interleaved;
  int unroll;
};

RayConfig decode_options(const clsim::BuildOptions& o) {
  RayConfig c{};
  c.wg_x = o.require("WG_X");
  c.wg_y = o.require("WG_Y");
  c.ppt_x = o.require("PPT_X");
  c.ppt_y = o.require("PPT_Y");
  c.image_data = o.require("IMAGE_DATA") != 0;
  c.image_tf = o.require("IMAGE_TF") != 0;
  c.local_tf = o.require("LOCAL_TF") != 0;
  c.const_tf = o.require("CONST_TF") != 0;
  c.interleaved = o.require("INTERLEAVED") != 0;
  c.unroll = o.require("UNROLL");
  return c;
}

clsim::KernelProfile make_profile(const RayData& data, const RayConfig& c,
                                  std::uint64_t fingerprint) {
  using clsim::AccessPattern;
  using clsim::MemorySpace;

  clsim::KernelProfile p;
  p.kernel_name = "raycasting";
  p.config_fingerprint = fingerprint;

  const double rays = static_cast<double>(c.ppt_x) * c.ppt_y;
  // Early ray termination cuts the average traversal depth.
  const double avg_steps = 0.6 * static_cast<double>(data.n);
  const std::size_t group_items =
      static_cast<std::size_t>(c.wg_x) * static_cast<std::size_t>(c.wg_y);

  p.flops_per_item = rays * avg_steps * 10.0;
  p.int_ops_per_item = rays * avg_steps * 6.0;
  p.divergence = 0.25;  // data-dependent early exit

  // Traversal loop, manually unrolled with preprocessor macros.
  clsim::LoopInfo march;
  march.trip_count = rays * avg_steps;
  march.unroll_factor = static_cast<std::size_t>(c.unroll);
  march.via_driver_pragma = false;
  p.loops.push_back(march);

  // Volume samples: one per step.
  clsim::MemoryStream vol;
  vol.space = c.image_data ? MemorySpace::kImage : MemorySpace::kGlobal;
  vol.pattern = c.image_data
                    ? AccessPattern::kTiled2D
                    : (c.interleaved ? AccessPattern::kCoalesced
                                     : AccessPattern::kStrided);
  vol.stride_bytes = static_cast<std::size_t>(c.ppt_x) * 4;
  vol.accesses_per_item = rays * avg_steps;
  vol.bytes_per_access = 4;
  // Several rays pass near each voxel when the image oversamples the volume.
  vol.reuse_factor = std::max(
      1.0, static_cast<double>(data.width) / static_cast<double>(data.n) *
               static_cast<double>(data.height) / static_cast<double>(data.n));
  p.streams.push_back(vol);

  // Transfer-function lookups: one per step, data-dependent index. The
  // 2 KiB table is cache-resident on every modern device; represent the
  // hit rate by shrinking the off-chip traffic for cached paths.
  clsim::MemoryStream tf;
  tf.accesses_per_item = rays * avg_steps;
  tf.bytes_per_access = 8;  // (emission, alpha) pair
  tf.pattern = AccessPattern::kRandom;
  if (c.local_tf) {
    tf.space = MemorySpace::kLocal;
    // Cooperative fill from the next level down (image/constant/global).
    clsim::MemoryStream fill;
    fill.space = c.image_tf ? MemorySpace::kImage
                            : (c.const_tf ? MemorySpace::kConstant
                                          : MemorySpace::kGlobal);
    fill.pattern = AccessPattern::kCoalesced;
    fill.accesses_per_item =
        static_cast<double>(RaycastingBenchmark::kTfEntries) /
        static_cast<double>(group_items);
    fill.bytes_per_access = 8;
    p.streams.push_back(fill);
    p.local_mem_bytes_per_group = RaycastingBenchmark::kTfEntries * 8;
    p.barriers_per_item = 1.0;
  } else if (c.const_tf) {
    tf.space = MemorySpace::kConstant;  // divergent constant reads serialize
    p.constant_mem_bytes = RaycastingBenchmark::kTfEntries * 8;
  } else if (c.image_tf) {
    tf.space = MemorySpace::kImage;
    tf.accesses_per_item *= 0.1;  // texture cache absorbs the hot table
  } else {
    tf.space = MemorySpace::kGlobal;
    tf.accesses_per_item *= 0.1;  // L1/L2-resident
  }
  p.streams.push_back(tf);

  clsim::MemoryStream stores;
  stores.space = MemorySpace::kGlobal;
  stores.pattern = (c.interleaved || c.ppt_x == 1)
                       ? AccessPattern::kCoalesced
                       : AccessPattern::kStrided;
  stores.stride_bytes = static_cast<std::size_t>(c.ppt_x) * 4;
  stores.accesses_per_item = rays;
  stores.bytes_per_access = 4;
  stores.is_write = true;
  p.streams.push_back(stores);

  p.registers_per_item = static_cast<std::size_t>(
      24.0 + 2.0 * c.unroll + std::min(48.0, rays * 2.0) +
      (c.local_tf ? 4.0 : 0.0));
  p.compile_complexity =
      1500.0 + 80.0 * c.unroll + (c.local_tf ? 300.0 : 0.0) +
      (c.image_data ? 200.0 : 0.0) + (c.image_tf ? 150.0 : 0.0);
  return p;
}

clsim::KernelBody make_body(RayData data, RayConfig c) {
  return [data, c](clsim::WorkItemCtx& ctx) -> clsim::WorkItemTask {
    const long n = static_cast<long>(data.n);
    const long width = static_cast<long>(data.width);
    const long height = static_cast<long>(data.height);
    const Inputs& bufs = data.inputs->get();
    const auto vol = ctx.view<const float>(bufs.volume, "volume");
    const auto tf_buf = ctx.view<const float>(bufs.tf, "tf");
    auto out = ctx.view<float>(bufs.output, "output");

    // Optionally stage the transfer function in local memory.
    clsim::CheckedSpan<float> tf_local;
    if (c.local_tf) {
      const long group_items = static_cast<long>(c.wg_x) * c.wg_y;
      const long lid = static_cast<long>(ctx.local_id(1)) * c.wg_x +
                       static_cast<long>(ctx.local_id(0));
      tf_local =
          ctx.local_view<float>(RaycastingBenchmark::kTfEntries * 2, "tf_local");
      for (long i = lid;
           i < static_cast<long>(RaycastingBenchmark::kTfEntries);
           i += group_items) {
        // Pull through the configured source space (functionally identical).
        if (c.image_tf) {
          tf_local[static_cast<std::size_t>(2 * i)] =
              bufs.tf_image.sample(i, 0, 0);
          tf_local[static_cast<std::size_t>(2 * i + 1)] =
              bufs.tf_image.sample(i, 0, 1);
        } else {
          tf_local[static_cast<std::size_t>(2 * i)] =
              tf_buf[static_cast<std::size_t>(2 * i)];
          tf_local[static_cast<std::size_t>(2 * i + 1)] =
              tf_buf[static_cast<std::size_t>(2 * i + 1)];
        }
      }
      co_await ctx.barrier();
    }

    auto sample_volume = [&](long vx, long vy, long vz) -> float {
      if (c.image_data) return bufs.volume_image.sample(vx, vy, vz);
      const long cx = std::clamp<long>(vx, 0, n - 1);
      const long cy = std::clamp<long>(vy, 0, n - 1);
      const long cz = std::clamp<long>(vz, 0, n - 1);
      return vol[static_cast<std::size_t>((cz * n + cy) * n + cx)];
    };
    auto lookup_tf = [&](int idx, float& emission, float& alpha) {
      if (c.local_tf) {
        emission = tf_local[static_cast<std::size_t>(2 * idx)];
        alpha = tf_local[static_cast<std::size_t>(2 * idx + 1)];
      } else if (c.image_tf) {
        emission = bufs.tf_image.sample(idx, 0, 0);
        alpha = bufs.tf_image.sample(idx, 0, 1);
      } else {
        // Constant and plain-global lookups read the same buffer.
        emission = tf_buf[static_cast<std::size_t>(2 * idx)];
        alpha = tf_buf[static_cast<std::size_t>(2 * idx + 1)];
      }
    };

    const long lx = static_cast<long>(ctx.local_id(0));
    const long ly = static_cast<long>(ctx.local_id(1));
    const long group_x = static_cast<long>(ctx.group_id(0));
    const long group_y = static_cast<long>(ctx.group_id(1));
    const long tile_x = group_x * c.wg_x * c.ppt_x;
    const long tile_y = group_y * c.wg_y * c.ppt_y;

    for (int ry = 0; ry < c.ppt_y; ++ry) {
      for (int rx = 0; rx < c.ppt_x; ++rx) {
        const long px = c.interleaved
                            ? tile_x + static_cast<long>(rx) * c.wg_x + lx
                            : (group_x * c.wg_x + lx) * c.ppt_x + rx;
        const long py = c.interleaved
                            ? tile_y + static_cast<long>(ry) * c.wg_y + ly
                            : (group_y * c.wg_y + ly) * c.ppt_y + ry;
        if (px >= width || py >= height) continue;

        const long vx = px * n / width;
        const long vy = py * n / height;
        float color = 0.0f;
        float acc_alpha = 0.0f;
        for (long z = 0; z < n; ++z) {
          const float dens = sample_volume(vx, vy, z);
          const int idx = std::clamp<int>(
              static_cast<int>(dens *
                               static_cast<float>(
                                   RaycastingBenchmark::kTfEntries)),
              0, static_cast<int>(RaycastingBenchmark::kTfEntries) - 1);
          float emission = 0.0f;
          float alpha = 0.0f;
          lookup_tf(idx, emission, alpha);
          color += (1.0f - acc_alpha) * alpha * emission;
          acc_alpha += (1.0f - acc_alpha) * alpha;
          if (acc_alpha > data.termination_alpha) break;
        }
        out[static_cast<std::size_t>(py * width + px)] = color;
      }
    }
    co_return;
  };
}

Inputs build_inputs(const RaycastingBenchmark::Geometry& g) {
  constexpr std::size_t kTfEntries = RaycastingBenchmark::kTfEntries;
  const std::size_t n = g.volume;
  Inputs bufs{clsim::Buffer(n * n * n * sizeof(float)),
              clsim::Image3D(n, n, n),
              clsim::Buffer(kTfEntries * 2 * sizeof(float)),
              clsim::Image2D(kTfEntries, 1, 2),
              clsim::Buffer(g.width * g.height * sizeof(float))};
  auto vol = bufs.volume.as<float>();
  auto img = bufs.volume_image.data();
  for (std::size_t z = 0; z < n; ++z)
    for (std::size_t y = 0; y < n; ++y)
      for (std::size_t x = 0; x < n; ++x) {
        const float v = RaycastingBenchmark::density(x, y, z);
        vol[(z * n + y) * n + x] = v;
        img[(z * n + y) * n + x] = v;
      }

  auto tf = bufs.tf.as<float>();
  auto tfi = bufs.tf_image.data();
  for (std::size_t i = 0; i < kTfEntries; ++i) {
    const double t = static_cast<double>(i) / (kTfEntries - 1);
    // Emission ramps up with density; opacity is low for "air", higher for
    // "tissue" — enough alpha variation to exercise early termination.
    const float emission = static_cast<float>(t * t);
    const float alpha = static_cast<float>(t > 0.55 ? 0.08 * t : 0.002);
    tf[2 * i] = emission;
    tf[2 * i + 1] = alpha;
    tfi[2 * i] = emission;
    tfi[2 * i + 1] = alpha;
  }
  return bufs;
}

}  // namespace

float RaycastingBenchmark::density(std::size_t x, std::size_t y,
                                   std::size_t z) noexcept {
  const double fx = static_cast<double>(x);
  const double fy = static_cast<double>(y);
  const double fz = static_cast<double>(z);
  const double v = 0.5 + 0.2 * std::sin(0.21 * fx + 0.1 * fz) +
                   0.2 * std::cos(0.17 * fy) +
                   0.1 * std::sin(0.05 * (fx + fy + fz));
  return static_cast<float>(std::clamp(v, 0.0, 0.999));
}

RaycastingBenchmark::RaycastingBenchmark(const Geometry& geometry)
    : geometry_(geometry),
      inputs_(geometry.volume <= kMaxFunctionalVolume
                  ? std::make_shared<const OnDemand<Inputs>>(
                        [geometry] { return build_inputs(geometry); })
                  : nullptr),
      program_("raycasting") {
  build_space();
  build_program();
}

void RaycastingBenchmark::build_space() {
  const std::vector<int> pow2 = {1, 2, 4, 8, 16, 32, 64, 128};
  const std::vector<int> onoff = {0, 1};
  space_.add("WG_X", pow2);
  space_.add("WG_Y", pow2);
  space_.add("PPT_X", pow2);
  space_.add("PPT_Y", pow2);
  space_.add("IMAGE_DATA", onoff);
  space_.add("IMAGE_TF", onoff);
  space_.add("LOCAL_TF", onoff);
  space_.add("CONST_TF", onoff);
  space_.add("INTERLEAVED", onoff);
  space_.add("UNROLL", {1, 2, 4, 8, 16});
}

void RaycastingBenchmark::build_program() {
  RayData data{inputs_, geometry_.volume, geometry_.width, geometry_.height,
               geometry_.termination_alpha};
  program_.add_kernel(
      "raycasting",
      [data](const clsim::DeviceInfo& /*device*/,
             const clsim::BuildOptions& options) -> clsim::CompiledKernel {
        const RayConfig c = decode_options(options);
        if (static_cast<std::size_t>(c.ppt_x) > data.width ||
            static_cast<std::size_t>(c.ppt_y) > data.height)
          throw clsim::ClException(clsim::Status::kBuildProgramFailure,
                                   "rays per thread exceed the image extent");
        const std::uint64_t fp = clsim::fingerprint_values(
            {c.wg_x, c.wg_y, c.ppt_x, c.ppt_y, c.image_data, c.image_tf,
             c.local_tf, c.const_tf, c.interleaved, c.unroll},
            clsim::fnv1a("raycasting", 10));
        clsim::CompiledKernel compiled;
        compiled.name = "raycasting";
        compiled.profile = make_profile(data, c, fp);
        if (data.inputs != nullptr) {
          compiled.body = make_body(data, c);
        } else {
          compiled.body = [](clsim::WorkItemCtx&) -> clsim::WorkItemTask {
            throw clsim::ClException(
                clsim::Status::kInvalidOperation,
                "raycasting volume not materialized (timing-only instance; "
                "construct with Geometry::volume <= kMaxFunctionalVolume "
                "for functional runs)");
            co_return;  // unreachable; makes this lambda a coroutine
          };
        }
        return compiled;
      });
}

clsim::analyze::KernelConstraints RaycastingBenchmark::constraints() const {
  namespace az = clsim::analyze;
  using Cat = az::ConstraintCategory;
  using Rel = az::Relation;
  using DL = az::DeviceLimit;
  const auto lim = az::AffineExpr::device_limit;
  const auto c = az::cexpr;
  const az::AffineExpr none;

  az::KernelConstraints kc;
  kc.kernel_name = name_;
  kc.domain = make_param_domain(space_);
  const az::ParamDomain& dom = kc.domain;

  const az::AffineExpr wg_x = az::param_expr(dom, "WG_X");
  const az::AffineExpr wg_y = az::param_expr(dom, "WG_Y");
  const az::AffineExpr ppt_x = az::param_expr(dom, "PPT_X");
  const az::AffineExpr ppt_y = az::param_expr(dom, "PPT_Y");
  const az::AffineExpr image_data = az::param_expr(dom, "IMAGE_DATA");
  const az::AffineExpr image_tf = az::param_expr(dom, "IMAGE_TF");
  const az::AffineExpr local_tf = az::param_expr(dom, "LOCAL_TF");
  const az::AffineExpr const_tf = az::param_expr(dom, "CONST_TF");
  const az::AffineExpr unroll = az::param_expr(dom, "UNROLL");

  const double tf_bytes = static_cast<double>(kTfEntries) * 8.0;

  kc.constraints.push_back({"wg_x_item_limit", Cat::kWorkGroupGeometry, wg_x,
                            Rel::kLessEqual, lim(DL::kMaxWorkItem0), none});
  kc.constraints.push_back({"wg_y_item_limit", Cat::kWorkGroupGeometry, wg_y,
                            Rel::kLessEqual, lim(DL::kMaxWorkItem1), none});
  kc.constraints.push_back({"group_size_limit", Cat::kWorkGroupGeometry,
                            wg_x * wg_y, Rel::kLessEqual,
                            lim(DL::kMaxWorkGroupSize), none});

  kc.constraints.push_back({"ppt_x_within_width", Cat::kBuildPrecondition,
                            ppt_x, Rel::kLessEqual,
                            c(static_cast<double>(geometry_.width)), none});
  kc.constraints.push_back({"ppt_y_within_height", Cat::kBuildPrecondition,
                            ppt_y, Rel::kLessEqual,
                            c(static_cast<double>(geometry_.height)), none});

  // Staged transfer function: local memory when LOCAL_TF, constant memory
  // only on the CONST_TF-without-LOCAL_TF path (the profile's else-if).
  kc.constraints.push_back({"tf_local_budget", Cat::kLocalMemory,
                            c(tf_bytes), Rel::kLessEqual,
                            lim(DL::kLocalMemBytes), local_tf});
  kc.constraints.push_back({"tf_constant_budget", Cat::kConstantMemory,
                            c(tf_bytes), Rel::kLessEqual,
                            lim(DL::kConstantMemBytes),
                            const_tf * (c(1.0) - local_tf)});

  // Mirrors make_profile's registers_per_item (size_t truncation included).
  const az::AffineExpr regs_per_item =
      floor(c(24.0) + c(2.0) * unroll +
            min(c(48.0), ppt_x * ppt_y * c(2.0)) +
            select(local_tf, c(4.0), c(0.0)));
  kc.constraints.push_back({"register_file_budget", Cat::kRegisters,
                            regs_per_item * (wg_x * wg_y), Rel::kLessEqual,
                            lim(DL::kRegistersPerCu), none});

  // Image usage follows the profile's stream selection: the volume when
  // IMAGE_DATA, and the transfer function when IMAGE_TF feeds either the
  // local-tile fill or the direct path not shadowed by CONST_TF.
  const az::AffineExpr uses_image =
      max(image_data, image_tf * max(local_tf, c(1.0) - const_tf));
  kc.constraints.push_back({"image_support", Cat::kImageSupport, c(1.0),
                            Rel::kLessEqual, lim(DL::kImagesSupported),
                            uses_image});

  // The tf-staging barrier executes on every LOCAL_TF launch, outside all
  // divergent control flow.
  kc.constraints.push_back({"tf_fill_barrier_uniform",
                            Cat::kBarrierUniformity, c(0.0), Rel::kLessEqual,
                            c(0.0), local_tf});

  kc.complete = true;
  return kc;
}

clsim::BuildOptions RaycastingBenchmark::build_options(
    const tuner::Configuration& config) const {
  clsim::BuildOptions options;
  for (std::size_t d = 0; d < space_.dimension_count(); ++d)
    options.define(space_.parameter(d).name, config.values[d]);
  return options;
}

LaunchPlan RaycastingBenchmark::prepare(
    const clsim::Device& device, const tuner::Configuration& config) const {
  const clsim::BuildOptions options = build_options(config);
  auto [kernel, build_ms] =
      program_.build_kernel(device, "raycasting", options);
  const auto ppt_x = static_cast<std::size_t>(space_.value_of(config, "PPT_X"));
  const auto ppt_y = static_cast<std::size_t>(space_.value_of(config, "PPT_Y"));
  const auto wg_x = static_cast<std::size_t>(space_.value_of(config, "WG_X"));
  const auto wg_y = static_cast<std::size_t>(space_.value_of(config, "WG_Y"));
  auto round_up = [](std::size_t need, std::size_t wg) {
    return (need + wg - 1) / wg * wg;
  };
  const std::size_t need_x = (geometry_.width + ppt_x - 1) / ppt_x;
  const std::size_t need_y = (geometry_.height + ppt_y - 1) / ppt_y;
  return LaunchPlan{std::move(kernel),
                    clsim::NDRange(round_up(need_x, wg_x),
                                   round_up(need_y, wg_y)),
                    clsim::NDRange(wg_x, wg_y), build_ms};
}

const RaycastingBenchmark::Inputs& RaycastingBenchmark::functional_inputs()
    const {
  if (inputs_ == nullptr)
    throw std::logic_error(
        "RaycastingBenchmark: timing-only instance (volume > "
        "kMaxFunctionalVolume)");
  return inputs_->get();
}

double RaycastingBenchmark::run_functional(const clsim::Device& device,
                                           const tuner::Configuration& config,
                                           clsim::CheckReport* report) const {
  const Inputs& bufs = functional_inputs();
  LaunchPlan plan = prepare(device, config);
  auto out = bufs.output.as<float>();
  std::fill(out.begin(), out.end(), -1.0f);

  clsim::CommandQueue::Options options{clsim::ExecMode::kFunctional, nullptr};
  if (report != nullptr) options.check = clsim::CheckMode::kOn;
  clsim::CommandQueue queue(device, options);
  queue.enqueue_nd_range(plan.kernel, plan.global, plan.local);
  if (report != nullptr) *report = queue.check_report();

  const auto expected = reference();
  double max_err = 0.0;
  for (std::size_t i = 0; i < expected.size(); ++i)
    max_err = std::max(max_err,
                       static_cast<double>(std::abs(out[i] - expected[i])));
  return max_err;
}

double RaycastingBenchmark::verify(const clsim::Device& device,
                                   const tuner::Configuration& config) const {
  return run_functional(device, config, nullptr);
}

CheckedVerification RaycastingBenchmark::verify_checked(
    const clsim::Device& device, const tuner::Configuration& config) const {
  CheckedVerification result;
  result.max_abs_error = run_functional(device, config, &result.report);
  return result;
}

std::vector<float> RaycastingBenchmark::reference() const {
  const long n = static_cast<long>(geometry_.volume);
  const long width = static_cast<long>(geometry_.width);
  const long height = static_cast<long>(geometry_.height);
  const Inputs& bufs = functional_inputs();
  const auto vol = bufs.volume.as<const float>();
  const auto tf = bufs.tf.as<const float>();
  std::vector<float> out(static_cast<std::size_t>(width * height));
  for (long py = 0; py < height; ++py) {
    for (long px = 0; px < width; ++px) {
      const long vx = px * n / width;
      const long vy = py * n / height;
      float color = 0.0f;
      float acc_alpha = 0.0f;
      for (long z = 0; z < n; ++z) {
        const float dens = vol[static_cast<std::size_t>((z * n + vy) * n + vx)];
        const int idx = std::clamp<int>(
            static_cast<int>(dens * static_cast<float>(kTfEntries)), 0,
            static_cast<int>(kTfEntries) - 1);
        const float emission = tf[static_cast<std::size_t>(2 * idx)];
        const float alpha = tf[static_cast<std::size_t>(2 * idx + 1)];
        color += (1.0f - acc_alpha) * alpha * emission;
        acc_alpha += (1.0f - acc_alpha) * alpha;
        if (acc_alpha > geometry_.termination_alpha) break;
      }
      out[static_cast<std::size_t>(py * width + px)] = color;
    }
  }
  return out;
}

}  // namespace pt::benchkit
