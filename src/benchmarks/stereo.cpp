#include "benchmarks/stereo.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <vector>

namespace pt::benchkit {

// Shared data objects (handle semantics).
struct StereoBenchmark::Inputs {
  clsim::Buffer left;
  clsim::Buffer right;
  clsim::Image2D left_image;
  clsim::Image2D right_image;
  clsim::Buffer output;  // disparity per pixel (float)
};

namespace {

using Inputs = StereoBenchmark::Inputs;

struct StereoData {
  std::shared_ptr<const OnDemand<Inputs>> inputs;
  std::size_t width;
  std::size_t height;
  int max_disparity;
  int window_radius;
};

struct StereoConfig {
  int wg_x, wg_y, ppt_x, ppt_y;
  bool image_left, image_right, local_left, local_right;
  int unroll_disp, unroll_dx, unroll_dy;
};

StereoConfig decode_options(const clsim::BuildOptions& o) {
  StereoConfig c{};
  c.wg_x = o.require("WG_X");
  c.wg_y = o.require("WG_Y");
  c.ppt_x = o.require("PPT_X");
  c.ppt_y = o.require("PPT_Y");
  c.image_left = o.require("IMAGE_LEFT") != 0;
  c.image_right = o.require("IMAGE_RIGHT") != 0;
  c.local_left = o.require("LOCAL_LEFT") != 0;
  c.local_right = o.require("LOCAL_RIGHT") != 0;
  c.unroll_disp = o.require("UNROLL_DISP");
  c.unroll_dx = o.require("UNROLL_DX");
  c.unroll_dy = o.require("UNROLL_DY");
  return c;
}

/// Left tile: the group's output footprint plus the window halo.
std::size_t left_tile_w(const StereoConfig& c, const StereoData& d) {
  return static_cast<std::size_t>(c.wg_x * c.ppt_x + 2 * d.window_radius);
}
std::size_t tile_h(const StereoConfig& c, const StereoData& d) {
  return static_cast<std::size_t>(c.wg_y * c.ppt_y + 2 * d.window_radius);
}
/// Right tile additionally extends max_disparity pixels to the left.
std::size_t right_tile_w(const StereoConfig& c, const StereoData& d) {
  return left_tile_w(c, d) + static_cast<std::size_t>(d.max_disparity);
}

clsim::KernelProfile make_profile(const StereoData& data,
                                  const StereoConfig& c,
                                  std::uint64_t fingerprint) {
  using clsim::AccessPattern;
  using clsim::MemorySpace;

  clsim::KernelProfile p;
  p.kernel_name = "stereo";
  p.config_fingerprint = fingerprint;

  const double outputs = static_cast<double>(c.ppt_x) * c.ppt_y;
  const int w = 2 * data.window_radius + 1;
  const double taps = static_cast<double>(w * w);
  const double disparities = static_cast<double>(data.max_disparity);
  const std::size_t group_items =
      static_cast<std::size_t>(c.wg_x) * static_cast<std::size_t>(c.wg_y);

  // SAD: subtract, abs, accumulate per tap per disparity; plus the running
  // minimum update per disparity.
  p.flops_per_item = outputs * (disparities * taps * 3.0 + disparities * 2.0);
  p.int_ops_per_item = outputs * disparities * taps * 1.5;
  p.divergence = 0.05;  // min-update branch

  // Loop nest, all unrolled via driver pragmas (the AMD-unfriendly path).
  clsim::LoopInfo disp_loop;
  disp_loop.trip_count = outputs * disparities;
  disp_loop.unroll_factor = static_cast<std::size_t>(c.unroll_disp);
  disp_loop.via_driver_pragma = true;
  p.loops.push_back(disp_loop);
  clsim::LoopInfo dy_loop;
  dy_loop.trip_count = outputs * disparities * w;
  dy_loop.unroll_factor = static_cast<std::size_t>(c.unroll_dy);
  dy_loop.via_driver_pragma = true;
  p.loops.push_back(dy_loop);
  clsim::LoopInfo dx_loop;
  dx_loop.trip_count = outputs * disparities * taps;
  dx_loop.unroll_factor = static_cast<std::size_t>(c.unroll_dx);
  dx_loop.via_driver_pragma = true;
  p.loops.push_back(dx_loop);

  std::size_t local_bytes = 0;
  double barriers = 0.0;

  auto add_side = [&](bool use_image, bool use_local, std::size_t tile_w,
                      double reuse) {
    if (use_local) {
      clsim::MemoryStream fill;
      fill.space = use_image ? MemorySpace::kImage : MemorySpace::kGlobal;
      fill.pattern = AccessPattern::kCoalesced;
      fill.accesses_per_item =
          static_cast<double>(tile_w) * static_cast<double>(tile_h(c, data)) /
          static_cast<double>(group_items);
      fill.bytes_per_access = 4;
      p.streams.push_back(fill);
      clsim::MemoryStream reads;
      reads.space = MemorySpace::kLocal;
      reads.pattern = AccessPattern::kStrided;
      reads.stride_bytes = static_cast<std::size_t>(c.ppt_x) * 4;
      reads.accesses_per_item = outputs * disparities * taps;
      reads.bytes_per_access = 4;
      p.streams.push_back(reads);
      local_bytes += tile_w * tile_h(c, data) * 4;
      barriers = 1.0;
    } else {
      clsim::MemoryStream reads;
      reads.space = use_image ? MemorySpace::kImage : MemorySpace::kGlobal;
      reads.pattern = AccessPattern::kTiled2D;
      reads.accesses_per_item = outputs * disparities * taps;
      reads.bytes_per_access = 4;
      reads.reuse_factor = reuse;  // window + disparity overlap
      p.streams.push_back(reads);
    }
  };
  // The left window repeats identically across the disparity loop; the
  // right window slides, so its effective reuse is lower.
  add_side(c.image_left, c.local_left, left_tile_w(c, data),
           taps * disparities * 0.5);
  add_side(c.image_right, c.local_right, right_tile_w(c, data),
           taps * 4.0);

  clsim::MemoryStream stores;
  stores.space = MemorySpace::kGlobal;
  stores.pattern = (c.ppt_x == 1) ? AccessPattern::kCoalesced
                                  : AccessPattern::kStrided;
  stores.stride_bytes = static_cast<std::size_t>(c.ppt_x) * 4;
  stores.accesses_per_item = outputs;
  stores.bytes_per_access = 4;
  stores.is_write = true;
  p.streams.push_back(stores);

  p.local_mem_bytes_per_group = local_bytes;
  p.barriers_per_item = barriers;
  p.registers_per_item = static_cast<std::size_t>(
      20.0 + 2.0 * c.unroll_disp + 1.5 * (c.unroll_dx + c.unroll_dy) +
      std::min(64.0, outputs * 1.5) +
      ((c.local_left || c.local_right) ? 6.0 : 0.0));
  // Unroll combinations multiply generated code size.
  p.compile_complexity =
      1800.0 +
      30.0 * static_cast<double>(c.unroll_disp * c.unroll_dx * c.unroll_dy) +
      (c.local_left ? 250.0 : 0.0) + (c.local_right ? 250.0 : 0.0) +
      (c.image_left ? 120.0 : 0.0) + (c.image_right ? 120.0 : 0.0);
  return p;
}

clsim::KernelBody make_body(StereoData data, StereoConfig c) {
  return [data, c](clsim::WorkItemCtx& ctx) -> clsim::WorkItemTask {
    const long width = static_cast<long>(data.width);
    const long height = static_cast<long>(data.height);
    const int rad = data.window_radius;
    const int max_d = data.max_disparity;
    const Inputs& bufs = data.inputs->get();
    const auto left = ctx.view<const float>(bufs.left, "left");
    const auto right = ctx.view<const float>(bufs.right, "right");
    auto out = ctx.view<float>(bufs.output, "output");

    const long lx = static_cast<long>(ctx.local_id(0));
    const long ly = static_cast<long>(ctx.local_id(1));
    const long group_x = static_cast<long>(ctx.group_id(0));
    const long group_y = static_cast<long>(ctx.group_id(1));
    const long group_items = static_cast<long>(c.wg_x) * c.wg_y;
    const long lid = ly * c.wg_x + lx;

    const long tile_out_x = group_x * c.wg_x * c.ppt_x;
    const long tile_out_y = group_y * c.wg_y * c.ppt_y;

    auto load_left_direct = [&](long x, long y) -> float {
      if (c.image_left) return bufs.left_image.sample(x, y);
      const long cx = std::clamp<long>(x, 0, width - 1);
      const long cy = std::clamp<long>(y, 0, height - 1);
      return left[static_cast<std::size_t>(cy * width + cx)];
    };
    auto load_right_direct = [&](long x, long y) -> float {
      if (c.image_right) return bufs.right_image.sample(x, y);
      const long cx = std::clamp<long>(x, 0, width - 1);
      const long cy = std::clamp<long>(y, 0, height - 1);
      return right[static_cast<std::size_t>(cy * width + cx)];
    };

    // Optional local tiles. Layout: left tile then right tile in the arena.
    const long ltw = static_cast<long>(c.wg_x) * c.ppt_x + 2 * rad;
    const long rtw = ltw + max_d;
    const long th = static_cast<long>(c.wg_y) * c.ppt_y + 2 * rad;
    clsim::CheckedSpan<float> ltile;
    clsim::CheckedSpan<float> rtile;
    if (c.local_left)
      ltile = ctx.local_view<float>(static_cast<std::size_t>(ltw * th), "ltile");
    if (c.local_right)
      rtile = ctx.local_view<float>(static_cast<std::size_t>(rtw * th), "rtile");
    if (c.local_left) {
      for (long i = lid; i < ltw * th; i += group_items) {
        const long tx = i % ltw;
        const long ty = i / ltw;
        ltile[static_cast<std::size_t>(i)] = load_left_direct(
            tile_out_x - rad + tx, tile_out_y - rad + ty);
      }
    }
    if (c.local_right) {
      for (long i = lid; i < rtw * th; i += group_items) {
        const long tx = i % rtw;
        const long ty = i / rtw;
        rtile[static_cast<std::size_t>(i)] = load_right_direct(
            tile_out_x - rad - max_d + tx, tile_out_y - rad + ty);
      }
    }
    if (c.local_left || c.local_right) co_await ctx.barrier();

    auto load_left = [&](long x, long y) -> float {
      if (c.local_left) {
        const long tx = x - (tile_out_x - rad);
        const long ty = y - (tile_out_y - rad);
        if (tx >= 0 && tx < ltw && ty >= 0 && ty < th)
          return ltile[static_cast<std::size_t>(ty * ltw + tx)];
      }
      return load_left_direct(x, y);
    };
    auto load_right = [&](long x, long y) -> float {
      if (c.local_right) {
        const long tx = x - (tile_out_x - rad - max_d);
        const long ty = y - (tile_out_y - rad);
        if (tx >= 0 && tx < rtw && ty >= 0 && ty < th)
          return rtile[static_cast<std::size_t>(ty * rtw + tx)];
      }
      return load_right_direct(x, y);
    };

    for (int oy = 0; oy < c.ppt_y; ++oy) {
      for (int ox = 0; ox < c.ppt_x; ++ox) {
        const long px = (group_x * c.wg_x + lx) * c.ppt_x + ox;
        const long py = (group_y * c.wg_y + ly) * c.ppt_y + oy;
        if (px >= width || py >= height) continue;

        float best_cost = std::numeric_limits<float>::max();
        int best_d = 0;
        for (int d = 0; d < max_d; ++d) {
          float cost = 0.0f;
          for (int dy = -rad; dy <= rad; ++dy) {
            for (int dx = -rad; dx <= rad; ++dx) {
              const float l = load_left(px + dx, py + dy);
              const float r = load_right(px + dx - d, py + dy);
              cost += std::abs(l - r);
            }
          }
          if (cost < best_cost) {
            best_cost = cost;
            best_d = d;
          }
        }
        out[static_cast<std::size_t>(py * width + px)] =
            static_cast<float>(best_d);
      }
    }
    co_return;
  };
}

/// true_disparity from its two libm terms, sin(0.011 x) and cos(0.017 y), so
/// a row fill can compute each once per column and once per row. Only whole
/// libm results are passed in: the arithmetic is the same expression, so it
/// rounds (and contracts) the same way.
int disparity_at(double sin_x, double cos_y, int max_disparity) noexcept {
  // Smooth planted disparity field, capped inside the search range.
  const double v = 0.5 + 0.5 * sin_x * cos_y;
  const int d = static_cast<int>(v * (max_disparity - 1));
  return std::clamp(d, 0, max_disparity - 1);
}

Inputs build_inputs(const StereoBenchmark::Geometry& g) {
  const std::size_t w = g.width;
  const int max_d = g.max_disparity;
  Inputs bufs{clsim::Buffer(w * g.height * sizeof(float)),
              clsim::Buffer(w * g.height * sizeof(float)),
              clsim::Image2D(w, g.height), clsim::Image2D(w, g.height),
              clsim::Buffer(w * g.height * sizeof(float))};
  float* const l = bufs.left.as<float>().data();
  float* const r = bufs.right.as<float>().data();
  float* const li = bufs.left_image.data().data();
  float* const ri = bufs.right_image.data().data();
  std::vector<double> sin_x(w);
  for (std::size_t x = 0; x < w; ++x)
    sin_x[x] = std::sin(0.011 * static_cast<double>(x));
  for (std::size_t y = 0; y < g.height; ++y) {
    float* const left_row = l + y * w;
    float* const right_row = r + y * w;
    for (std::size_t x = 0; x < w; ++x)
      left_row[x] = StereoBenchmark::left_value(x, y);
    // Right image: left_value(x + d, y), clamped at the right edge, is a
    // pixel of the row just computed.
    const double cos_y = std::cos(0.017 * static_cast<double>(y));
    for (std::size_t x = 0; x < w; ++x) {
      const auto d =
          static_cast<std::size_t>(disparity_at(sin_x[x], cos_y, max_d));
      right_row[x] = left_row[std::min(x + d, w - 1)];
    }
    std::copy_n(left_row, w, li + y * w);
    std::copy_n(right_row, w, ri + y * w);
  }
  return bufs;
}

}  // namespace

float StereoBenchmark::left_value(std::size_t x, std::size_t y) noexcept {
  const double fx = static_cast<double>(x);
  const double fy = static_cast<double>(y);
  // High-frequency texture so block matching locks onto unique patterns.
  return static_cast<float>(0.5 + 0.2 * std::sin(1.7 * fx + 0.9 * fy) +
                            0.15 * std::cos(2.3 * fx - 1.1 * fy) +
                            0.15 * std::sin(0.37 * fx * fy * 0.01));
}

int StereoBenchmark::true_disparity(std::size_t x, std::size_t y,
                                    int max_disparity) noexcept {
  return disparity_at(std::sin(0.011 * static_cast<double>(x)),
                      std::cos(0.017 * static_cast<double>(y)), max_disparity);
}

StereoBenchmark::StereoBenchmark(const Geometry& geometry)
    : geometry_(geometry),
      inputs_(std::make_shared<const OnDemand<Inputs>>(
          [geometry] { return build_inputs(geometry); })),
      program_("stereo") {
  build_space();
  build_program();
}

std::span<const float> StereoBenchmark::left() const {
  return inputs_->get().left.as<const float>();
}

std::span<const float> StereoBenchmark::right() const {
  return inputs_->get().right.as<const float>();
}

std::span<const float> StereoBenchmark::left_image() const {
  return inputs_->get().left_image.data();
}

std::span<const float> StereoBenchmark::right_image() const {
  return inputs_->get().right_image.data();
}

void StereoBenchmark::build_space() {
  const std::vector<int> pow2 = {1, 2, 4, 8, 16, 32, 64, 128};
  const std::vector<int> onoff = {0, 1};
  space_.add("WG_X", pow2);
  space_.add("WG_Y", pow2);
  space_.add("PPT_X", pow2);
  space_.add("PPT_Y", pow2);
  space_.add("IMAGE_LEFT", onoff);
  space_.add("IMAGE_RIGHT", onoff);
  space_.add("LOCAL_LEFT", onoff);
  space_.add("LOCAL_RIGHT", onoff);
  space_.add("UNROLL_DISP", {1, 2, 4, 8});
  space_.add("UNROLL_DX", {1, 2, 4});
  space_.add("UNROLL_DY", {1, 2, 4});
}

void StereoBenchmark::build_program() {
  StereoData data{inputs_, geometry_.width, geometry_.height,
                  geometry_.max_disparity, geometry_.window_radius};
  program_.add_kernel(
      "stereo",
      [data](const clsim::DeviceInfo& /*device*/,
             const clsim::BuildOptions& options) -> clsim::CompiledKernel {
        const StereoConfig c = decode_options(options);
        if (static_cast<std::size_t>(c.ppt_x) > data.width ||
            static_cast<std::size_t>(c.ppt_y) > data.height)
          throw clsim::ClException(
              clsim::Status::kBuildProgramFailure,
              "per-thread work exceeds the image extent");
        const std::uint64_t fp = clsim::fingerprint_values(
            {c.wg_x, c.wg_y, c.ppt_x, c.ppt_y, c.image_left, c.image_right,
             c.local_left, c.local_right, c.unroll_disp, c.unroll_dx,
             c.unroll_dy},
            clsim::fnv1a("stereo", 6));
        clsim::CompiledKernel compiled;
        compiled.name = "stereo";
        compiled.profile = make_profile(data, c, fp);
        compiled.body = make_body(data, c);
        return compiled;
      });
}

clsim::analyze::KernelConstraints StereoBenchmark::constraints() const {
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
  const az::AffineExpr image_left = az::param_expr(dom, "IMAGE_LEFT");
  const az::AffineExpr image_right = az::param_expr(dom, "IMAGE_RIGHT");
  const az::AffineExpr local_left = az::param_expr(dom, "LOCAL_LEFT");
  const az::AffineExpr local_right = az::param_expr(dom, "LOCAL_RIGHT");
  const az::AffineExpr unroll_disp = az::param_expr(dom, "UNROLL_DISP");
  const az::AffineExpr unroll_dx = az::param_expr(dom, "UNROLL_DX");
  const az::AffineExpr unroll_dy = az::param_expr(dom, "UNROLL_DY");

  const double rad = static_cast<double>(geometry_.window_radius);
  const double disp = static_cast<double>(geometry_.max_disparity);

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

  // Both tiles share the local arena: left (wg_x*ppt_x + 2r) wide, right
  // additionally max_disparity wider, both (wg_y*ppt_y + 2r) tall.
  const az::AffineExpr ltw = wg_x * ppt_x + c(2.0 * rad);
  const az::AffineExpr rtw = ltw + c(disp);
  const az::AffineExpr th = wg_y * ppt_y + c(2.0 * rad);
  const az::AffineExpr local_bytes =
      select(local_left, ltw * th * c(4.0), c(0.0)) +
      select(local_right, rtw * th * c(4.0), c(0.0));
  kc.constraints.push_back({"local_tiles_budget", Cat::kLocalMemory,
                            local_bytes, Rel::kLessEqual,
                            lim(DL::kLocalMemBytes), none});

  // Mirrors make_profile's registers_per_item (size_t truncation included).
  const az::AffineExpr regs_per_item =
      floor(c(20.0) + c(2.0) * unroll_disp +
            c(1.5) * (unroll_dx + unroll_dy) +
            min(c(64.0), ppt_x * ppt_y * c(1.5)) +
            select(max(local_left, local_right), c(6.0), c(0.0)));
  kc.constraints.push_back({"register_file_budget", Cat::kRegisters,
                            regs_per_item * (wg_x * wg_y), Rel::kLessEqual,
                            lim(DL::kRegistersPerCu), none});

  // Either side on the image path requires image support.
  kc.constraints.push_back({"image_support", Cat::kImageSupport, c(1.0),
                            Rel::kLessEqual, lim(DL::kImagesSupported),
                            max(image_left, image_right)});

  // The shared tile-fill barrier executes whenever any tile is staged, and
  // sits outside all divergent control flow.
  kc.constraints.push_back({"tile_fill_barrier_uniform",
                            Cat::kBarrierUniformity, c(0.0), Rel::kLessEqual,
                            c(0.0), max(local_left, local_right)});

  kc.complete = true;
  return kc;
}

clsim::BuildOptions StereoBenchmark::build_options(
    const tuner::Configuration& config) const {
  clsim::BuildOptions options;
  for (std::size_t d = 0; d < space_.dimension_count(); ++d)
    options.define(space_.parameter(d).name, config.values[d]);
  return options;
}

LaunchPlan StereoBenchmark::prepare(
    const clsim::Device& device, const tuner::Configuration& config) const {
  const clsim::BuildOptions options = build_options(config);
  auto [kernel, build_ms] = program_.build_kernel(device, "stereo", options);
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

double StereoBenchmark::run_functional(const clsim::Device& device,
                                       const tuner::Configuration& config,
                                       clsim::CheckReport* report) const {
  LaunchPlan plan = prepare(device, config);
  auto out = inputs_->get().output.as<float>();
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

double StereoBenchmark::verify(const clsim::Device& device,
                               const tuner::Configuration& config) const {
  return run_functional(device, config, nullptr);
}

CheckedVerification StereoBenchmark::verify_checked(
    const clsim::Device& device, const tuner::Configuration& config) const {
  CheckedVerification result;
  result.max_abs_error = run_functional(device, config, &result.report);
  return result;
}

std::vector<float> StereoBenchmark::reference() const {
  const long width = static_cast<long>(geometry_.width);
  const long height = static_cast<long>(geometry_.height);
  const int rad = geometry_.window_radius;
  const int max_d = geometry_.max_disparity;
  const Inputs& bufs = inputs_->get();
  const auto left = bufs.left.as<const float>();
  const auto right = bufs.right.as<const float>();
  auto sample = [&](std::span<const float> img, long x, long y) {
    const long cx = std::clamp<long>(x, 0, width - 1);
    const long cy = std::clamp<long>(y, 0, height - 1);
    return img[static_cast<std::size_t>(cy * width + cx)];
  };
  std::vector<float> out(static_cast<std::size_t>(width * height));
  for (long py = 0; py < height; ++py) {
    for (long px = 0; px < width; ++px) {
      float best_cost = std::numeric_limits<float>::max();
      int best_d = 0;
      for (int d = 0; d < max_d; ++d) {
        float cost = 0.0f;
        for (int dy = -rad; dy <= rad; ++dy)
          for (int dx = -rad; dx <= rad; ++dx)
            cost += std::abs(sample(left, px + dx, py + dy) -
                             sample(right, px + dx - d, py + dy));
        if (cost < best_cost) {
          best_cost = cost;
          best_d = d;
        }
      }
      out[static_cast<std::size_t>(py * width + px)] =
          static_cast<float>(best_d);
    }
  }
  return out;
}

}  // namespace pt::benchkit
