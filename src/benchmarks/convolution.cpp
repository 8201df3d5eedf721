#include "benchmarks/convolution.hpp"

#include <algorithm>
#include <cmath>
#include <vector>

namespace pt::benchkit {

// Shared data objects (handle semantics).
struct ConvolutionBenchmark::Inputs {
  clsim::Buffer input;    // width*height floats
  clsim::Buffer padded;   // (width+2R)*(height+2R), apron = clamped edges
  clsim::Image2D image;   // same pixels as input
  clsim::Buffer filter;   // (2R+1)^2 coefficients (box)
  clsim::Buffer output;   // width*height floats
};

namespace {

using Inputs = ConvolutionBenchmark::Inputs;

/// Everything a convolution kernel instance needs, captured by value (the
/// inputs are shared, so copies are cheap).
struct ConvData {
  std::shared_ptr<const OnDemand<Inputs>> inputs;
  std::size_t width;
  std::size_t height;
  int radius;
};

/// Fully decoded tuning configuration.
struct ConvConfig {
  int wg_x, wg_y, ppt_x, ppt_y;
  bool use_image, use_local, pad, interleaved, unroll;
};

ConvConfig decode_options(const clsim::BuildOptions& o) {
  ConvConfig c{};
  c.wg_x = o.require("WG_X");
  c.wg_y = o.require("WG_Y");
  c.ppt_x = o.require("PPT_X");
  c.ppt_y = o.require("PPT_Y");
  c.use_image = o.require("USE_IMAGE") != 0;
  c.use_local = o.require("USE_LOCAL") != 0;
  c.pad = o.require("PAD") != 0;
  c.interleaved = o.require("INTERLEAVED") != 0;
  c.unroll = o.require("UNROLL") != 0;
  return c;
}

std::size_t tile_width(const ConvConfig& c, int radius) {
  return static_cast<std::size_t>(c.wg_x * c.ppt_x + 2 * radius);
}
std::size_t tile_height(const ConvConfig& c, int radius) {
  return static_cast<std::size_t>(c.wg_y * c.ppt_y + 2 * radius);
}

/// Static profile consumed by the timing model (DESIGN.md, convolution).
clsim::KernelProfile make_profile(const ConvData& data, const ConvConfig& c,
                                  std::uint64_t fingerprint) {
  using clsim::AccessPattern;
  using clsim::MemorySpace;

  clsim::KernelProfile p;
  p.kernel_name = "convolution";
  p.config_fingerprint = fingerprint;

  const int d = 2 * data.radius + 1;
  const double taps = static_cast<double>(d * d);
  const double outputs = static_cast<double>(c.ppt_x) * c.ppt_y;
  const std::size_t group_items =
      static_cast<std::size_t>(c.wg_x) * static_cast<std::size_t>(c.wg_y);

  // Arithmetic: one MAD per tap per output, plus addressing; explicit
  // boundary clamping (no padding, no image sampler) costs extra integer
  // ops and divergent branches.
  p.flops_per_item = outputs * taps * 2.0;
  double addr_ops = outputs * taps * 1.5;
  if (!c.pad && !c.use_image && !c.use_local) addr_ops += outputs * taps * 2.0;
  p.int_ops_per_item = addr_ops;
  p.divergence = (c.pad || c.use_image) ? 0.02 : 0.08;

  // The filter loop: d*d trips per output, unrolled via a driver pragma.
  clsim::LoopInfo filter_loop;
  filter_loop.trip_count = taps * outputs;
  filter_loop.unroll_factor = c.unroll ? 8 : 1;
  filter_loop.via_driver_pragma = true;
  p.loops.push_back(filter_loop);

  const std::size_t stride_bytes = static_cast<std::size_t>(c.ppt_x) * 4;

  if (c.use_local) {
    const double tile_elems =
        static_cast<double>(tile_width(c, data.radius)) *
        static_cast<double>(tile_height(c, data.radius));
    // Cooperative tile fill: each element loaded once per group.
    clsim::MemoryStream fill;
    fill.space = c.use_image ? MemorySpace::kImage : MemorySpace::kGlobal;
    fill.pattern = AccessPattern::kCoalesced;
    fill.accesses_per_item = tile_elems / static_cast<double>(group_items);
    fill.bytes_per_access = 4;
    fill.reuse_factor = 1.0;
    p.streams.push_back(fill);
    // Compute reads come from local memory.
    clsim::MemoryStream local_reads;
    local_reads.space = MemorySpace::kLocal;
    local_reads.pattern = c.interleaved ? AccessPattern::kCoalesced
                                        : AccessPattern::kStrided;
    local_reads.stride_bytes = stride_bytes;
    local_reads.accesses_per_item = outputs * taps;
    local_reads.bytes_per_access = 4;
    p.streams.push_back(local_reads);
    p.local_mem_bytes_per_group =
        tile_width(c, data.radius) * tile_height(c, data.radius) * 4;
    p.barriers_per_item = 1.0;
  } else {
    clsim::MemoryStream reads;
    reads.space = c.use_image ? MemorySpace::kImage : MemorySpace::kGlobal;
    reads.pattern = c.interleaved ? AccessPattern::kTiled2D
                                  : AccessPattern::kStrided;
    reads.stride_bytes = stride_bytes;
    reads.accesses_per_item = outputs * taps;
    reads.bytes_per_access = 4;
    reads.reuse_factor = taps;  // stencil overlap between neighbours
    p.streams.push_back(reads);
  }

  // Filter coefficients: broadcast constant reads.
  clsim::MemoryStream coeff;
  coeff.space = MemorySpace::kConstant;
  coeff.pattern = AccessPattern::kBroadcast;
  coeff.accesses_per_item = outputs * taps;
  coeff.bytes_per_access = 4;
  coeff.reuse_factor = static_cast<double>(group_items);
  p.streams.push_back(coeff);

  // Output stores.
  clsim::MemoryStream stores;
  stores.space = MemorySpace::kGlobal;
  stores.pattern = (c.interleaved || c.ppt_x == 1)
                       ? AccessPattern::kCoalesced
                       : AccessPattern::kStrided;
  stores.stride_bytes = stride_bytes;
  stores.accesses_per_item = outputs;
  stores.bytes_per_access = 4;
  stores.is_write = true;
  p.streams.push_back(stores);

  p.constant_mem_bytes = static_cast<std::size_t>(taps) * 4;
  p.registers_per_item = static_cast<std::size_t>(
      16.0 + std::min(96.0, outputs * (c.use_local ? 0.5 : 1.0)) +
      (c.unroll ? 6.0 : 0.0) + (c.use_local ? 4.0 : 0.0));
  p.compile_complexity = 1200.0 + (c.unroll ? taps * 60.0 : 0.0) +
                         (c.use_local ? 400.0 : 0.0) +
                         (c.use_image ? 200.0 : 0.0);
  return p;
}

/// Functional kernel body: every variant computes the identical
/// clamp-to-edge box filter.
clsim::KernelBody make_body(ConvData data, ConvConfig c) {
  return [data, c](clsim::WorkItemCtx& ctx) -> clsim::WorkItemTask {
    const long width = static_cast<long>(data.width);
    const long height = static_cast<long>(data.height);
    const int radius = data.radius;
    const int diameter = 2 * radius + 1;
    const long pad_stride = width + 2 * radius;

    const Inputs& bufs = data.inputs->get();
    const auto in = ctx.view<const float>(bufs.input, "input");
    const auto padded = ctx.view<const float>(bufs.padded, "padded");
    const auto coeffs = ctx.view<const float>(bufs.filter, "filter");
    auto out = ctx.view<float>(bufs.output, "output");

    // Clamp-to-edge read through whichever path the configuration picked.
    auto load = [&](long x, long y) -> float {
      if (c.use_image) return bufs.image.sample(x, y);
      if (c.pad) {
        // The apron replicates the clamped edge, so clamping to the padded
        // extent preserves clamp-to-edge semantics; without it, groups past
        // the image (rounded-up ND-range) read beyond the buffer while
        // filling their local tile.
        const long px = std::clamp<long>(x, -radius, width - 1 + radius);
        const long py = std::clamp<long>(y, -radius, height - 1 + radius);
        return padded[static_cast<std::size_t>((py + radius) * pad_stride +
                                               (px + radius))];
      }
      const long cx = std::clamp<long>(x, 0, width - 1);
      const long cy = std::clamp<long>(y, 0, height - 1);
      return in[static_cast<std::size_t>(cy * width + cx)];
    };

    const long lx = static_cast<long>(ctx.local_id(0));
    const long ly = static_cast<long>(ctx.local_id(1));
    const long group_x = static_cast<long>(ctx.group_id(0));
    const long group_y = static_cast<long>(ctx.group_id(1));
    const long group_items = static_cast<long>(c.wg_x) * c.wg_y;
    const long lid = ly * c.wg_x + lx;

    // The output tile this group covers (identical for both layouts).
    const long tile_out_x = group_x * c.wg_x * c.ppt_x;
    const long tile_out_y = group_y * c.wg_y * c.ppt_y;

    clsim::CheckedSpan<float> tile;
    const long tw = static_cast<long>(c.wg_x) * c.ppt_x + 2 * radius;
    const long th = static_cast<long>(c.wg_y) * c.ppt_y + 2 * radius;
    if (c.use_local) {
      tile = ctx.local_view<float>(static_cast<std::size_t>(tw * th), "tile");
      for (long idx = lid; idx < tw * th; idx += group_items) {
        const long tx = idx % tw;
        const long ty = idx / tw;
        tile[static_cast<std::size_t>(idx)] =
            load(tile_out_x - radius + tx, tile_out_y - radius + ty);
      }
      co_await ctx.barrier();
    }

    for (int oy = 0; oy < c.ppt_y; ++oy) {
      for (int ox = 0; ox < c.ppt_x; ++ox) {
        const long out_x =
            c.interleaved ? tile_out_x + static_cast<long>(ox) * c.wg_x + lx
                          : (group_x * c.wg_x + lx) * c.ppt_x + ox;
        const long out_y =
            c.interleaved ? tile_out_y + static_cast<long>(oy) * c.wg_y + ly
                          : (group_y * c.wg_y + ly) * c.ppt_y + oy;
        if (out_x >= width || out_y >= height) continue;

        float sum = 0.0f;
        for (int fy = 0; fy < diameter; ++fy) {
          for (int fx = 0; fx < diameter; ++fx) {
            float v;
            if (c.use_local) {
              const long tx = out_x - tile_out_x + fx;
              const long ty = out_y - tile_out_y + fy;
              v = tile[static_cast<std::size_t>(ty * tw + tx)];
            } else {
              v = load(out_x + fx - radius, out_y + fy - radius);
            }
            sum += v * coeffs[static_cast<std::size_t>(fy * diameter + fx)];
          }
        }
        out[static_cast<std::size_t>(out_y * width + out_x)] = sum;
      }
    }
    co_return;
  };
}

/// input_value with its column term sin(0.11 x) passed in, so a row fill can
/// compute it once per column. Only the whole libm result is passed in: the
/// sum is the same expression, so it rounds (and contracts) the same way.
float input_value_at(double sin_x, std::size_t x, std::size_t y) noexcept {
  // Deterministic, smooth-ish signal with enough variation to catch
  // indexing bugs in every kernel variant.
  const double fx = static_cast<double>(x);
  const double fy = static_cast<double>(y);
  return static_cast<float>(0.5 + 0.25 * sin_x +
                            0.25 * std::cos(0.07 * fy + 0.013 * fx));
}

Inputs build_inputs(const ConvolutionBenchmark::Geometry& g) {
  const std::size_t w = g.width;
  const std::size_t h = g.height;
  const auto r = static_cast<std::size_t>(g.radius);
  const std::size_t pw = w + 2 * r;
  const std::size_t d = 2 * r + 1;
  Inputs bufs{clsim::Buffer(w * h * sizeof(float)),
              clsim::Buffer(pw * (h + 2 * r) * sizeof(float)),
              clsim::Image2D(w, h), clsim::Buffer(d * d * sizeof(float)),
              clsim::Buffer(w * h * sizeof(float))};
  float* const in = bufs.input.as<float>().data();
  float* const pad = bufs.padded.as<float>().data();
  float* const img = bufs.image.data().data();
  std::vector<double> sin_x(w);
  for (std::size_t x = 0; x < w; ++x)
    sin_x[x] = std::sin(0.11 * static_cast<double>(x));
  for (std::size_t y = 0; y < h; ++y) {
    float* const row = in + y * w;
    for (std::size_t x = 0; x < w; ++x)
      row[x] = input_value_at(sin_x[x], x, y);
    std::copy_n(row, w, img + y * w);
    // Padded copy whose apron replicates the clamped edge, so the padded
    // path computes the same result as explicit clamping. Row y lands in
    // padded row y + r; the first and last rows also fill the top and
    // bottom aprons.
    float* const pad_row = pad + (y + r) * pw;
    std::fill_n(pad_row, r, row[0]);
    std::copy_n(row, w, pad_row + r);
    std::fill_n(pad_row + r + w, r, row[w - 1]);
    if (y == 0)
      for (std::size_t a = 0; a < r; ++a)
        std::copy_n(pad_row, pw, pad + a * pw);
    if (y == h - 1)
      for (std::size_t a = 1; a <= r; ++a)
        std::copy_n(pad_row, pw, pad_row + a * pw);
  }

  for (auto& cf : bufs.filter.as<float>())
    cf = 1.0f / static_cast<float>(d * d);
  return bufs;
}

}  // namespace

float ConvolutionBenchmark::input_value(std::size_t x, std::size_t y) noexcept {
  return input_value_at(std::sin(0.11 * static_cast<double>(x)), x, y);
}

ConvolutionBenchmark::ConvolutionBenchmark(const Geometry& geometry)
    : geometry_(geometry),
      inputs_(std::make_shared<const OnDemand<Inputs>>(
          [geometry] { return build_inputs(geometry); })),
      program_("convolution") {
  build_space();
  build_program();
}

std::span<const float> ConvolutionBenchmark::input() const {
  return inputs_->get().input.as<const float>();
}

std::span<const float> ConvolutionBenchmark::padded() const {
  return inputs_->get().padded.as<const float>();
}

std::span<const float> ConvolutionBenchmark::image() const {
  return inputs_->get().image.data();
}

void ConvolutionBenchmark::build_space() {
  const std::vector<int> pow2 = {1, 2, 4, 8, 16, 32, 64, 128};
  const std::vector<int> onoff = {0, 1};
  space_.add("WG_X", pow2);
  space_.add("WG_Y", pow2);
  space_.add("PPT_X", pow2);
  space_.add("PPT_Y", pow2);
  space_.add("USE_IMAGE", onoff);
  space_.add("USE_LOCAL", onoff);
  space_.add("PAD", onoff);
  space_.add("INTERLEAVED", onoff);
  space_.add("UNROLL", onoff);
}

void ConvolutionBenchmark::build_program() {
  ConvData data{inputs_, geometry_.width, geometry_.height, geometry_.radius};
  program_.add_kernel(
      "convolution",
      [data](const clsim::DeviceInfo& /*device*/,
             const clsim::BuildOptions& options) -> clsim::CompiledKernel {
        const ConvConfig c = decode_options(options);
        if (static_cast<std::size_t>(c.ppt_x) > data.width ||
            static_cast<std::size_t>(c.ppt_y) > data.height)
          throw clsim::ClException(
              clsim::Status::kBuildProgramFailure,
              "per-thread work exceeds the image extent");
        const std::uint64_t fp = clsim::fingerprint_values(
            {c.wg_x, c.wg_y, c.ppt_x, c.ppt_y, c.use_image, c.use_local,
             c.pad, c.interleaved, c.unroll},
            clsim::fnv1a("convolution", 11));
        clsim::CompiledKernel compiled;
        compiled.name = "convolution";
        compiled.profile = make_profile(data, c, fp);
        compiled.body = make_body(data, c);
        return compiled;
      });
}

clsim::analyze::KernelConstraints ConvolutionBenchmark::constraints() const {
  namespace az = clsim::analyze;
  using Cat = az::ConstraintCategory;
  using Rel = az::Relation;
  using DL = az::DeviceLimit;
  const auto lim = az::AffineExpr::device_limit;
  const auto c = az::cexpr;
  const az::AffineExpr none;  // absent guard: constraint always applies

  az::KernelConstraints kc;
  kc.kernel_name = name_;
  kc.domain = make_param_domain(space_);
  const az::ParamDomain& dom = kc.domain;

  const az::AffineExpr wg_x = az::param_expr(dom, "WG_X");
  const az::AffineExpr wg_y = az::param_expr(dom, "WG_Y");
  const az::AffineExpr ppt_x = az::param_expr(dom, "PPT_X");
  const az::AffineExpr ppt_y = az::param_expr(dom, "PPT_Y");
  const az::AffineExpr use_image = az::param_expr(dom, "USE_IMAGE");
  const az::AffineExpr use_local = az::param_expr(dom, "USE_LOCAL");
  const az::AffineExpr pad = az::param_expr(dom, "PAD");
  const az::AffineExpr unroll = az::param_expr(dom, "UNROLL");

  const double r = static_cast<double>(geometry_.radius);
  const int d = 2 * geometry_.radius + 1;
  const double taps = static_cast<double>(d * d);
  const double pw = static_cast<double>(geometry_.width) + 2.0 * r;
  const double ph = static_cast<double>(geometry_.height) + 2.0 * r;

  // Launch geometry (clsim validate_launch, 2D launch).
  kc.constraints.push_back({"wg_x_item_limit", Cat::kWorkGroupGeometry, wg_x,
                            Rel::kLessEqual, lim(DL::kMaxWorkItem0), none});
  kc.constraints.push_back({"wg_y_item_limit", Cat::kWorkGroupGeometry, wg_y,
                            Rel::kLessEqual, lim(DL::kMaxWorkItem1), none});
  kc.constraints.push_back({"group_size_limit", Cat::kWorkGroupGeometry,
                            wg_x * wg_y, Rel::kLessEqual,
                            lim(DL::kMaxWorkGroupSize), none});

  // Factory build precondition: per-thread work within the image extent.
  kc.constraints.push_back({"ppt_x_within_width", Cat::kBuildPrecondition,
                            ppt_x, Rel::kLessEqual,
                            c(static_cast<double>(geometry_.width)), none});
  kc.constraints.push_back({"ppt_y_within_height", Cat::kBuildPrecondition,
                            ppt_y, Rel::kLessEqual,
                            c(static_cast<double>(geometry_.height)), none});

  // Local tile (wg*ppt + halo)^2 floats, only on the tiling path.
  const az::AffineExpr tile_w = wg_x * ppt_x + c(2.0 * r);
  const az::AffineExpr tile_h = wg_y * ppt_y + c(2.0 * r);
  kc.constraints.push_back({"local_tile_budget", Cat::kLocalMemory,
                            tile_w * tile_h * c(4.0), Rel::kLessEqual,
                            lim(DL::kLocalMemBytes), use_local});

  // Filter coefficients live in constant memory on every path.
  kc.constraints.push_back({"filter_constant_budget", Cat::kConstantMemory,
                            c(taps * 4.0), Rel::kLessEqual,
                            lim(DL::kConstantMemBytes), none});

  // Mirrors make_profile's registers_per_item formula exactly, including
  // the size_t truncation (floor).
  const az::AffineExpr regs_per_item =
      floor(c(16.0) +
            min(c(96.0), ppt_x * ppt_y * select(use_local, c(0.5), c(1.0))) +
            select(unroll, c(6.0), c(0.0)) +
            select(use_local, c(4.0), c(0.0)));
  kc.constraints.push_back({"register_file_budget", Cat::kRegisters,
                            regs_per_item * (wg_x * wg_y), Rel::kLessEqual,
                            lim(DL::kRegistersPerCu), none});

  // Image path requires image support.
  kc.constraints.push_back({"image_support", Cat::kImageSupport, c(1.0),
                            Rel::kLessEqual, lim(DL::kImagesSupported),
                            use_image});

  // Padded-input footprint: reads are clamped to the apron (the PR 3 fix),
  // so the maximal linear index is the last padded texel regardless of the
  // rounded-up ND-range. Stating it keeps the footprint auditable — the
  // regression test re-derives the pre-fix (unclamped) index and shows the
  // analyzer proves those configurations out of bounds.
  kc.constraints.push_back({"padded_input_footprint", Cat::kGlobalFootprint,
                            c(pw * ph - 1.0), Rel::kLess, c(pw * ph),
                            pad * (c(1.0) - use_image)});

  // The tile-fill barrier sits outside all divergent control flow.
  kc.constraints.push_back({"tile_fill_barrier_uniform",
                            Cat::kBarrierUniformity, c(0.0), Rel::kLessEqual,
                            c(0.0), use_local});

  kc.complete = true;
  return kc;
}

clsim::BuildOptions ConvolutionBenchmark::build_options(
    const tuner::Configuration& config) const {
  clsim::BuildOptions options;
  for (std::size_t d = 0; d < space_.dimension_count(); ++d)
    options.define(space_.parameter(d).name, config.values[d]);
  return options;
}

LaunchPlan ConvolutionBenchmark::prepare(
    const clsim::Device& device, const tuner::Configuration& config) const {
  const clsim::BuildOptions options = build_options(config);
  auto [kernel, build_ms] =
      program_.build_kernel(device, "convolution", options);
  const auto ppt_x = static_cast<std::size_t>(space_.value_of(config, "PPT_X"));
  const auto ppt_y = static_cast<std::size_t>(space_.value_of(config, "PPT_Y"));
  const auto wg_x = static_cast<std::size_t>(space_.value_of(config, "WG_X"));
  const auto wg_y = static_cast<std::size_t>(space_.value_of(config, "WG_Y"));
  // Hosts round the global size up to a multiple of the work-group size;
  // surplus work-items are guarded out inside the kernel.
  auto round_up = [](std::size_t need, std::size_t wg) {
    return (need + wg - 1) / wg * wg;
  };
  const std::size_t need_x = (geometry_.width + ppt_x - 1) / ppt_x;
  const std::size_t need_y = (geometry_.height + ppt_y - 1) / ppt_y;
  LaunchPlan plan{std::move(kernel),
                  clsim::NDRange(round_up(need_x, wg_x), round_up(need_y, wg_y)),
                  clsim::NDRange(wg_x, wg_y), build_ms};
  return plan;
}

double ConvolutionBenchmark::run_functional(const clsim::Device& device,
                                            const tuner::Configuration& config,
                                            clsim::CheckReport* report) const {
  LaunchPlan plan = prepare(device, config);
  // Clear the (shared) output so stale results cannot mask failures.
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

double ConvolutionBenchmark::verify(const clsim::Device& device,
                                    const tuner::Configuration& config) const {
  return run_functional(device, config, nullptr);
}

CheckedVerification ConvolutionBenchmark::verify_checked(
    const clsim::Device& device, const tuner::Configuration& config) const {
  CheckedVerification result;
  result.max_abs_error = run_functional(device, config, &result.report);
  return result;
}

std::vector<float> ConvolutionBenchmark::reference() const {
  const long w = static_cast<long>(geometry_.width);
  const long h = static_cast<long>(geometry_.height);
  const int r = geometry_.radius;
  const int d = 2 * r + 1;
  const Inputs& bufs = inputs_->get();
  const auto in = bufs.input.as<const float>();
  const auto coeffs = bufs.filter.as<const float>();
  std::vector<float> out(static_cast<std::size_t>(w * h));
  for (long y = 0; y < h; ++y) {
    for (long x = 0; x < w; ++x) {
      float sum = 0.0f;
      for (int fy = 0; fy < d; ++fy) {
        for (int fx = 0; fx < d; ++fx) {
          const long sx = std::clamp<long>(x + fx - r, 0, w - 1);
          const long sy = std::clamp<long>(y + fy - r, 0, h - 1);
          sum += in[static_cast<std::size_t>(sy * w + sx)] *
                 coeffs[static_cast<std::size_t>(fy * d + fx)];
        }
      }
      out[static_cast<std::size_t>(y * w + x)] = sum;
    }
  }
  return out;
}

}  // namespace pt::benchkit
