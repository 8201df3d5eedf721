#include "archsim/timing_model.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <ios>
#include <iterator>
#include <set>
#include <utility>
#include <vector>

#include "clsim/error.hpp"

#include "archsim/devices.hpp"

namespace pt::archsim {
namespace {

using clsim::AccessPattern;
using clsim::KernelProfile;
using clsim::LaunchDescriptor;
using clsim::MemorySpace;
using clsim::NDRange;

KernelProfile base_profile() {
  KernelProfile p;
  p.kernel_name = "synthetic";
  p.flops_per_item = 100.0;
  p.int_ops_per_item = 20.0;
  clsim::MemoryStream s;
  s.space = MemorySpace::kGlobal;
  s.pattern = AccessPattern::kCoalesced;
  s.accesses_per_item = 8.0;
  s.bytes_per_access = 4;
  p.streams.push_back(s);
  p.config_fingerprint = 0x1234;
  return p;
}

LaunchDescriptor launch_of(const KernelProfile& p, NDRange global,
                           NDRange local) {
  LaunchDescriptor l;
  l.profile = &p;
  l.global = global;
  l.local = local;
  l.local_mem_bytes = p.local_mem_bytes_per_group;
  return l;
}

TimingModel noise_free() {
  TimingModel::Options o;
  o.structural_noise = false;
  o.measurement_noise = false;
  return TimingModel(o);
}

TEST(TimingModel, PositiveAndFinite) {
  const TimingModel model = noise_free();
  const KernelProfile p = base_profile();
  for (const auto& info :
       {intel_i7_3770_info(), nvidia_k40_info(), amd_hd7970_info(),
        nvidia_c2070_info(), nvidia_gtx980_info()}) {
    const double t = model.kernel_time_ms(
        info, launch_of(p, NDRange(1024, 1024), NDRange(16, 16)));
    EXPECT_GT(t, 0.0) << info.name;
    EXPECT_TRUE(std::isfinite(t)) << info.name;
  }
}

TEST(TimingModel, DeterministicWithoutMeasurementNoise) {
  TimingModel::Options o;
  o.structural_noise = true;
  o.measurement_noise = false;
  const TimingModel model(o);
  const KernelProfile p = base_profile();
  const auto info = nvidia_k40_info();
  const auto l = launch_of(p, NDRange(512, 512), NDRange(16, 16));
  EXPECT_DOUBLE_EQ(model.kernel_time_ms(info, l),
                   model.kernel_time_ms(info, l));
}

TEST(TimingModel, MeasurementNoiseJittersRepeatedCalls) {
  TimingModel::Options o;
  o.structural_noise = false;
  o.measurement_noise = true;
  const TimingModel model(o);
  const KernelProfile p = base_profile();
  const auto info = nvidia_k40_info();
  const auto l = launch_of(p, NDRange(512, 512), NDRange(16, 16));
  const double a = model.kernel_time_ms(info, l);
  const double b = model.kernel_time_ms(info, l);
  EXPECT_NE(a, b);
  EXPECT_NEAR(a, b, a * 0.25);  // jitter is small
}

TEST(TimingModel, StructuralNoiseVariesByFingerprint) {
  TimingModel::Options o;
  o.structural_noise = true;
  o.measurement_noise = false;
  const TimingModel model(o);
  KernelProfile p1 = base_profile();
  KernelProfile p2 = base_profile();
  p2.config_fingerprint = 0x9999;
  const auto info = nvidia_k40_info();
  const double t1 =
      model.kernel_time_ms(info, launch_of(p1, NDRange(512), NDRange(16)));
  const double t2 =
      model.kernel_time_ms(info, launch_of(p2, NDRange(512), NDRange(16)));
  EXPECT_NE(t1, t2);
}

TEST(TimingModel, MoreFlopsCostMore) {
  const TimingModel model = noise_free();
  KernelProfile light = base_profile();
  KernelProfile heavy = base_profile();
  heavy.flops_per_item *= 100.0;
  const auto info = nvidia_k40_info();
  const auto geometry = launch_of(light, NDRange(1024, 1024), NDRange(16, 16));
  const double t_light = model.kernel_time_ms(info, geometry);
  const double t_heavy = model.kernel_time_ms(
      info, launch_of(heavy, NDRange(1024, 1024), NDRange(16, 16)));
  EXPECT_GT(t_heavy, t_light);
}

TEST(TimingModel, MoreTrafficCostsMore) {
  const TimingModel model = noise_free();
  KernelProfile light = base_profile();
  KernelProfile heavy = base_profile();
  heavy.streams[0].accesses_per_item *= 50.0;
  const auto info = amd_hd7970_info();
  const double t_light = model.kernel_time_ms(
      info, launch_of(light, NDRange(1024, 1024), NDRange(16, 16)));
  const double t_heavy = model.kernel_time_ms(
      info, launch_of(heavy, NDRange(1024, 1024), NDRange(16, 16)));
  EXPECT_GT(t_heavy, 2.0 * t_light);
}

TEST(TimingModel, TinyWorkGroupsHurtOnGpu) {
  const TimingModel model = noise_free();
  const KernelProfile p = base_profile();
  const auto info = nvidia_k40_info();
  const double t_good = model.kernel_time_ms(
      info, launch_of(p, NDRange(1024, 1024), NDRange(16, 16)));
  const double t_tiny = model.kernel_time_ms(
      info, launch_of(p, NDRange(1024, 1024), NDRange(1, 1)));
  EXPECT_GT(t_tiny, 3.0 * t_good);  // SIMD waste + occupancy collapse
}

TEST(TimingModel, StridedGlobalSlowerThanCoalescedOnGpu) {
  const TimingModel model = noise_free();
  KernelProfile coalesced = base_profile();
  coalesced.streams[0].accesses_per_item = 64.0;
  KernelProfile strided = coalesced;
  strided.streams[0].pattern = AccessPattern::kStrided;
  strided.streams[0].stride_bytes = 256;
  const auto info = nvidia_k40_info();
  const double t_c = model.kernel_time_ms(
      info, launch_of(coalesced, NDRange(2048, 2048), NDRange(16, 16)));
  const double t_s = model.kernel_time_ms(
      info, launch_of(strided, NDRange(2048, 2048), NDRange(16, 16)));
  EXPECT_GT(t_s, 1.5 * t_c);
}

TEST(TimingModel, SoftwareImageSamplingHurtsCpuNotGpu) {
  // The CPU has no texture hardware: image accesses become arithmetic.
  // This mechanism produces the paper's Fig 8 clustering.
  const TimingModel model = noise_free();
  KernelProfile global = base_profile();
  global.streams[0].accesses_per_item = 25.0;
  KernelProfile image = global;
  image.streams[0].space = MemorySpace::kImage;
  const auto cpu = intel_i7_3770_info();
  const auto gpu = nvidia_k40_info();
  const auto geo = NDRange(1024, 1024);
  const auto wg = NDRange(8, 8);
  const double cpu_global =
      model.kernel_time_ms(cpu, launch_of(global, geo, wg));
  const double cpu_image =
      model.kernel_time_ms(cpu, launch_of(image, geo, wg));
  const double gpu_global =
      model.kernel_time_ms(gpu, launch_of(global, geo, wg));
  const double gpu_image =
      model.kernel_time_ms(gpu, launch_of(image, geo, wg));
  EXPECT_GT(cpu_image, 2.0 * cpu_global);
  EXPECT_LT(gpu_image, 2.0 * gpu_global);
}

TEST(TimingModel, LocalMemoryPressureReducesOccupancyOnGpu) {
  const TimingModel model = noise_free();
  KernelProfile lean = base_profile();
  KernelProfile fat = base_profile();
  fat.local_mem_bytes_per_group = 24 * 1024;  // two groups max per SMX
  const auto info = nvidia_k40_info();
  const double t_lean = model.kernel_time_ms(
      info, launch_of(lean, NDRange(2048, 2048), NDRange(8, 8)));
  const double t_fat = model.kernel_time_ms(
      info, launch_of(fat, NDRange(2048, 2048), NDRange(8, 8)));
  EXPECT_GT(t_fat, t_lean);
}

TEST(TimingModel, PragmaUnrollErraticOnAmdStableWhenManual) {
  const TimingModel model = noise_free();
  const auto amd = amd_hd7970_info();

  auto profile_with_unroll = [&](bool pragma, std::uint64_t fp) {
    KernelProfile p = base_profile();
    p.config_fingerprint = fp;
    clsim::LoopInfo loop;
    loop.trip_count = 400.0;
    loop.unroll_factor = 8;
    loop.via_driver_pragma = pragma;
    p.loops.push_back(loop);
    return p;
  };

  // With a *manual* unroll the only fingerprint effect is zero (noise off):
  std::vector<double> manual_times;
  std::vector<double> pragma_times;
  for (std::uint64_t fp = 1; fp <= 24; ++fp) {
    const auto pm = profile_with_unroll(false, fp);
    manual_times.push_back(model.kernel_time_ms(
        amd, launch_of(pm, NDRange(1024, 1024), NDRange(16, 8))));
    const auto pp = profile_with_unroll(true, fp);
    pragma_times.push_back(model.kernel_time_ms(
        amd, launch_of(pp, NDRange(1024, 1024), NDRange(16, 8))));
  }
  for (double t : manual_times) EXPECT_DOUBLE_EQ(t, manual_times.front());
  // Pragma unrolling lands in visibly different effective-unroll buckets.
  std::set<double> distinct(pragma_times.begin(), pragma_times.end());
  EXPECT_GE(distinct.size(), 2u);
}

TEST(TimingModel, CompileTimeGrowsWithComplexity) {
  const TimingModel model = noise_free();
  const auto info = amd_hd7970_info();
  KernelProfile simple = base_profile();
  simple.compile_complexity = 1000.0;
  KernelProfile complex_profile = base_profile();
  complex_profile.compile_complexity = 5000.0;
  EXPECT_GT(model.compile_time_ms(info, complex_profile),
            model.compile_time_ms(info, simple));
  EXPECT_GE(model.compile_time_ms(info, simple), info.base_compile_ms);
}

TEST(TimingModel, NullProfileThrows) {
  const TimingModel model = noise_free();
  LaunchDescriptor l;
  l.global = NDRange(4);
  l.local = NDRange(2);
  EXPECT_THROW((void)model.kernel_time_ms(nvidia_k40_info(), l),
               clsim::ClException);
}

// Property sweep: invariants that must hold on every modeled device.
class TimingModelDeviceTest : public ::testing::TestWithParam<const char*> {
 protected:
  static clsim::DeviceInfo info_for(const std::string& name) {
    if (name == kIntelI7) return intel_i7_3770_info();
    if (name == kNvidiaK40) return nvidia_k40_info();
    if (name == kAmdHd7970) return amd_hd7970_info();
    if (name == kNvidiaC2070) return nvidia_c2070_info();
    return nvidia_gtx980_info();
  }
};

TEST_P(TimingModelDeviceTest, MonotoneInArithmetic) {
  const TimingModel model = noise_free();
  const auto info = info_for(GetParam());
  const NDRange wg = info.type == clsim::DeviceType::kCpu
                         ? NDRange(8, 8)
                         : NDRange(16, 16);
  double previous = 0.0;
  for (double flops : {10.0, 100.0, 1000.0, 10000.0}) {
    KernelProfile p = base_profile();
    p.flops_per_item = flops;
    const double t =
        model.kernel_time_ms(info, launch_of(p, NDRange(512, 512), wg));
    EXPECT_GE(t, previous);
    previous = t;
  }
}

TEST_P(TimingModelDeviceTest, MonotoneInTraffic) {
  const TimingModel model = noise_free();
  const auto info = info_for(GetParam());
  double previous = 0.0;
  for (double accesses : {1.0, 8.0, 64.0, 512.0}) {
    KernelProfile p = base_profile();
    p.streams[0].accesses_per_item = accesses;
    const double t = model.kernel_time_ms(
        info, launch_of(p, NDRange(512, 512), NDRange(8, 8)));
    EXPECT_GE(t, previous);
    previous = t;
  }
}

TEST_P(TimingModelDeviceTest, LaunchOverheadIsTheFloor) {
  const TimingModel model = noise_free();
  const auto info = info_for(GetParam());
  KernelProfile p;  // empty kernel
  p.kernel_name = "empty";
  const double t =
      model.kernel_time_ms(info, launch_of(p, NDRange(64), NDRange(8)));
  EXPECT_GE(t, info.launch_overhead_ms);
}

TEST_P(TimingModelDeviceTest, UnrollingNeverSlowsManualLoops) {
  const TimingModel model = noise_free();
  const auto info = info_for(GetParam());
  auto time_with_unroll = [&](std::size_t unroll) {
    KernelProfile p = base_profile();
    clsim::LoopInfo loop;
    loop.trip_count = 1000.0;
    loop.unroll_factor = unroll;
    loop.via_driver_pragma = false;
    p.loops.push_back(loop);
    return model.kernel_time_ms(
        info, launch_of(p, NDRange(512, 512), NDRange(8, 8)));
  };
  EXPECT_LE(time_with_unroll(8), time_with_unroll(1) * 1.001);
}

INSTANTIATE_TEST_SUITE_P(AllDevices, TimingModelDeviceTest,
                         ::testing::Values(kIntelI7, kNvidiaK40, kAmdHd7970,
                                           kNvidiaC2070, kNvidiaGtx980),
                         [](const auto& param_info) {
                           std::string name = param_info.param;
                           for (char& c : name)
                             if (!std::isalnum(static_cast<unsigned char>(c)))
                               c = '_';
                           return name;
                         });

TEST(TimingModel, CpuPrefersFewerBiggerGroupsForSameWork) {
  // Same total work split as many tiny groups vs core-sized chunks: the
  // scheduling overhead should make the tiny-group variant slower.
  const TimingModel model = noise_free();
  KernelProfile p = base_profile();
  const auto cpu = intel_i7_3770_info();
  const double many_tiny = model.kernel_time_ms(
      cpu, launch_of(p, NDRange(512, 512), NDRange(1, 1)));
  const double chunky = model.kernel_time_ms(
      cpu, launch_of(p, NDRange(512, 512), NDRange(64, 4)));
  EXPECT_GT(many_tiny, chunky);
}

// --- Pinned times --------------------------------------------------------

/// A profile that reaches every fused multiply-add of the timing model:
/// integer ops and divergence, global coalesced and tiled streams, an image
/// stream (software sampling on the CPU, the texture path on GPUs), a
/// broadcast constant stream, strided local memory, and loops without
/// unrolling, with a manual unroll and with a driver-pragma unroll. Each
/// variant scales the work and lands the pragma loop in another bucket.
KernelProfile every_path_profile(int variant) {
  const double v = static_cast<double>(variant);
  KernelProfile p;
  p.kernel_name = "every_path";
  p.flops_per_item = 137.3 + 41.7 * v;
  p.int_ops_per_item = 23.9 + 5.3 * v;
  p.divergence = 0.3 + 0.11 * v;
  p.registers_per_item = 24;
  p.local_mem_bytes_per_group = 3000;
  p.barriers_per_item = 2.0;
  p.config_fingerprint = 1 + static_cast<std::uint64_t>(variant);
  const auto stream = [&](MemorySpace space, AccessPattern pattern,
                          double accesses, std::size_t bytes, double reuse) {
    clsim::MemoryStream s;
    s.space = space;
    s.pattern = pattern;
    s.accesses_per_item = accesses;
    s.bytes_per_access = bytes;
    s.stride_bytes = 8;
    s.reuse_factor = reuse;
    p.streams.push_back(s);
  };
  stream(MemorySpace::kGlobal, AccessPattern::kCoalesced, 7.1 + v, 4, 1.0);
  stream(MemorySpace::kGlobal, AccessPattern::kTiled2D, 9.7, 4, 5.3 + v);
  stream(MemorySpace::kGlobal, AccessPattern::kStrided, 3.3, 4, 1.0);
  stream(MemorySpace::kImage, AccessPattern::kCoalesced, 4.1, 16, 3.7 + v);
  stream(MemorySpace::kImage, AccessPattern::kTiled2D, 2.3, 4, 7.1);
  stream(MemorySpace::kConstant, AccessPattern::kBroadcast, 2.1, 4, 11.3);
  stream(MemorySpace::kLocal, AccessPattern::kStrided, 3.1, 4, 1.0);
  const auto loop = [&](double trips, std::size_t unroll, bool pragma) {
    clsim::LoopInfo l;
    l.trip_count = trips;
    l.unroll_factor = unroll;
    l.via_driver_pragma = pragma;
    p.loops.push_back(l);
  };
  loop(37.3 + v, 1, false);
  loop(401.7, 8, false);
  loop(16.3, 4, true);
  return p;
}

/// The launches the pinned times cover: a 2-D launch of 16 x 16 groups and
/// a 1-D launch of 48-item groups that leaves a partial last wave.
std::vector<std::pair<NDRange, NDRange>> pinned_launches() {
  return {{NDRange(1024, 1024), NDRange(16, 16)},
          {NDRange(48 * 1001), NDRange(48)}};
}

std::vector<clsim::DeviceInfo> catalog_devices() {
  return {intel_i7_3770_info(), nvidia_k40_info(), amd_hd7970_info(),
          nvidia_c2070_info(), nvidia_gtx980_info()};
}

// Noise-free simulated times pinned bit for bit, as recorded from the AVX2
// build (-mfma), in which GCC used to contract the timing model's
// multiply-adds. Those fusings are now written std::fma and the file
// compiles without contraction, so every backend must give these bits;
// before that, the scalar backend rounded the fused steps twice and
// differed in the last bit of several of these times.
TEST(TimingModel, TimesKeepTheirBitsOnEveryBackend) {
  // Per device: variants 0-2, each at pinned_launches()' two launches.
  const double kernel_ms[] = {
      0x1.1db6082189756p+4, 0x1.faca13e68b23bp-1,
      0x1.20e25db21cc9cp+4, 0x1.ff7135dd692b9p-1,
      0x1.2543f57eb6b39p+4, 0x1.02eee7e985ad6p+0,
      0x1.a89c059130ebap+0, 0x1.b59c35e251853p-4,
      0x1.aa29ccff27fbep+0, 0x1.b76d3e11386bp-4,
      0x1.ad263ae4a2d9ep+0, 0x1.ba84600aafe3dp-4,
      0x1.0ac029263031dp+0, 0x1.7d41a77e1b6d8p-4,
      0x1.0c2366b895cedp+0, 0x1.7ec76c036d588p-4,
      0x1.0f6162a522728p+0, 0x1.837a432a18f36p-4,
      0x1.077e35bec4054p+1, 0x1.167037025fdc2p-3,
      0x1.11e8d80603d8dp+1, 0x1.1f62425e28698p-3,
      0x1.1b5b852300d58p+1, 0x1.289fa3bd39704p-3,
      0x1.b47641c894d5cp+0, 0x1.b0f721a999154p-4,
      0x1.b70410ba24cddp+0, 0x1.b34ca0c0d3e4ap-4,
      0x1.bbbec07b556dp+0, 0x1.b7805d847c9bdp-4,
  };
  const TimingModel model = noise_free();
  const auto bits = [](double x) { return std::bit_cast<std::uint64_t>(x); };
  std::size_t i = 0;
  for (const auto& info : catalog_devices())
    for (int variant = 0; variant < 3; ++variant)
      for (const auto& [global, local] : pinned_launches()) {
        const KernelProfile p = every_path_profile(variant);
        const double got = model.deterministic_kernel_time_ms(
            info, launch_of(p, global, local));
        EXPECT_EQ(bits(got), bits(kernel_ms[i]))
            << info.name << " variant " << variant << ": " << std::hexfloat
            << got << " != " << kernel_ms[i];
        ++i;
      }
  ASSERT_EQ(i, std::size(kernel_ms));
}

}  // namespace
}  // namespace pt::archsim
