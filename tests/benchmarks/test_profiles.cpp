// Tests of the static kernel profiles and launch plans the benchmarks hand
// to the timing model: resource accounting, loop/unroll structure, launch
// geometry, and the invalidity rules the paper depends on.

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <ios>

#include "archsim/devices.hpp"
#include "benchmarks/convolution.hpp"
#include "benchmarks/raycasting.hpp"
#include "benchmarks/registry.hpp"
#include "benchmarks/stereo.hpp"

namespace pt::benchkit {
namespace {

clsim::Device k40() {
  static clsim::Platform platform = archsim::default_platform();
  return platform.device_by_name(archsim::kNvidiaK40);
}
clsim::Device amd() {
  static clsim::Platform platform = archsim::default_platform();
  return platform.device_by_name(archsim::kAmdHd7970);
}

TEST(ConvProfile, LocalTileAccounting) {
  const ConvolutionBenchmark bench;  // 2048x2048, radius 2
  // WG 16x8, PPT 2x2, local on: tile = (16*2+4) x (8*2+4) floats.
  const tuner::Configuration c{{16, 8, 2, 2, 0, 1, 0, 0, 0}};
  const auto plan = bench.prepare(k40(), c);
  EXPECT_EQ(plan.kernel.profile().local_mem_bytes_per_group,
            36u * 20u * 4u);
  EXPECT_DOUBLE_EQ(plan.kernel.profile().barriers_per_item, 1.0);
}

TEST(ConvProfile, NoLocalMeansNoTileNoBarrier) {
  const ConvolutionBenchmark bench;
  const tuner::Configuration c{{16, 8, 2, 2, 0, 0, 0, 0, 0}};
  const auto plan = bench.prepare(k40(), c);
  EXPECT_EQ(plan.kernel.profile().local_mem_bytes_per_group, 0u);
  EXPECT_DOUBLE_EQ(plan.kernel.profile().barriers_per_item, 0.0);
}

TEST(ConvProfile, UnrollFlagControlsPragmaLoop) {
  const ConvolutionBenchmark bench;
  const tuner::Configuration off{{16, 8, 1, 1, 0, 0, 0, 0, 0}};
  const tuner::Configuration on{{16, 8, 1, 1, 0, 0, 0, 0, 1}};
  const auto p_off = bench.prepare(k40(), off).kernel.profile();
  const auto p_on = bench.prepare(k40(), on).kernel.profile();
  ASSERT_EQ(p_off.loops.size(), 1u);
  EXPECT_EQ(p_off.loops[0].unroll_factor, 1u);
  EXPECT_GT(p_on.loops[0].unroll_factor, 1u);
  EXPECT_TRUE(p_on.loops[0].via_driver_pragma);
}

TEST(ConvProfile, ImageFlagSwitchesSpace) {
  const ConvolutionBenchmark bench;
  const tuner::Configuration buf{{8, 8, 1, 1, 0, 0, 0, 0, 0}};
  const tuner::Configuration img{{8, 8, 1, 1, 1, 0, 0, 0, 0}};
  EXPECT_FALSE(bench.prepare(k40(), buf).kernel.profile().uses_space(
      clsim::MemorySpace::kImage));
  EXPECT_TRUE(bench.prepare(k40(), img).kernel.profile().uses_space(
      clsim::MemorySpace::kImage));
}

TEST(ConvProfile, LaunchGeometryDividesWork) {
  const ConvolutionBenchmark bench;  // 2048^2
  const tuner::Configuration c{{32, 4, 2, 8, 0, 0, 0, 0, 0}};
  const auto plan = bench.prepare(k40(), c);
  EXPECT_EQ(plan.global, clsim::NDRange(1024, 256));
  EXPECT_EQ(plan.local, clsim::NDRange(32, 4));
}

TEST(ConvProfile, LaunchGeometryRoundsUpToGroupMultiple) {
  const ConvolutionBenchmark bench;
  // 2048/128 = 16 needed in x, but WG_X=64 forces rounding up to 64.
  const tuner::Configuration c{{64, 1, 128, 1, 0, 0, 0, 0, 0}};
  const auto plan = bench.prepare(k40(), c);
  EXPECT_EQ(plan.global[0], 64u);
  EXPECT_EQ(plan.global[1], 2048u);
}

TEST(ConvProfile, PerThreadWorkBeyondImageIsStaticBuildFailure) {
  const ConvolutionBenchmark small(ConvolutionBenchmark::Geometry{32, 32, 2});
  const tuner::Configuration c{{1, 1, 64, 1, 0, 0, 0, 0, 0}};
  try {
    (void)small.prepare(k40(), c);
    FAIL();
  } catch (const clsim::ClException& e) {
    EXPECT_EQ(e.status(), clsim::Status::kBuildProgramFailure);
  }
}

TEST(ConvProfile, BigLocalTileRejectedAtLaunch) {
  const ConvolutionBenchmark bench;
  // WG 16x16, PPT 8x8: tile (132 x 132) * 4B = ~68 KB > 48 KB on K40.
  const tuner::Configuration c{{16, 16, 8, 8, 0, 1, 0, 0, 0}};
  const auto plan = bench.prepare(k40(), c);
  EXPECT_EQ(plan.kernel.validate_launch(plan.global, plan.local),
            clsim::Status::kOutOfLocalMemory);
}

TEST(ConvProfile, OversizedGroupRejectedOnAmdAcceptedOnK40) {
  const ConvolutionBenchmark bench;
  // 512-item work-group: legal on K40 (1024 max), illegal on AMD (256 max).
  const tuner::Configuration c{{32, 16, 2, 2, 0, 0, 0, 0, 0}};
  const auto on_k40 = bench.prepare(k40(), c);
  EXPECT_EQ(on_k40.kernel.validate_launch(on_k40.global, on_k40.local),
            clsim::Status::kSuccess);
  const auto on_amd = bench.prepare(amd(), c);
  EXPECT_EQ(on_amd.kernel.validate_launch(on_amd.global, on_amd.local),
            clsim::Status::kInvalidWorkGroupSize);
}

TEST(ConvProfile, FingerprintUniquePerConfig) {
  const ConvolutionBenchmark bench;
  const tuner::Configuration a{{8, 8, 1, 1, 0, 0, 0, 0, 0}};
  const tuner::Configuration b{{8, 8, 1, 1, 0, 0, 0, 0, 1}};
  EXPECT_NE(bench.prepare(k40(), a).kernel.profile().config_fingerprint,
            bench.prepare(k40(), b).kernel.profile().config_fingerprint);
  EXPECT_EQ(bench.prepare(k40(), a).kernel.profile().config_fingerprint,
            bench.prepare(amd(), a).kernel.profile().config_fingerprint);
}

TEST(RayProfile, ManualUnrollNotPragma) {
  const RaycastingBenchmark bench(RaycastingBenchmark::Geometry{16, 16, 16});
  const tuner::Configuration c{{8, 8, 1, 1, 0, 0, 0, 0, 0, 8}};
  const auto profile = bench.prepare(k40(), c).kernel.profile();
  ASSERT_EQ(profile.loops.size(), 1u);
  EXPECT_EQ(profile.loops[0].unroll_factor, 8u);
  EXPECT_FALSE(profile.loops[0].via_driver_pragma);  // macros, not pragmas
}

TEST(RayProfile, TfPlacementSelectsSpace) {
  const RaycastingBenchmark bench(RaycastingBenchmark::Geometry{16, 16, 16});
  using clsim::MemorySpace;
  const tuner::Configuration local_tf{{8, 8, 1, 1, 0, 0, 1, 0, 0, 1}};
  const auto p_local = bench.prepare(k40(), local_tf).kernel.profile();
  EXPECT_TRUE(p_local.uses_space(MemorySpace::kLocal));
  EXPECT_GT(p_local.local_mem_bytes_per_group, 0u);
  EXPECT_DOUBLE_EQ(p_local.barriers_per_item, 1.0);

  const tuner::Configuration const_tf{{8, 8, 1, 1, 0, 0, 0, 1, 0, 1}};
  const auto p_const = bench.prepare(k40(), const_tf).kernel.profile();
  EXPECT_TRUE(p_const.uses_space(MemorySpace::kConstant));
  EXPECT_GT(p_const.constant_mem_bytes, 0u);
}

TEST(RayProfile, DivergenceFromEarlyTermination) {
  const RaycastingBenchmark bench(RaycastingBenchmark::Geometry{16, 16, 16});
  const tuner::Configuration c{{8, 8, 1, 1, 0, 0, 0, 0, 0, 1}};
  EXPECT_GT(bench.prepare(k40(), c).kernel.profile().divergence, 0.1);
}

TEST(StereoProfile, RightTileLargerThanLeft) {
  const StereoBenchmark bench;  // max_disparity 64, radius 2
  const tuner::Configuration left_only{{8, 8, 1, 1, 0, 0, 1, 0, 1, 1, 1}};
  const tuner::Configuration right_only{{8, 8, 1, 1, 0, 0, 0, 1, 1, 1, 1}};
  const auto p_left = bench.prepare(k40(), left_only).kernel.profile();
  const auto p_right = bench.prepare(k40(), right_only).kernel.profile();
  // Right tile extends by max_disparity columns.
  EXPECT_GT(p_right.local_mem_bytes_per_group,
            p_left.local_mem_bytes_per_group);
  EXPECT_EQ(p_left.local_mem_bytes_per_group, 12u * 12u * 4u);
  EXPECT_EQ(p_right.local_mem_bytes_per_group, (12u + 64u) * 12u * 4u);
}

TEST(StereoProfile, BothTilesSumAndOftenOverflowGpuLocal) {
  const StereoBenchmark bench;
  // WG 16x16, PPT 2x2: left (36x36), right (100x36) -> ~19 KB total; with
  // PPT 4x4 it far exceeds 48 KB.
  const tuner::Configuration moderate{{16, 16, 2, 2, 0, 0, 1, 1, 1, 1, 1}};
  const auto p_mod = bench.prepare(k40(), moderate);
  EXPECT_EQ(p_mod.kernel.validate_launch(p_mod.global, p_mod.local),
            clsim::Status::kSuccess);
  const tuner::Configuration huge{{16, 16, 4, 4, 0, 0, 1, 1, 1, 1, 1}};
  const auto p_huge = bench.prepare(k40(), huge);
  EXPECT_EQ(p_huge.kernel.validate_launch(p_huge.global, p_huge.local),
            clsim::Status::kOutOfLocalMemory);
}

TEST(StereoProfile, ThreeUnrollLoopsAllPragma) {
  const StereoBenchmark bench;
  const tuner::Configuration c{{8, 8, 1, 1, 0, 0, 0, 0, 4, 2, 4}};
  const auto profile = bench.prepare(k40(), c).kernel.profile();
  ASSERT_EQ(profile.loops.size(), 3u);
  EXPECT_EQ(profile.loops[0].unroll_factor, 4u);  // disparity
  EXPECT_EQ(profile.loops[1].unroll_factor, 4u);  // dy
  EXPECT_EQ(profile.loops[2].unroll_factor, 2u);  // dx
  for (const auto& loop : profile.loops)
    EXPECT_TRUE(loop.via_driver_pragma);
}

TEST(StereoProfile, UnrollInflatesCompileComplexity) {
  const StereoBenchmark bench;
  const tuner::Configuration plain{{8, 8, 1, 1, 0, 0, 0, 0, 1, 1, 1}};
  const tuner::Configuration unrolled{{8, 8, 1, 1, 0, 0, 0, 0, 8, 4, 4}};
  EXPECT_GT(bench.prepare(k40(), unrolled).kernel.profile().compile_complexity,
            bench.prepare(k40(), plain).kernel.profile().compile_complexity);
}

TEST(Evaluator, MeasuresValidAndInvalidWithCost) {
  const auto bench = make_benchmark("convolution");
  BenchmarkEvaluator eval(*bench, k40());
  const tuner::Configuration good{{16, 8, 2, 2, 0, 0, 0, 1, 0}};
  const auto m_good = eval.measure(good);
  EXPECT_TRUE(m_good.valid);
  EXPECT_GT(m_good.time_ms, 0.0);
  EXPECT_GT(m_good.cost_ms, m_good.time_ms);  // includes compile time

  const tuner::Configuration bad{{128, 128, 1, 1, 0, 0, 0, 0, 0}};  // 16K items
  const auto m_bad = eval.measure(bad);
  EXPECT_FALSE(m_bad.valid);
  EXPECT_GT(m_bad.cost_ms, 0.0);
  EXPECT_EQ(m_bad.status, clsim::Status::kInvalidWorkGroupSize);
}

TEST(Evaluator, NameCombinesBenchmarkAndDevice) {
  const auto bench = make_benchmark_small("stereo");
  const BenchmarkEvaluator eval(*bench, k40());
  EXPECT_EQ(eval.name(), "stereo@Nvidia K40");
}

TEST(Evaluator, QueueTimelineAccumulates) {
  const auto bench = make_benchmark("convolution");
  BenchmarkEvaluator eval(*bench, k40());
  const tuner::Configuration good{{16, 8, 2, 2, 0, 0, 0, 1, 0}};
  (void)eval.measure(good);
  (void)eval.measure(good);
  EXPECT_GT(eval.queue().total_build_ms(), 0.0);
  EXPECT_GT(eval.queue().total_kernel_ms(), 0.0);
}

TEST(Evaluator, MeasurementsKeepTheirBits) {
  // One fresh platform: its five devices share one TimingModel, and every
  // launch on any of them, functional ones included, advances the
  // measurement-noise counter that later measurements read. Recorded as hex
  // floats from the AVX-512 build; every SIMD backend must reproduce them.
  const clsim::Platform platform = archsim::default_platform();
  const clsim::Device gpu = platform.device_by_name(archsim::kNvidiaK40);
  const auto bench = make_benchmark("convolution");
  const tuner::Configuration valid_a{{16, 8, 2, 2, 0, 0, 0, 1, 0}};
  const tuner::Configuration valid_b{{32, 4, 2, 8, 0, 1, 1, 0, 1}};
  const tuner::Configuration launch_rejected{{128, 128, 1, 1, 0, 0, 0, 0, 0}};
  // No configuration of the space is rejected at build at paper geometry,
  // so this one takes the build failure of
  // ConvProfile.PerThreadWorkBeyondImageIsStaticBuildFailure (PPT_X 64 on a
  // 32-pixel image) past the 2048-pixel width.
  const tuner::Configuration build_rejected{{1, 1, 4096, 1, 0, 0, 0, 0, 0}};

  struct Pinned {
    double time_ms;
    double cost_ms;
    clsim::Status status;
  };
  const auto bits = [](double x) { return std::bit_cast<std::uint64_t>(x); };
  const auto expect_pinned = [&](const tuner::Measurement& m,
                                 const Pinned& p, const char* what) {
    EXPECT_EQ(bits(m.time_ms), bits(p.time_ms))
        << what << ": " << std::hexfloat << m.time_ms << " != " << p.time_ms;
    EXPECT_EQ(bits(m.cost_ms), bits(p.cost_ms))
        << what << ": " << std::hexfloat << m.cost_ms << " != " << p.cost_ms;
    EXPECT_EQ(m.status, p.status) << what;
  };

  BenchmarkEvaluator first(*bench, gpu);
  expect_pinned(first.measure(valid_a),
                {0x1.348d4e6151e18p-2, 0x1.a64d235398548p+8,
                 clsim::Status::kSuccess},
                "valid a");
  expect_pinned(first.measure(launch_rejected),
                {0x0p+0, 0x1.2a820c49ba5e3p+9,
                 clsim::Status::kInvalidWorkGroupSize},
                "launch rejected");
  expect_pinned(first.measure(build_rejected),
                {0x0p+0, 0x1.5e083126e978dp+7,
                 clsim::Status::kBuildProgramFailure},
                "build rejected");
  expect_pinned(first.measure(valid_b),
                {0x1.c61fd0742059ep-1, 0x1.0c7187f41d081p+9,
                 clsim::Status::kSuccess},
                "valid b");
  const double build_ms = first.queue().total_build_ms();
  const double kernel_ms = first.queue().total_kernel_ms();
  EXPECT_EQ(bits(build_ms), bits(0x1.59p+10)) << std::hexfloat << build_ms;
  EXPECT_EQ(bits(kernel_ms), bits(0x1.30333bd264a55p+0))
      << std::hexfloat << kernel_ms;

  // A functional launch on another device of the same platform.
  const auto small = make_benchmark_small("convolution");
  EXPECT_LT(small->verify(platform.device_by_name(archsim::kIntelI7), valid_a),
            1e-4);

  BenchmarkEvaluator second(*bench, gpu);
  expect_pinned(second.measure(valid_a),
                {0x1.3716fce3cf1eap-2, 0x1.a64dc5bf38f3cp+8,
                 clsim::Status::kSuccess},
                "valid a, second evaluator");
}

}  // namespace
}  // namespace pt::benchkit
