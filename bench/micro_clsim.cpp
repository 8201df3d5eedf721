// google-benchmark micro-benchmarks for the simulated runtime: measurement
// throughput (build + validate + timing-model evaluation per configuration),
// the set-up of a paper-geometry evaluator (what a tune or a served store
// miss pays before its first measurement) and the functional coroutine
// executor. Measurement throughput is what makes exhaustive ground-truth
// sweeps over 131K-point spaces practical.

#include <benchmark/benchmark.h>

#include "archsim/devices.hpp"
#include "benchmarks/registry.hpp"
#include "clsim/executor.hpp"

namespace {

using namespace pt;

void BM_MeasureConfiguration(benchmark::State& state) {
  const clsim::Platform platform = archsim::default_platform();
  const auto bench = benchkit::make_benchmark("convolution");
  benchkit::BenchmarkEvaluator eval(
      *bench, platform.device_by_name(archsim::kNvidiaK40));
  common::Rng rng(1);
  std::vector<tuner::Configuration> configs;
  for (int i = 0; i < 512; ++i) configs.push_back(eval.space().random(rng));
  std::size_t i = 0;
  for (auto _ : state) {
    const auto m = eval.measure(configs[i++ % configs.size()]);
    benchmark::DoNotOptimize(m.time_ms);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_MeasureConfiguration);

// One iteration: build the paper-geometry benchmark, its evaluator on the
// K40, and measure one configuration (then destroy both).
void BM_EvaluatorSetup(benchmark::State& state, const char* kernel) {
  const clsim::Platform platform = archsim::default_platform();
  const clsim::Device k40 = platform.device_by_name(archsim::kNvidiaK40);
  common::Rng rng(1);
  const tuner::Configuration config =
      benchkit::make_benchmark(kernel)->space().random(rng);
  for (auto _ : state) {
    const auto bench = benchkit::make_benchmark(kernel);
    benchkit::BenchmarkEvaluator eval(*bench, k40);
    const auto m = eval.measure(config);
    benchmark::DoNotOptimize(m.time_ms);
  }
}
BENCHMARK_CAPTURE(BM_EvaluatorSetup, convolution, "convolution");
BENCHMARK_CAPTURE(BM_EvaluatorSetup, stereo, "stereo");
BENCHMARK_CAPTURE(BM_EvaluatorSetup, raycasting, "raycasting");

void BM_TimingModelOnly(benchmark::State& state) {
  const archsim::TimingModel model;
  const auto info = archsim::nvidia_k40_info();
  clsim::KernelProfile profile;
  profile.flops_per_item = 200.0;
  clsim::MemoryStream s;
  s.accesses_per_item = 25.0;
  profile.streams.push_back(s);
  clsim::LaunchDescriptor launch;
  launch.profile = &profile;
  launch.global = clsim::NDRange(1024, 1024);
  launch.local = clsim::NDRange(16, 16);
  for (auto _ : state) {
    benchmark::DoNotOptimize(model.kernel_time_ms(info, launch));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_TimingModelOnly);

void BM_ExecutorNoBarrier(benchmark::State& state) {
  const auto items = static_cast<std::size_t>(state.range(0));
  clsim::Buffer out(items * sizeof(int));
  const clsim::KernelBody body =
      [out](clsim::WorkItemCtx& ctx) -> clsim::WorkItemTask {
    out.as<int>()[ctx.global_id(0)] = static_cast<int>(ctx.global_id(0));
    co_return;
  };
  const clsim::NDRangeExecutor exec;
  for (auto _ : state) {
    exec.run(clsim::NDRange(items), clsim::NDRange(64), 0, body);
    benchmark::DoNotOptimize(out.as<int>().data());
  }
  state.SetItemsProcessed(
      static_cast<std::int64_t>(state.iterations()) * items);
}
BENCHMARK(BM_ExecutorNoBarrier)->Arg(1024)->Arg(16384);

void BM_ExecutorWithBarrier(benchmark::State& state) {
  const auto items = static_cast<std::size_t>(state.range(0));
  clsim::Buffer out(items * sizeof(int));
  const clsim::KernelBody body =
      [out](clsim::WorkItemCtx& ctx) -> clsim::WorkItemTask {
    auto scratch = ctx.local_alloc<int>(64);
    scratch[ctx.local_id(0)] = static_cast<int>(ctx.global_id(0));
    co_await ctx.barrier();
    out.as<int>()[ctx.global_id(0)] = scratch[63 - ctx.local_id(0)];
  };
  const clsim::NDRangeExecutor exec;
  for (auto _ : state) {
    exec.run(clsim::NDRange(items), clsim::NDRange(64), 64 * sizeof(int),
             body);
    benchmark::DoNotOptimize(out.as<int>().data());
  }
  state.SetItemsProcessed(
      static_cast<std::int64_t>(state.iterations()) * items);
}
BENCHMARK(BM_ExecutorWithBarrier)->Arg(1024)->Arg(16384);

void BM_ExhaustiveSweepThroughput(benchmark::State& state) {
  // Cost of one full-space prediction target: decode + encode round trip.
  const auto bench = benchkit::make_benchmark_small("convolution");
  const auto& space = bench->space();
  std::uint64_t i = 0;
  for (auto _ : state) {
    const auto config = space.decode(i++ % space.size());
    benchmark::DoNotOptimize(space.encode(config));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ExhaustiveSweepThroughput);

}  // namespace

BENCHMARK_MAIN();
