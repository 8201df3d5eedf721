// Figures 11, 12, 13: mean slowdown of the auto-tuned configuration vs the
// (exhaustively known) global optimum for convolution, over a grid of
// N training configurations x M second-stage configurations, on the Nvidia
// K40, Intel i7 and AMD HD 7970.
//
// Paper's shape: slowdown shrinks as N and M grow; at N=2000, M=200 the
// tuner lands 3.5% / 5.8% / 8.7% above optimal (Intel / AMD / Nvidia) after
// measuring only ~1.7% of the space; at N=500, M=100 it is 13-30% above.
// Some low-budget cells are *missing* because every second-stage candidate
// was invalid — the failure mode discussed in section 7.
//
// Flags:
//   --trace=PREFIX  record telemetry for the whole sweep and write
//                   PREFIX.trace.json (Chrome trace; load in chrome://tracing
//                   or https://ui.perfetto.dev) plus PREFIX.metrics.json
//                   (per-stage wall/simulated time, cache hit rate,
//                   rejections by status, per-epoch training loss).

#include <iostream>
#include <optional>
#include <string>

#include "bench_util.hpp"
#include "common/telemetry/telemetry.hpp"
#include "report.hpp"
#include "tuner/search.hpp"

int main(int argc, char** argv) {
  using namespace pt;
  const common::CliArgs args(argc, argv);
  common::apply_thread_option(args);
  const bool full = args.get("full", false);
  bench::print_banner(
      "Figures 11-13: auto-tuner slowdown vs global optimum (convolution)",
      full);

  exp::SlowdownGridOptions opts;
  if (full) {
    opts.training_sizes = {100, 200, 300, 400, 500, 1000, 2000};
    opts.second_stage_sizes = {10, 50, 100, 150, 200};
    opts.repeats = static_cast<std::size_t>(args.get("repeats", 3L));
  } else {
    opts.training_sizes = {200, 500, 1000, 2000};
    opts.second_stage_sizes = {50, 100, 200};
    opts.repeats = static_cast<std::size_t>(args.get("repeats", 2L));
  }
  opts.seed = static_cast<std::uint64_t>(args.get("seed", 7L));

  const auto trace_prefix = args.get("trace", std::string());
  std::optional<common::telemetry::Collector> collector;
  if (!trace_prefix.empty()) {
    collector.emplace();
    opts.telemetry = &*collector;
  }

  const clsim::Platform platform = archsim::default_platform();
  const auto bench_obj = benchkit::make_benchmark("convolution");

  for (const auto& device_name : bench::main_devices()) {
    benchkit::BenchmarkEvaluator inner(
        *bench_obj, platform.device_by_name(device_name));
    tuner::CachingEvaluator eval(inner);
    const exp::SlowdownGrid grid = exp::autotuner_slowdown_grid(eval, opts);
    std::cout << "\n";
    bench::print_slowdown_grid(grid, args.get("csv", false));
  }

  std::cout << "\nfraction of the space measured at N=2000, M=200: "
            << common::fmt_pct(2200.0 / 131072.0) << " (paper: ~1.7%)\n";

  if (collector) {
    bench::write_chrome_trace(*collector, trace_prefix);
    bench::ReportWriter metrics;
    metrics.set("bench", "fig11_13_autotuner")
        .set("seed", opts.seed)
        .set("repeats", opts.repeats);
    metrics.attach_telemetry(&*collector);
    metrics.write(trace_prefix + ".metrics.json");
  }
  return 0;
}
