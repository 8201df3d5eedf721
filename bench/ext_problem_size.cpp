// Extension bench: input-aware performance modeling (the paper's future
// work, section 8). One model is trained on convolution measurements taken
// at several image sizes, with the size as a problem parameter (an extra
// network input), then evaluated (a) at the sizes it saw and (b) at
// held-out sizes it never saw.

#include <iostream>

#include "bench_util.hpp"
#include "benchmarks/convolution.hpp"
#include "common/stats.hpp"
#include "ml/metrics.hpp"
#include "tuner/model.hpp"

namespace {

using namespace pt;

struct SizedEvaluator {
  std::unique_ptr<benchkit::ConvolutionBenchmark> bench;
  std::unique_ptr<benchkit::BenchmarkEvaluator> eval;
  double size = 0.0;
};

SizedEvaluator make_sized(std::size_t size, const clsim::Device& device) {
  benchkit::ConvolutionBenchmark::Geometry g;
  g.width = size;
  g.height = size;
  SizedEvaluator out;
  out.bench = std::make_unique<benchkit::ConvolutionBenchmark>(g);
  out.eval =
      std::make_unique<benchkit::BenchmarkEvaluator>(*out.bench, device);
  out.size = static_cast<double>(size);
  return out;
}

std::vector<tuner::TrainingSample> sample_sized(
    SizedEvaluator& se, std::size_t n, common::Rng& rng) {
  std::vector<tuner::TrainingSample> samples;
  std::size_t attempts = 0;
  while (samples.size() < n && attempts < n * 32) {
    ++attempts;
    const auto config = se.eval->space().random(rng);
    const auto m = se.eval->measure(config);
    if (m.valid)
      samples.push_back(
          {config, m.time_ms, tuner::ProblemInstance{{se.size}}});
  }
  return samples;
}

double score(const tuner::AnnPerformanceModel& model,
             SizedEvaluator& se, std::size_t n, common::Rng& rng) {
  std::vector<double> actual;
  std::vector<double> predicted;
  std::size_t attempts = 0;
  while (actual.size() < n && attempts < n * 32) {
    ++attempts;
    const auto config = se.eval->space().random(rng);
    const auto m = se.eval->measure(config);
    if (!m.valid) continue;
    actual.push_back(m.time_ms);
    predicted.push_back(model.predict_ms(
        config, tuner::ProblemInstance{{se.size}}));
  }
  return ml::mean_relative_error(predicted, actual);
}

}  // namespace

int main(int argc, char** argv) {
  const common::CliArgs args(argc, argv);
  common::apply_thread_option(args);
  bench::print_banner(
      "Extension: input-aware model across convolution image sizes "
      "(@ Nvidia K40)",
      false);
  const auto per_size =
      static_cast<std::size_t>(args.get("per-size", 700L));
  const auto test_n = static_cast<std::size_t>(args.get("test-samples", 200L));
  common::Rng rng(static_cast<std::uint64_t>(args.get("seed", 13L)));

  const clsim::Platform platform = archsim::default_platform();
  const clsim::Device device =
      platform.device_by_name(archsim::kNvidiaK40);

  // Five size levels spanning the range densely enough that the network is
  // constrained between them; two interior sizes are held out entirely.
  const std::vector<std::size_t> train_sizes = {256, 384, 512, 1024, 2048};
  const std::vector<std::size_t> holdout_sizes = {768, 1536};

  // Gather the multi-size training set.
  std::vector<tuner::TrainingSample> training;
  std::vector<SizedEvaluator> train_evals;
  for (const auto size : train_sizes) {
    train_evals.push_back(make_sized(size, device));
    const auto samples = sample_sized(train_evals.back(), per_size, rng);
    training.insert(training.end(), samples.begin(), samples.end());
    std::cout << "  [sampled " << samples.size() << " @ " << size << "^2]\n"
              << std::flush;
  }

  tuner::AnnPerformanceModel model;
  model.fit(train_evals.front().eval->space(), training, rng);
  std::cout << "  [input-aware model trained on " << training.size()
            << " samples across " << train_sizes.size() << " sizes]\n";

  common::Table table({"Image size", "Input-aware model MRE", "Note"});
  for (auto& se : train_evals) {
    table.add_row({std::to_string(static_cast<std::size_t>(se.size)) + "^2",
                   common::fmt_pct(score(model, se, test_n, rng)),
                   "seen during training"});
  }
  for (const auto holdout_size : holdout_sizes) {
    SizedEvaluator holdout = make_sized(holdout_size, device);
    table.add_row({std::to_string(holdout_size) + "^2",
                   common::fmt_pct(score(model, holdout, test_n, rng)),
                   "NEVER seen (interpolated)"});
  }
  table.print(std::cout);
  if (args.get("csv", false)) table.print_csv(std::cout);
  return 0;
}
