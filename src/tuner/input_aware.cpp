#include "tuner/input_aware.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "common/stats.hpp"
#include "ml/scaler.hpp"

namespace pt::tuner {

InputAwarePerformanceModel::InputAwarePerformanceModel(Options options)
    : options_(std::move(options)), ensemble_(options_.ensemble) {}

std::vector<double> InputAwarePerformanceModel::instance_features(
    const ProblemInstance& instance) const {
  if (instance.values.size() != problem_names_.size())
    throw std::invalid_argument(
        "InputAwarePerformanceModel: instance width mismatch");
  std::vector<double> features;
  features.reserve(instance.values.size());
  for (const double v : instance.values) {
    if (options_.log2_problem_parameters) {
      if (v <= 0.0)
        throw std::invalid_argument(
            "InputAwarePerformanceModel: non-positive problem parameter "
            "with log2 encoding");
      features.push_back(std::log2(v));
    } else {
      features.push_back(v);
    }
  }
  return features;
}

std::vector<double> InputAwarePerformanceModel::encode(
    const Configuration& config, const ProblemInstance& instance) const {
  const std::vector<double> inst = instance_features(instance);
  std::vector<double> features = codec_.encode(config);
  features.insert(features.end(), inst.begin(), inst.end());
  return features;
}

void InputAwarePerformanceModel::fit(
    const ParamSpace& space, std::vector<std::string> problem_parameter_names,
    const std::vector<InputAwareSample>& samples, const TuneRun& request) {
  const TunerRunContext& run = request.effective_context(options_.run);
  if (request.rng != nullptr) {
    do_fit(space, std::move(problem_parameter_names), samples, *request.rng,
           run);
    return;
  }
  common::Rng rng = run.make_rng();
  do_fit(space, std::move(problem_parameter_names), samples, rng, run);
}

void InputAwarePerformanceModel::fit(
    const ParamSpace& space, std::vector<std::string> problem_parameter_names,
    const std::vector<InputAwareSample>& samples) {
  fit(space, std::move(problem_parameter_names), samples, TuneRun{});
}

void InputAwarePerformanceModel::fit(
    const ParamSpace& space, std::vector<std::string> problem_parameter_names,
    const std::vector<InputAwareSample>& samples, common::Rng& rng) {
  TuneRun request;
  request.rng = &rng;
  fit(space, std::move(problem_parameter_names), samples, request);
}

void InputAwarePerformanceModel::do_fit(
    const ParamSpace& space, std::vector<std::string> problem_parameter_names,
    const std::vector<InputAwareSample>& samples, common::Rng& rng,
    const TunerRunContext& run) {
  if (samples.empty())
    throw std::invalid_argument("InputAwarePerformanceModel::fit: no samples");
  const ScopedRunContext scoped(run);
  StageScope stage(run, "input_aware", "input_aware.fit");
  space_ = space;
  codec_ = FeatureCodec::build(space, options_.encoding);
  range_encoder_ = RangeEncoder(codec_, space_);
  batched_.reset();
  problem_names_ = std::move(problem_parameter_names);

  const std::size_t dims = space.dimension_count();
  const std::size_t width = dims + problem_names_.size();
  ml::Dataset data;
  data.x = ml::Matrix(samples.size(), width);
  data.y = ml::Matrix(samples.size(), 1);
  for (std::size_t i = 0; i < samples.size(); ++i) {
    if (samples[i].time_ms <= 0.0)
      throw std::invalid_argument(
          "InputAwarePerformanceModel::fit: non-positive time");
    const auto row = data.x.row(i);
    codec_.encode_into(samples[i].config, row.subspan(0, dims));
    const auto inst = instance_features(samples[i].instance);
    std::copy(inst.begin(), inst.end(), row.begin() + dims);
    data.y(i, 0) = options_.log_targets
                       ? ml::LogTargetTransform::forward(samples[i].time_ms)
                       : samples[i].time_ms;
  }

  // Standardize the transformed targets (see AnnPerformanceModel).
  {
    common::RunningStats stats;
    for (std::size_t i = 0; i < samples.size(); ++i) stats.add(data.y(i, 0));
    target_mean_ = stats.mean();
    target_scale_ = stats.stddev() > 1e-9 ? stats.stddev() : 1.0;
    for (std::size_t i = 0; i < samples.size(); ++i)
      data.y(i, 0) = (data.y(i, 0) - target_mean_) / target_scale_;
  }

  ensemble_ = ml::BaggingEnsemble(options_.ensemble);
  ensemble_.fit(data, rng);
  stage.finish();
  // Replay per-member training curves in deterministic (member, epoch)
  // order (see tuner/observer.hpp).
  if (run.observer != nullptr) {
    const auto& curves = ensemble_.train_results();
    for (std::size_t member = 0; member < curves.size(); ++member) {
      const ml::TrainResult& tr = curves[member];
      for (std::size_t epoch = 0; epoch < tr.train_loss.size(); ++epoch)
        run.observer->on_epoch(member, epoch, tr.train_loss[epoch],
                               tr.monitored_loss[epoch]);
    }
  }
}

double InputAwarePerformanceModel::predict_ms(
    const Configuration& config, const ProblemInstance& instance) const {
  if (!fitted())
    throw std::logic_error("InputAwarePerformanceModel: predict before fit");
  const double raw =
      ensemble_.predict(encode(config, instance)) * target_scale_ +
      target_mean_;
  return options_.log_targets ? ml::LogTargetTransform::inverse(raw) : raw;
}

std::vector<double> InputAwarePerformanceModel::predict_many_ms(
    const std::vector<Configuration>& configs,
    const ProblemInstance& instance) const {
  if (!fitted())
    throw std::logic_error("InputAwarePerformanceModel: predict before fit");
  if (configs.empty()) return {};
  const std::size_t dims = space_.dimension_count();
  const auto inst = instance_features(instance);
  ml::Matrix x(configs.size(), dims + inst.size());
  for (std::size_t i = 0; i < configs.size(); ++i) {
    const auto row = x.row(i);
    codec_.encode_into(configs[i], row.subspan(0, dims));
    std::copy(inst.begin(), inst.end(), row.begin() + dims);
  }
  auto preds = ensemble_.predict_batch(x);
  for (auto& p : preds) {
    p = p * target_scale_ + target_mean_;
    if (options_.log_targets) p = ml::LogTargetTransform::inverse(p);
  }
  return preds;
}

OutputTransform InputAwarePerformanceModel::output_transform()
    const noexcept {
  return OutputTransform{target_scale_, target_mean_, options_.log_targets};
}

ScanRowFiller InputAwarePerformanceModel::row_filler(
    const ProblemInstance& instance) const {
  // The instance features are fixed across the scan: validate and transform
  // them once, then the range encoder copies them into every row tail.
  return [this, inst = instance_features(instance)](
             std::uint64_t lo, std::uint64_t hi, ml::Matrix& x) {
    range_encoder_.fill(lo, hi, x, inst);
  };
}

ScanEngines InputAwarePerformanceModel::scan_engines(
    const ProblemInstance& instance, ScanInference inference) const {
  const auto inst = instance_features(instance);
  return make_scan_engines(batched_, ensemble_, range_encoder_,
                           std::vector<float>(inst.begin(), inst.end()),
                           inference);
}

std::vector<double> InputAwarePerformanceModel::predict_range_ms(
    std::uint64_t begin, std::uint64_t end, const ProblemInstance& instance,
    ScanInference inference) const {
  if (!fitted())
    throw std::logic_error("InputAwarePerformanceModel: predict before fit");
  if (inference == ScanInference::kScalarFp64)
    return scan_predict_range(ensemble_, row_filler(instance), begin, end,
                              output_transform());
  const ScanEngines e = scan_engines(instance, inference);
  ScanOptions options = options_.scan;
  options.inference = inference;
  return scan_predict_range(ensemble_, row_filler(instance), begin, end,
                            output_transform(), options, &e.batched);
}

TopMScanResult InputAwarePerformanceModel::predict_scan_top_m(
    std::uint64_t begin, std::uint64_t end, std::size_t m,
    const ProblemInstance& instance, const ScanFilter& filter) const {
  if (!fitted())
    throw std::logic_error("InputAwarePerformanceModel: predict before fit");
  if (options_.scan.inference == ScanInference::kScalarFp64)
    return scan_top_m(ensemble_, row_filler(instance), begin, end, m,
                      output_transform(), filter);
  const ScanEngines e = scan_engines(instance, options_.scan.inference);
  return scan_top_m(ensemble_, row_filler(instance), begin, end, m,
                    output_transform(), filter, options_.scan, &e.batched);
}

}  // namespace pt::tuner
