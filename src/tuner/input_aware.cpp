#include "tuner/input_aware.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "common/stats.hpp"
#include "common/telemetry/telemetry.hpp"
#include "ml/scaler.hpp"

namespace pt::tuner {

InputAwarePerformanceModel::InputAwarePerformanceModel(Options options)
    : options_(std::move(options)),
      ensemble_(
          std::make_shared<const ml::BaggingEnsemble>(options_.ensemble)) {}

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
    const std::vector<InputAwareSample>& samples, common::Rng& rng) {
  if (samples.empty())
    throw std::invalid_argument("InputAwarePerformanceModel::fit: no samples");
  const common::telemetry::Span span("input_aware.fit");
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
    output_ = OutputTransform{stats.stddev() > 1e-9 ? stats.stddev() : 1.0,
                              stats.mean(), options_.log_targets};
    for (std::size_t i = 0; i < samples.size(); ++i)
      data.y(i, 0) = (data.y(i, 0) - output_.mean) / output_.scale;
  }

  auto ensemble = std::make_shared<ml::BaggingEnsemble>(options_.ensemble);
  ensemble->fit(data, rng);
  ensemble_ = std::move(ensemble);
}

double InputAwarePerformanceModel::predict_ms(
    const Configuration& config, const ProblemInstance& instance) const {
  if (!fitted())
    throw std::logic_error("InputAwarePerformanceModel: predict before fit");
  return output_(ensemble_->predict(encode(config, instance)));
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
  auto preds = ensemble_->predict_batch(x);
  for (auto& p : preds) p = output_(p);
  return preds;
}

ScanEngine InputAwarePerformanceModel::scan_engine(
    const ProblemInstance& instance) const {
  if (!fitted())
    throw std::logic_error("InputAwarePerformanceModel: predict before fit");
  std::vector<double> tail = instance_features(instance);
  const std::vector<float> tail_f(tail.begin(), tail.end());
  const ml::CertificationBox box = range_encoder_.calibration(tail_f);
  return ScanEngine(ensemble_, batched_.get(*ensemble_, box), range_encoder_,
                    std::move(tail), output_, range_encoder_.radices());
}

std::vector<double> InputAwarePerformanceModel::predict_range_ms(
    std::uint64_t begin, std::uint64_t end,
    const ProblemInstance& instance) const {
  return scan_engine(instance).reference_range(begin, end);
}

TopMScanResult InputAwarePerformanceModel::predict_scan_top_m(
    std::uint64_t begin, std::uint64_t end, std::size_t m,
    const ProblemInstance& instance, const ScanFilter& filter) const {
  return scan_engine(instance).top_m(begin, end, m, filter);
}

}  // namespace pt::tuner
