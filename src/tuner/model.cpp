#include "tuner/model.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "common/stats.hpp"
#include "ml/scaler.hpp"

namespace pt::tuner {

namespace {

/// log2 of each value of `instance`, which must hold `count` values > 0.
std::vector<double> log2_instance(const ProblemInstance& instance,
                                  std::size_t count) {
  if (instance.values.size() != count)
    throw std::invalid_argument("AnnPerformanceModel: instance width mismatch");
  std::vector<double> features;
  features.reserve(count);
  for (const double v : instance.values) {
    if (!(v > 0.0))
      throw std::invalid_argument(
          "AnnPerformanceModel: non-positive problem parameter");
    features.push_back(std::log2(v));
  }
  return features;
}

}  // namespace

AnnPerformanceModel::AnnPerformanceModel(Options options)
    : options_(std::move(options)),
      ensemble_(
          std::make_shared<const ml::BaggingEnsemble>(options_.ensemble)) {}

std::vector<double> AnnPerformanceModel::encode_features(
    const Configuration& config, const ProblemInstance& instance) const {
  const std::vector<double> tail =
      log2_instance(instance, problem_parameters_);
  std::vector<double> features = codec_.encode(config);
  features.insert(features.end(), tail.begin(), tail.end());
  return features;
}

void AnnPerformanceModel::fit(const ParamSpace& space,
                              const std::vector<TrainingSample>& samples,
                              common::Rng& rng) {
  if (samples.empty())
    throw std::invalid_argument("AnnPerformanceModel::fit: no samples");
  // Everything is built in locals and committed only once the new ensemble
  // has fitted, so a fit that throws leaves the previous model whole.
  FeatureCodec codec = FeatureCodec::build(space, options_.encoding);
  RangeEncoder range_encoder(codec, space);

  const std::size_t dims = space.dimension_count();
  const std::size_t params = samples.front().instance.values.size();
  ml::Dataset data;
  data.x = ml::Matrix(samples.size(), dims + params);
  data.y = ml::Matrix(samples.size(), 1);
  for (std::size_t i = 0; i < samples.size(); ++i) {
    if (samples[i].time_ms <= 0.0)
      throw std::invalid_argument(
          "AnnPerformanceModel::fit: non-positive time");
    const auto row = data.x.row(i);
    codec.encode_into(samples[i].config, row.first(dims));
    const std::vector<double> tail =
        log2_instance(samples[i].instance, params);
    std::copy(tail.begin(), tail.end(), row.begin() + dims);
    data.y(i, 0) = options_.log_targets
                       ? ml::LogTargetTransform::forward(samples[i].time_ms)
                       : samples[i].time_ms;
  }

  // Standardize the (transformed) targets so the network trains at unit
  // scale; predictions are mapped back through output_.
  common::RunningStats stats;
  for (std::size_t i = 0; i < samples.size(); ++i) stats.add(data.y(i, 0));
  const OutputTransform output{stats.stddev() > 1e-9 ? stats.stddev() : 1.0,
                               stats.mean(), options_.log_targets};
  for (std::size_t i = 0; i < samples.size(); ++i)
    data.y(i, 0) = (data.y(i, 0) - output.mean) / output.scale;

  auto ensemble = std::make_shared<ml::BaggingEnsemble>(options_.ensemble);
  ensemble->fit(data, rng);

  space_ = space;
  codec_ = std::move(codec);
  range_encoder_ = std::move(range_encoder);
  problem_parameters_ = params;
  output_ = output;
  ensemble_ = std::move(ensemble);
  batched_.reset();
}

AnnPerformanceModel AnnPerformanceModel::restore(
    Options options, ParamSpace space, double target_mean,
    double target_scale, ml::BaggingEnsemble ensemble) {
  if (!ensemble.fitted())
    throw std::invalid_argument(
        "AnnPerformanceModel::restore: unfitted ensemble");
  if (ensemble.scaler().width() != space.dimension_count())
    throw std::invalid_argument(
        "AnnPerformanceModel::restore: space/ensemble width mismatch");
  if (!std::isfinite(target_mean) || !std::isfinite(target_scale) ||
      target_scale <= 0.0)
    throw std::invalid_argument(
        "AnnPerformanceModel::restore: bad target transform");
  AnnPerformanceModel model(std::move(options));
  model.codec_ = FeatureCodec::build(space, model.options_.encoding);
  model.range_encoder_ = RangeEncoder(model.codec_, space);
  model.space_ = std::move(space);
  model.output_ = OutputTransform{target_scale, target_mean,
                                  model.options_.log_targets};
  model.ensemble_ =
      std::make_shared<const ml::BaggingEnsemble>(std::move(ensemble));
  return model;
}

double AnnPerformanceModel::predict_ms(const Configuration& config,
                                       const ProblemInstance& instance) const {
  if (!fitted())
    throw std::logic_error("AnnPerformanceModel: predict before fit");
  return output_(ensemble_->predict(encode_features(config, instance)));
}

ScanEngine AnnPerformanceModel::scan_engine(
    const ProblemInstance& instance) const {
  if (!fitted())
    throw std::logic_error("AnnPerformanceModel: predict before fit");
  std::vector<double> tail = log2_instance(instance, problem_parameters_);
  const std::vector<float> tail_f(tail.begin(), tail.end());
  return ScanEngine(
      ensemble_, batched_.get(*ensemble_, range_encoder_.calibration(tail_f)),
      range_encoder_, std::move(tail), output_, range_encoder_.radices());
}

TopMScanResult AnnPerformanceModel::predict_scan_top_m(
    std::uint64_t begin, std::uint64_t end, std::size_t m,
    const ScanFilter& filter) const {
  return scan_engine().top_m(begin, end, m, filter);
}

std::vector<double> AnnPerformanceModel::predict_many_ms(
    const std::vector<Configuration>& configs,
    const ProblemInstance& instance) const {
  if (!fitted())
    throw std::logic_error("AnnPerformanceModel: predict before fit");
  if (configs.empty()) return {};
  const std::size_t dims = space_.dimension_count();
  const std::vector<double> tail =
      log2_instance(instance, problem_parameters_);
  ml::Matrix x(configs.size(), dims + tail.size());
  for (std::size_t i = 0; i < configs.size(); ++i) {
    const auto row = x.row(i);
    codec_.encode_into(configs[i], row.first(dims));
    std::copy(tail.begin(), tail.end(), row.begin() + dims);
  }
  auto preds = ensemble_->predict_batch(x);
  for (auto& p : preds) p = output_(p);
  return preds;
}

}  // namespace pt::tuner
