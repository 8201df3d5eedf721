#include "tuner/model.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "common/stats.hpp"
#include "ml/scaler.hpp"

namespace pt::tuner {

AnnPerformanceModel::AnnPerformanceModel(Options options)
    : options_(std::move(options)), ensemble_(options_.ensemble) {}

std::vector<double> AnnPerformanceModel::encode_features(
    const Configuration& config) const {
  return codec_.encode(config);
}

void AnnPerformanceModel::fit(const ParamSpace& space,
                              const std::vector<TrainingSample>& samples,
                              common::Rng& rng) {
  if (samples.empty())
    throw std::invalid_argument("AnnPerformanceModel::fit: no samples");
  space_ = space;
  codec_ = FeatureCodec::build(space, options_.encoding);
  range_encoder_ = RangeEncoder(codec_, space_);
  batched_.reset();

  ml::Dataset data;
  data.x = ml::Matrix(samples.size(), space.dimension_count());
  data.y = ml::Matrix(samples.size(), 1);
  for (std::size_t i = 0; i < samples.size(); ++i) {
    if (samples[i].time_ms <= 0.0)
      throw std::invalid_argument(
          "AnnPerformanceModel::fit: non-positive time");
    codec_.encode_into(samples[i].config, data.x.row(i));
    data.y(i, 0) = options_.log_targets
                       ? ml::LogTargetTransform::forward(samples[i].time_ms)
                       : samples[i].time_ms;
  }

  // Standardize the (transformed) targets so the network trains at unit
  // scale; predictions are mapped back in to_time_ms().
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
  AnnPerformanceModel model(std::move(options));
  model.codec_ = FeatureCodec::build(space, model.options_.encoding);
  model.range_encoder_ = RangeEncoder(model.codec_, space);
  model.space_ = std::move(space);
  model.target_mean_ = target_mean;
  model.target_scale_ = target_scale;
  model.ensemble_ = std::move(ensemble);
  model.batched_.reset();
  return model;
}

double AnnPerformanceModel::to_time_ms(double network_output) const noexcept {
  const double raw = network_output * target_scale_ + target_mean_;
  return options_.log_targets ? ml::LogTargetTransform::inverse(raw) : raw;
}

double AnnPerformanceModel::predict_ms(const Configuration& config) const {
  if (!fitted())
    throw std::logic_error("AnnPerformanceModel: predict before fit");
  return to_time_ms(ensemble_.predict(encode_features(config)));
}

OutputTransform AnnPerformanceModel::output_transform() const noexcept {
  return OutputTransform{target_scale_, target_mean_, options_.log_targets};
}

ScanRowFiller AnnPerformanceModel::row_filler() const {
  return [this](std::uint64_t lo, std::uint64_t hi, ml::Matrix& x) {
    range_encoder_.fill(lo, hi, x);
  };
}

std::vector<double> AnnPerformanceModel::predict_range_ms(
    std::uint64_t begin, std::uint64_t end, ScanInference inference) const {
  if (!fitted())
    throw std::logic_error("AnnPerformanceModel: predict before fit");
  if (inference == ScanInference::kScalarFp64)
    return scan_predict_range(ensemble_, row_filler(), begin, end,
                              output_transform());
  const ScanEngines e =
      make_scan_engines(batched_, ensemble_, range_encoder_, {}, inference);
  ScanOptions options = options_.scan;
  options.inference = inference;
  return scan_predict_range(ensemble_, row_filler(), begin, end,
                            output_transform(), options, &e.batched);
}

TopMScanResult AnnPerformanceModel::predict_scan_top_m(
    std::uint64_t begin, std::uint64_t end, std::size_t m,
    const ScanFilter& filter) const {
  if (!fitted())
    throw std::logic_error("AnnPerformanceModel: predict before fit");
  if (options_.scan.inference == ScanInference::kScalarFp64)
    return scan_top_m(ensemble_, row_filler(), begin, end, m,
                      output_transform(), filter);
  const ScanEngines e = make_scan_engines(batched_, ensemble_, range_encoder_,
                                          {}, options_.scan.inference);
  return scan_top_m(ensemble_, row_filler(), begin, end, m,
                    output_transform(), filter, options_.scan, &e.batched);
}

std::vector<double> AnnPerformanceModel::predict_many_ms(
    const std::vector<Configuration>& configs) const {
  if (!fitted())
    throw std::logic_error("AnnPerformanceModel: predict before fit");
  if (configs.empty()) return {};
  ml::Matrix x(configs.size(), space_.dimension_count());
  for (std::size_t i = 0; i < configs.size(); ++i)
    codec_.encode_into(configs[i], x.row(i));
  auto preds = ensemble_.predict_batch(x);
  for (auto& p : preds) p = to_time_ms(p);
  return preds;
}

}  // namespace pt::tuner
