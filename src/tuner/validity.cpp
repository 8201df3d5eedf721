#include "tuner/validity.hpp"

#include <algorithm>

#include "ml/dataset.hpp"
#include "ml/scaler.hpp"
#include "ml/trainer.hpp"

namespace pt::tuner {

void ValidityModel::fit(const ParamSpace& space,
                        const std::vector<Configuration>& valid,
                        const std::vector<Configuration>& invalid,
                        common::Rng& rng) {
  net_.reset();
  if (valid.empty() || invalid.empty()) return;  // single class: no filter
  space_ = space;
  codec_ = FeatureCodec::build(space, options_.encoding);

  ml::Dataset data;
  const std::size_t n = valid.size() + invalid.size();
  data.x = ml::Matrix(n, space.dimension_count());
  data.y = ml::Matrix(n, 1);
  std::size_t row = 0;
  for (const auto& config : valid) {
    codec_.encode_into(config, data.x.row(row));
    data.y(row, 0) = 1.0;
    ++row;
  }
  for (const auto& config : invalid) {
    codec_.encode_into(config, data.x.row(row));
    data.y(row, 0) = 0.0;
    ++row;
  }

  scaler_ = ml::StandardScaler();
  scaler_.fit(data.x);
  scaler_.transform_inplace(data.x);

  auto net = std::make_unique<ml::Mlp>(
      space.dimension_count(),
      std::vector<ml::LayerSpec>{
          {options_.hidden_units, ml::Activation::kSigmoid},
          {1, ml::Activation::kSigmoid}});  // sigmoid output: a score in [0,1]
  net->init_weights(rng);
  ml::RpropTrainer::Options topt;
  topt.common.max_epochs = options_.max_epochs;
  topt.common.patience = options_.max_epochs / 8;
  ml::RpropTrainer(topt).train(*net, data, rng);
  net_ = std::move(net);
}

double ValidityModel::score(const Configuration& config) const {
  if (!fitted()) return 1.0;
  std::vector<double> features(codec_.width());
  codec_.encode_into(config, features);
  scaler_.transform_row(features);
  return net_->forward(features)[0];
}

namespace {

/// Batch-score a labelled set: one encode_into per row, one scaler pass and
/// one batched forward instead of a per-configuration allocating loop.
std::vector<double> batch_scores(const FeatureCodec& codec,
                                 const ml::StandardScaler& scaler,
                                 const ml::Mlp& net,
                                 const std::vector<Configuration>& configs) {
  ml::Matrix x(configs.size(), codec.width());
  for (std::size_t i = 0; i < configs.size(); ++i)
    codec.encode_into(configs[i], x.row(i));
  scaler.transform_inplace(x);
  const ml::Matrix y = net.forward_batch(x);
  std::vector<double> out(configs.size());
  for (std::size_t i = 0; i < configs.size(); ++i) out[i] = y(i, 0);
  return out;
}

}  // namespace

ValidityModel::Confusion ValidityModel::confusion(
    const std::vector<Configuration>& valid,
    const std::vector<Configuration>& invalid) const {
  Confusion c;
  if (!fitted()) {
    c.true_positive = valid.size();
    c.false_positive = invalid.size();
    return c;
  }
  const auto valid_scores = batch_scores(codec_, scaler_, *net_, valid);
  for (const double s : valid_scores) {
    if (s >= options_.threshold)
      ++c.true_positive;
    else
      ++c.false_negative;
  }
  const auto invalid_scores = batch_scores(codec_, scaler_, *net_, invalid);
  for (const double s : invalid_scores) {
    if (s >= options_.threshold)
      ++c.false_positive;
    else
      ++c.true_negative;
  }
  return c;
}

double ValidityModel::accuracy(
    const ParamSpace& space, const std::vector<Configuration>& valid,
    const std::vector<Configuration>& invalid) const {
  (void)space;
  return confusion(valid, invalid).accuracy();
}

}  // namespace pt::tuner
