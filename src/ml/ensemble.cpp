#include "ml/ensemble.hpp"

#include <algorithm>
#include <cmath>
#include <optional>
#include <stdexcept>

#include "common/telemetry/telemetry.hpp"
#include "common/thread_pool.hpp"

namespace pt::ml {

namespace {

std::vector<LayerSpec> member_layers(const BaggingEnsemble::Options& options) {
  std::vector<LayerSpec> layers = options.hidden_layers;
  layers.push_back(LayerSpec{1, Activation::kLinear});
  return layers;
}

void check_options(const BaggingEnsemble::Options& options) {
  if (options.k == 0) throw std::invalid_argument("BaggingEnsemble: k == 0");
  if (!is_member_shape(member_layers(options)))
    throw std::invalid_argument(
        "BaggingEnsemble: needs exactly one sigmoid hidden layer");
}

}  // namespace

BaggingEnsemble::BaggingEnsemble(Options options)
    : options_(std::move(options)) {
  check_options(options_);
}

void BaggingEnsemble::fit(const Dataset& data, common::Rng& rng) {
  data.validate();
  if (data.size() == 0)
    throw std::invalid_argument("BaggingEnsemble::fit: empty dataset");
  if (data.targets() != 1)
    throw std::invalid_argument("BaggingEnsemble::fit: expected one target");

  scaler_ = StandardScaler();
  scaler_.fit(data.x);
  Dataset scaled{scaler_.transform(data.x), data.y};

  const std::size_t k = std::min(options_.k, data.size());
  members_.clear();
  members_.reserve(k);

  const std::vector<LayerSpec> layers = member_layers(options_);

  // The fold split and one forked RNG per member are drawn from the parent
  // RNG *before* dispatch, in member order, so training is deterministic and
  // bit-identical no matter how the pool schedules the members.
  std::vector<std::vector<std::size_t>> folds;
  if (k > 1) folds = kfold_indices(data.size(), k, rng);
  std::vector<common::Rng> member_rngs;
  member_rngs.reserve(k);
  for (std::size_t f = 0; f < k; ++f) member_rngs.push_back(rng.fork());

  std::vector<std::optional<Mlp>> trained(k);
  train_results_.assign(k, TrainResult{});
  common::global_pool().parallel_for(0, k, [&](std::size_t f) {
    const common::telemetry::Span span("ml.fit.member");
    Mlp net(data.features(), layers);
    net.init_weights(member_rngs[f]);
    const RpropTrainer trainer(options_.trainer);
    if (k == 1) {
      train_results_[f] = trainer.train(net, scaled, member_rngs[f]);
    } else {
      // Member f trains on every fold except f.
      std::vector<std::size_t> idx;
      idx.reserve(data.size() - folds[f].size());
      for (std::size_t g = 0; g < k; ++g) {
        if (g == f) continue;
        idx.insert(idx.end(), folds[g].begin(), folds[g].end());
      }
      const Dataset member_data = scaled.subset(idx);
      train_results_[f] = trainer.train(net, member_data, member_rngs[f]);
    }
    trained[f].emplace(std::move(net));
  });
  for (auto& net : trained) members_.push_back(std::move(*net));
}

double BaggingEnsemble::predict(std::span<const double> x) const {
  if (!fitted()) throw std::logic_error("BaggingEnsemble: not fitted");
  std::vector<double> scaled(x.begin(), x.end());
  scaler_.transform_row(scaled);
  double acc = 0.0;
  for (const auto& net : members_) acc += net.forward(scaled)[0];
  // Multiply by the reciprocal, matching predict_batch_into bit-for-bit.
  return acc * (1.0 / static_cast<double>(members_.size()));
}

std::vector<double> BaggingEnsemble::predict_batch(const Matrix& x) const {
  std::vector<double> out;
  PredictScratch scratch;
  predict_batch_into(x, out, scratch);
  return out;
}

void BaggingEnsemble::predict_batch_into(const Matrix& x,
                                         std::vector<double>& out,
                                         PredictScratch& scratch) const {
  if (!fitted()) throw std::logic_error("BaggingEnsemble: not fitted");
  scaler_.transform_to(x, scratch.scaled);
  out.assign(x.rows(), 0.0);
  for (const auto& net : members_) {
    const Matrix& y =
        net.forward_batch_into(scratch.scaled, scratch.layer_a,
                               scratch.layer_b);
    for (std::size_t r = 0; r < y.rows(); ++r) out[r] += y(r, 0);
  }
  const double inv = 1.0 / static_cast<double>(members_.size());
  for (auto& v : out) v *= inv;
}

std::vector<double> BaggingEnsemble::member_predictions(
    std::span<const double> x) const {
  if (!fitted()) throw std::logic_error("BaggingEnsemble: not fitted");
  std::vector<double> scaled(x.begin(), x.end());
  scaler_.transform_row(scaled);
  std::vector<double> out;
  out.reserve(members_.size());
  for (const auto& net : members_) out.push_back(net.forward(scaled)[0]);
  return out;
}

void BaggingEnsemble::restore(Options options, StandardScaler scaler,
                              std::vector<Mlp> members) {
  check_options(options);
  if (members.empty())
    throw std::invalid_argument("BaggingEnsemble::restore: no members");
  for (const auto& net : members) {
    if (!is_member_shape(net.layers()))
      throw std::invalid_argument(
          "BaggingEnsemble::restore: member is not one sigmoid hidden layer "
          "and one linear output");
    if (net.input_size() != scaler.width())
      throw std::invalid_argument(
          "BaggingEnsemble::restore: scaler/member width mismatch");
  }
  options_ = std::move(options);
  scaler_ = std::move(scaler);
  members_ = std::move(members);
  train_results_.clear();
}

double BaggingEnsemble::predictive_spread(std::span<const double> x) const {
  const auto preds = member_predictions(x);
  if (preds.size() < 2) return 0.0;
  double m = 0.0;
  for (double p : preds) m += p;
  m /= static_cast<double>(preds.size());
  double acc = 0.0;
  for (double p : preds) acc += (p - m) * (p - m);
  return std::sqrt(acc / static_cast<double>(preds.size() - 1));
}

}  // namespace pt::ml
