#include "ml/serialize.hpp"

#include <algorithm>
#include <istream>
#include <limits>
#include <ostream>
#include <stdexcept>
#include <string>

namespace pt::ml {

namespace {

constexpr const char* kMlpMagic = "portatune-mlp-v1";
constexpr const char* kEnsembleMagic = "portatune-ensemble-v1";

void expect_token(std::istream& is, const std::string& expected) {
  std::string token;
  if (!(is >> token) || token != expected)
    throw std::runtime_error("model load: expected '" + expected + "', got '" +
                             token + "'");
}

double read_double(std::istream& is) {
  double v = 0.0;
  if (!(is >> v)) throw std::runtime_error("model load: bad double");
  return v;
}

std::size_t read_size(std::istream& is) {
  long long v = 0;
  if (!(is >> v) || v < 0) throw std::runtime_error("model load: bad size");
  return static_cast<std::size_t>(v);
}

/// `count` doubles, read one at a time: a corrupt count costs no more memory
/// than the values that are really there.
std::vector<double> read_doubles(std::istream& is, std::size_t count) {
  std::vector<double> xs;
  for (std::size_t i = 0; i < count; ++i) xs.push_back(read_double(is));
  return xs;
}

void write_doubles(std::ostream& os, std::span<const double> xs) {
  const auto old_precision = os.precision();
  os.precision(std::numeric_limits<double>::max_digits10);
  for (double x : xs) os << x << ' ';
  os << '\n';
  os.precision(old_precision);
}

}  // namespace

void save_mlp(const Mlp& net, std::ostream& os) {
  os << kMlpMagic << '\n';
  os << "inputs " << net.input_size() << '\n';
  os << "layers " << net.layer_count() << '\n';
  for (const auto& spec : net.layers())
    os << "layer " << spec.units << ' ' << to_string(spec.activation) << '\n';
  for (std::size_t l = 0; l < net.layer_count(); ++l) {
    os << "weights " << l << '\n';
    write_doubles(os, net.weights(l).flat());
    os << "biases " << l << '\n';
    write_doubles(os, net.biases(l));
  }
}

Mlp load_mlp(std::istream& is) {
  expect_token(is, kMlpMagic);
  expect_token(is, "inputs");
  const std::size_t inputs = read_size(is);
  expect_token(is, "layers");
  const std::size_t depth = read_size(is);
  std::vector<LayerSpec> layers;
  for (std::size_t l = 0; l < depth; ++l) {
    expect_token(is, "layer");
    const std::size_t units = read_size(is);
    std::string act;
    if (!(is >> act) || (act != to_string(Activation::kLinear) &&
                         act != to_string(Activation::kSigmoid)))
      throw std::runtime_error("model load: bad activation '" + act + "'");
    layers.push_back(LayerSpec{units, activation_from_string(act)});
  }
  // Read every parameter before the network allocates its own.
  std::vector<std::vector<double>> weights;
  std::vector<std::vector<double>> biases;
  std::size_t fan_in = inputs;
  for (std::size_t l = 0; l < depth; ++l) {
    const std::size_t units = layers[l].units;
    if (units != 0 && fan_in > std::numeric_limits<std::size_t>::max() / units)
      throw std::runtime_error("model load: layer too large");
    expect_token(is, "weights");
    if (read_size(is) != l) throw std::runtime_error("model load: layer order");
    weights.push_back(read_doubles(is, fan_in * units));
    expect_token(is, "biases");
    if (read_size(is) != l) throw std::runtime_error("model load: layer order");
    biases.push_back(read_doubles(is, units));
    fan_in = units;
  }
  Mlp net(inputs, layers);
  for (std::size_t l = 0; l < depth; ++l) {
    std::copy(weights[l].begin(), weights[l].end(),
              net.weights(l).flat().begin());
    net.biases(l) = std::move(biases[l]);
  }
  return net;
}

void save_ensemble(const BaggingEnsemble& ensemble, std::ostream& os) {
  if (!ensemble.fitted())
    throw std::logic_error("save_ensemble: ensemble not fitted");
  os << kEnsembleMagic << '\n';
  os << "k " << ensemble.options().k << '\n';
  os << "members " << ensemble.member_count() << '\n';
  os << "scaler " << ensemble.scaler().width() << '\n';
  write_doubles(os, ensemble.scaler().means());
  write_doubles(os, ensemble.scaler().stddevs());
  for (std::size_t i = 0; i < ensemble.member_count(); ++i)
    save_mlp(ensemble.member(i), os);
}

BaggingEnsemble load_ensemble(std::istream& is) {
  expect_token(is, kEnsembleMagic);
  expect_token(is, "k");
  BaggingEnsemble::Options options;
  options.k = read_size(is);
  expect_token(is, "members");
  const std::size_t members = read_size(is);
  expect_token(is, "scaler");
  const std::size_t width = read_size(is);
  std::vector<double> means = read_doubles(is, width);
  std::vector<double> stddevs = read_doubles(is, width);
  StandardScaler scaler;
  scaler.restore(std::move(means), std::move(stddevs));

  std::vector<Mlp> nets;
  for (std::size_t i = 0; i < members; ++i) nets.push_back(load_mlp(is));
  if (!nets.empty()) {
    // Recover the hidden topology from the first member for the options
    // record (informational; prediction only needs the weights).
    options.hidden_layers.assign(nets.front().layers().begin(),
                                 nets.front().layers().end() - 1);
  }
  BaggingEnsemble ensemble(options);
  ensemble.restore(options, std::move(scaler), std::move(nets));
  return ensemble;
}

}  // namespace pt::ml
