#include "ml/serialize.hpp"

#include <algorithm>
#include <iomanip>
#include <istream>
#include <limits>
#include <ostream>
#include <stdexcept>
#include <string>

namespace pt::ml {

namespace {

constexpr const char* kMlpMagic = "portatune-mlp-v1";
constexpr const char* kEnsembleMagic = "portatune-ensemble-v1";

/// The next whitespace-delimited token, cut after `max_len` + 1 characters:
/// a token that long is already malformed, so an endless one is not read
/// until the stream runs out.
std::string read_token(std::istream& is, std::size_t max_len) {
  std::string token;
  is >> std::setw(static_cast<int>(max_len + 1)) >> token;
  return token;
}

void expect_token(std::istream& is, const std::string& expected) {
  const std::string token = read_token(is, expected.size());
  if (!is || token != expected)
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

void save_mlp(const Member& member, std::ostream& os) {
  os << kMlpMagic << '\n';
  os << "inputs " << member.inputs() << '\n';
  os << "layers 2\n";
  os << "layer " << member.hidden() << ' '
     << to_string(Activation::kSigmoid) << '\n';
  os << "layer 1 " << to_string(Activation::kLinear) << '\n';
  std::vector<double> w1;  // row major over the real units
  for (std::size_t k = 0; k < member.inputs(); ++k)
    w1.insert(w1.end(), member.w1(k).begin(), member.w1(k).end());
  const double b2 = member.b2();
  os << "weights 0\n";
  write_doubles(os, w1);
  os << "biases 0\n";
  write_doubles(os, member.b1());
  os << "weights 1\n";
  write_doubles(os, member.w2());
  os << "biases 1\n";
  write_doubles(os, std::span<const double>(&b2, 1));
}

Member load_mlp(std::istream& is) {
  expect_token(is, kMlpMagic);
  expect_token(is, "inputs");
  const std::size_t inputs = read_size(is);
  expect_token(is, "layers");
  const std::size_t depth = read_size(is);
  std::vector<LayerSpec> layers;
  for (std::size_t l = 0; l < depth; ++l) {
    expect_token(is, "layer");
    const std::size_t units = read_size(is);
    const std::string linear = to_string(Activation::kLinear);
    const std::string sigmoid = to_string(Activation::kSigmoid);
    const std::string act =
        read_token(is, std::max(linear.size(), sigmoid.size()));
    if (!is || (act != linear && act != sigmoid))
      throw std::runtime_error("model load: bad activation '" + act + "'");
    layers.push_back(LayerSpec{units, activation_from_string(act)});
  }
  if (depth != 2 || layers[0].activation != Activation::kSigmoid ||
      layers[1].units != 1 || layers[1].activation != Activation::kLinear)
    throw std::invalid_argument(
        "model load: not one sigmoid hidden layer and one linear output");
  const std::size_t hidden = layers[0].units;
  if (hidden != 0 && inputs > std::numeric_limits<std::size_t>::max() / hidden)
    throw std::runtime_error("model load: layer too large");
  // Read every parameter before the member allocates its own.
  const auto read_values = [&is](const char* what, std::size_t layer,
                                 std::size_t count) {
    expect_token(is, what);
    if (read_size(is) != layer)
      throw std::runtime_error("model load: layer order");
    return read_doubles(is, count);
  };
  const std::vector<double> w1 = read_values("weights", 0, inputs * hidden);
  const std::vector<double> b1 = read_values("biases", 0, hidden);
  const std::vector<double> w2 = read_values("weights", 1, hidden);
  const std::vector<double> b2 = read_values("biases", 1, 1);
  Member member(inputs, hidden);
  for (std::size_t k = 0; k < inputs; ++k)
    for (std::size_t c = 0; c < hidden; ++c)
      member.w1(k)[c] = w1[k * hidden + c];
  std::copy(b1.begin(), b1.end(), member.b1().begin());
  std::copy(w2.begin(), w2.end(), member.w2().begin());
  member.b2() = b2[0];
  return member;
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

  std::vector<Member> nets;
  for (std::size_t i = 0; i < members; ++i) nets.push_back(load_mlp(is));
  if (!nets.empty()) {
    // Recover the hidden width from the first member for the options
    // record (informational; prediction only needs the weights).
    options.hidden_layers = {
        LayerSpec{nets.front().hidden(), Activation::kSigmoid}};
  }
  BaggingEnsemble ensemble(options);
  ensemble.restore(options, std::move(scaler), std::move(nets));
  return ensemble;
}

}  // namespace pt::ml
