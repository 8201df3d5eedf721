#include "tuner/persist.hpp"

#include <iomanip>
#include <istream>
#include <limits>
#include <ostream>
#include <stdexcept>
#include <string>

#include "ml/serialize.hpp"

namespace pt::tuner {

namespace {

constexpr const char* kMagic = "portatune-perf-model-v1";

/// Reads the next token no further than one character past `expected`, so
/// an endless token is not read until the stream runs out.
void expect_token(std::istream& is, const std::string& expected) {
  std::string token;
  if (!(is >> std::setw(static_cast<int>(expected.size() + 1)) >> token) ||
      token != expected)
    throw std::runtime_error("model load: expected '" + expected + "', got '" +
                             token + "'");
}

double read_double(std::istream& is) {
  double v = 0.0;
  if (!(is >> v)) throw std::runtime_error("model load: bad double");
  return v;
}

long long read_int(std::istream& is) {
  long long v = 0;
  if (!(is >> v)) throw std::runtime_error("model load: bad integer");
  return v;
}

/// A parameter name or the encoding: no whitespace and at most
/// kMaxParamNameLength characters (both enforced at save time). The read
/// stops one character past the limit.
std::string read_word(std::istream& is) {
  std::string word;
  if (!(is >> std::setw(static_cast<int>(kMaxParamNameLength + 1)) >> word) ||
      word.size() > kMaxParamNameLength)
    throw std::runtime_error("model load: bad token");
  return word;
}

}  // namespace

void save_model(const AnnPerformanceModel& model, std::ostream& os) {
  if (!model.fitted()) throw std::logic_error("save_model: unfitted model");
  const auto old_precision = os.precision();
  os.precision(std::numeric_limits<double>::max_digits10);

  os << kMagic << '\n';
  os << "log_targets " << (model.options().log_targets ? 1 : 0) << '\n';
  os << "encoding "
     << (model.options().encoding == FeatureEncoding::kLog2 ? "log2" : "raw")
     << '\n';
  os << "target " << model.target_mean() << ' ' << model.target_scale()
     << '\n';

  const ParamSpace& space = model.space();
  os << "space " << space.dimension_count() << '\n';
  for (std::size_t d = 0; d < space.dimension_count(); ++d) {
    const auto& p = space.parameter(d);
    if (p.name.find_first_of(" \t\n") != std::string::npos)
      throw std::logic_error("save_model: parameter name has whitespace: " +
                             p.name);
    if (p.name.size() > kMaxParamNameLength)
      throw std::logic_error("save_model: parameter name longer than " +
                             std::to_string(kMaxParamNameLength) +
                             " characters: " + p.name);
    os << "param " << p.name << ' ' << p.values.size();
    for (const int v : p.values) os << ' ' << v;
    os << '\n';
  }
  ml::save_ensemble(model.ensemble(), os);
  os.precision(old_precision);
}

AnnPerformanceModel load_model(std::istream& is) {
  expect_token(is, kMagic);
  AnnPerformanceModel::Options options;
  expect_token(is, "log_targets");
  options.log_targets = read_int(is) != 0;
  expect_token(is, "encoding");
  const std::string encoding = read_word(is);
  if (encoding == "log2") {
    options.encoding = FeatureEncoding::kLog2;
  } else if (encoding == "raw") {
    options.encoding = FeatureEncoding::kRaw;
  } else {
    throw std::runtime_error("model load: unknown encoding " + encoding);
  }
  expect_token(is, "target");
  const double mean = read_double(is);
  const double scale = read_double(is);

  expect_token(is, "space");
  const long long dims = read_int(is);
  if (dims <= 0) throw std::runtime_error("model load: bad dimension count");
  ParamSpace space;
  for (long long d = 0; d < dims; ++d) {
    expect_token(is, "param");
    const std::string name = read_word(is);
    const long long count = read_int(is);
    if (count <= 0) throw std::runtime_error("model load: bad value count");
    // Grown one value at a time: a corrupt count costs no more memory than
    // the values that are really there.
    std::vector<int> values;
    for (long long i = 0; i < count; ++i) {
      const long long v = read_int(is);
      if (v < std::numeric_limits<int>::min() ||
          v > std::numeric_limits<int>::max())
        throw std::runtime_error("model load: parameter value out of range");
      values.push_back(static_cast<int>(v));
    }
    space.add(name, std::move(values));
  }

  ml::BaggingEnsemble ensemble = ml::load_ensemble(is);
  options.ensemble = ensemble.options();
  return AnnPerformanceModel::restore(options, std::move(space), mean, scale,
                                      std::move(ensemble));
}

}  // namespace pt::tuner
