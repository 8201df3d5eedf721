#include "tuner/features.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace pt::tuner {

FeatureCodec FeatureCodec::build(const ParamSpace& space,
                                 FeatureEncoding encoding) {
  FeatureCodec codec;
  codec.use_log2_.assign(space.dimension_count(), false);
  if (encoding != FeatureEncoding::kLog2) return codec;
  for (std::size_t d = 0; d < space.dimension_count(); ++d) {
    const auto& values = space.parameter(d).values;
    const auto [lo, hi] = std::minmax_element(values.begin(), values.end());
    codec.use_log2_[d] = *lo > 0 && *hi >= 4 * *lo;
  }
  return codec;
}

std::vector<double> FeatureCodec::encode(const Configuration& config) const {
  std::vector<double> features(config.values.size());
  encode_into(config, features);
  return features;
}

void FeatureCodec::encode_into(const Configuration& config,
                               std::span<double> row) const {
  if (config.values.size() != use_log2_.size() ||
      row.size() != use_log2_.size())
    throw std::invalid_argument("FeatureCodec: width mismatch");
  for (std::size_t d = 0; d < use_log2_.size(); ++d) {
    const double v = static_cast<double>(config.values[d]);
    row[d] = use_log2_[d] ? std::log2(v) : v;
  }
}

RangeEncoder::RangeEncoder(const FeatureCodec& codec, const ParamSpace& space) {
  if (codec.width() != space.dimension_count())
    throw std::invalid_argument("RangeEncoder: codec/space width mismatch");
  dims_.resize(space.dimension_count());
  for (std::size_t d = 0; d < space.dimension_count(); ++d) {
    const auto& values = space.parameter(d).values;
    Dim& dim = dims_[d];
    dim.encoded.reserve(values.size());
    dim.encoded_f.reserve(values.size());
    for (const int v : values) {
      // The same expression encode_into evaluates, so fill() reproduces the
      // per-row path bit for bit.
      const double e = codec.uses_log2(d) ? std::log2(static_cast<double>(v))
                                          : static_cast<double>(v);
      dim.encoded.push_back(e);
      dim.encoded_f.push_back(static_cast<float>(e));
    }
  }
  space_size_ = space.size();
}

std::vector<std::uint64_t> RangeEncoder::radices() const {
  std::vector<std::uint64_t> radices;
  radices.reserve(dims_.size());
  for (const Dim& dim : dims_) radices.push_back(dim.encoded.size());
  return radices;
}

namespace {

// Initialize the mixed-radix digits of `index` (first dimension is the
// fastest-varying, matching ParamSpace::decode).
template <typename Dim>
void seed_digits(std::uint64_t index, const std::vector<Dim>& dims,
                 std::vector<std::size_t>& digits) {
  digits.resize(dims.size());
  for (std::size_t d = 0; d < dims.size(); ++d) {
    const std::uint64_t radix = dims[d].encoded.size();
    digits[d] = static_cast<std::size_t>(index % radix);
    index /= radix;
  }
}

template <typename Dim>
void advance_digits(const std::vector<Dim>& dims,
                    std::vector<std::size_t>& digits) {
  for (std::size_t d = 0; d < dims.size(); ++d) {
    if (++digits[d] < dims[d].encoded.size()) return;
    digits[d] = 0;
  }
}

}  // namespace

void RangeEncoder::fill(std::uint64_t lo, std::uint64_t hi, ml::Matrix& x,
                        std::span<const double> tail) const {
  if (lo > hi || hi > space_size_)
    throw std::out_of_range("RangeEncoder::fill: bad range");
  const std::size_t rows = static_cast<std::size_t>(hi - lo);
  const std::size_t cols = width(tail.size());
  x.reshape(rows, cols);
  std::vector<std::size_t> digits;
  seed_digits(lo, dims_, digits);
  double* row = x.flat().data();
  for (std::size_t r = 0; r < rows; ++r, row += cols) {
    for (std::size_t d = 0; d < dims_.size(); ++d)
      row[d] = dims_[d].encoded[digits[d]];
    for (std::size_t t = 0; t < tail.size(); ++t)
      row[dims_.size() + t] = tail[t];
    advance_digits(dims_, digits);
  }
}

void RangeEncoder::fill_f32(std::uint64_t lo, std::uint64_t hi,
                            std::vector<float>& out,
                            std::span<const float> tail) const {
  if (lo > hi || hi > space_size_)
    throw std::out_of_range("RangeEncoder::fill_f32: bad range");
  const std::size_t rows = static_cast<std::size_t>(hi - lo);
  const std::size_t cols = width(tail.size());
  out.resize(rows * cols);
  std::vector<std::size_t> digits;
  seed_digits(lo, dims_, digits);
  float* row = out.data();
  for (std::size_t r = 0; r < rows; ++r, row += cols) {
    for (std::size_t d = 0; d < dims_.size(); ++d)
      row[d] = dims_[d].encoded_f[digits[d]];
    for (std::size_t t = 0; t < tail.size(); ++t)
      row[dims_.size() + t] = tail[t];
    advance_digits(dims_, digits);
  }
}

ml::CertificationBox RangeEncoder::calibration(
    std::span<const float> tail) const {
  ml::CertificationBox calib;
  calib.lo.reserve(dims_.size() + tail.size());
  calib.hi.reserve(dims_.size() + tail.size());
  for (const Dim& dim : dims_) {
    const auto [lo, hi] =
        std::minmax_element(dim.encoded_f.begin(), dim.encoded_f.end());
    calib.lo.push_back(*lo);
    calib.hi.push_back(*hi);
  }
  for (const float t : tail) {
    calib.lo.push_back(t);
    calib.hi.push_back(t);
  }
  return calib;
}

}  // namespace pt::tuner
