#pragma once

// Feature encoding of the performance models: each parameter becomes one
// feature, either its raw value or log2(value) for dimensions that span a
// wide positive power-of-two-style range (work-group sizes 1..128 are
// exponent-natured knobs).

#include <cstdint>
#include <span>
#include <vector>

#include "ml/batched.hpp"
#include "ml/matrix.hpp"
#include "tuner/param.hpp"

namespace pt::tuner {

enum class FeatureEncoding { kRaw, kLog2 };

class FeatureCodec {
 public:
  FeatureCodec() = default;

  /// Decide per dimension whether log2 applies (kLog2 only, and only where
  /// all values are positive and the range is wide enough to matter).
  static FeatureCodec build(const ParamSpace& space, FeatureEncoding encoding);

  [[nodiscard]] std::size_t width() const noexcept { return use_log2_.size(); }
  [[nodiscard]] bool uses_log2(std::size_t dim) const {
    return use_log2_.at(dim);
  }

  /// Feature vector for one configuration.
  [[nodiscard]] std::vector<double> encode(const Configuration& config) const;

  /// Write features for one configuration into a pre-sized row.
  void encode_into(const Configuration& config,
                   std::span<double> row) const;

 private:
  std::vector<bool> use_log2_;
};

/// Bulk feature encoding for contiguous index ranges of a ParamSpace — the
/// prediction-scan hot path. Precomputes the per-dimension encoded value
/// tables (log2 evaluated once per distinct parameter value, not once per
/// candidate) and walks the range with an incremental mixed-radix digit
/// counter, so filling a chunk does no decode() allocation and no
/// transcendental math.
///
/// fill() is bit-identical to the naive per-row decode() + encode_into()
/// loop: the tables hold the very doubles std::log2 would produce.
/// fill_f32() emits the same values cast to float (each table entry is cast
/// once at construction), for the batched fp32 inference engine.
class RangeEncoder {
 public:
  RangeEncoder() = default;
  RangeEncoder(const FeatureCodec& codec, const ParamSpace& space);

  [[nodiscard]] bool valid() const noexcept { return !dims_.empty(); }
  /// Features per row: space dimensions plus the fixed tail width.
  [[nodiscard]] std::size_t width(std::size_t tail_width = 0) const noexcept {
    return dims_.size() + tail_width;
  }

  /// The mixed-radix digit counts of the space (values per dimension,
  /// fastest-varying first, as ParamSpace::decode walks them); feature d of
  /// every row encodes digit d.
  [[nodiscard]] std::vector<std::uint64_t> radices() const;

  /// Encode configurations [lo, hi) into the rows of x (reshaped in place to
  /// (hi - lo, width(tail.size()))). Every row ends with a copy of `tail`
  /// (the problem instance's features; empty for a model without them).
  void fill(std::uint64_t lo, std::uint64_t hi, ml::Matrix& x,
            std::span<const double> tail = {}) const;

  /// fp32 variant: rows are written back to back into `out` (resized to
  /// (hi - lo) * width(tail.size())).
  void fill_f32(std::uint64_t lo, std::uint64_t hi, std::vector<float>& out,
                std::span<const float> tail = {}) const;

  /// The box the fp32 scan engine is certified over: [min, max] of each
  /// dimension's encoded value table, plus a degenerate [v, v] range per
  /// `tail` element (the fixed problem-instance features of a scan).
  /// Every row fill_f32 produces with the same tail lies inside it by
  /// construction.
  [[nodiscard]] ml::CertificationBox calibration(
      std::span<const float> tail = {}) const;

 private:
  struct Dim {
    std::vector<double> encoded;    // encoded feature per value index
    std::vector<float> encoded_f;   // the same, cast to float
  };
  std::vector<Dim> dims_;
  std::uint64_t space_size_ = 0;
};

}  // namespace pt::tuner
