#pragma once

// Batched fp32 inference over the common/simd layer — the certified fp32
// path of the prediction scan (tuner/scan.hpp; paper §4: the stage-2 scan
// predicts every configuration in spaces of 131k–2.4M points).
//
// A BatchedMlp is built once from a fitted member (one sigmoid hidden layer,
// one linear output; ml/member.hpp). The hidden weights are repacked into a
// SIMD-friendly row-major panel of shape (fan_in, padded), where `padded`
// rounds the unit count up to the vector width (pad weights and biases are
// zero), and the output weights into one contiguous column of that padded
// width. The ensemble's StandardScaler is folded into the hidden layer at
// pack time —
//   W'[i][j] = W[i][j] / stddev[i]
//   b'[j]    = b[j] - sum_i mean[i] * W[i][j] / stddev[i]
// (computed in double, then cast) — so the forward pass consumes raw,
// unscaled fp32 features and the per-row standardization disappears from the
// hot loop entirely.
//
// The forward pass walks the rows of a batch three at a time (the last one
// or two rows alone). For a tile of up to four vectors of the padded unit
// panel, each row's accumulators are seeded from the bias, and every input
// is broadcast and FMA'd into them, each weight load serving all three rows;
// then simd::sigmoid (with its documented error bound) and the row's output
// dot with the output column. A horizontal sum and the bias add finish the
// row. Every row runs the same operations in the same order whichever rows
// share its pass, so its output bits do not depend on the batch.
//
// Certified accuracy: at pack time BatchedEnsemble computes a sound upper
// bound on |fp32 raw output - fp64 raw output| over every input row inside a
// CertificationBox (per-feature [lo, hi] ranges; tuner::RangeEncoder
// supplies the box of a configuration space, instance-feature tail
// included). The bound is a forward rounding-error analysis with unit
// roundoff u = 2^-24 (Higham, "Accuracy and Stability of Numerical
// Algorithms", ch. 3, with gamma(n) = n*u / (1 - n*u)), summing:
//   - the casts of inputs, folded weights and biases to float (plus the
//     double-precision fold's own rounding);
//   - each unit's accumulation: gamma(depth) * (|b'_j| + sum_i A_i*|w'_ij|),
//     depth = the roundings on one term's path (fan-in for the hidden FMA
//     chains, lanes + horizontal sum + bias add for the output dot) and A_i
//     the largest input magnitude in the box. The raw-feature magnitudes,
//     not the standardized ones, are what the folded hidden layer
//     accumulates, so the term prices the cancellation the scaler fold
//     introduces;
//   - the sigmoid's error: the simd absolute error bound (common/simd.hpp)
//     plus its Lipschitz constant 1/4 times the pre-activation error,
//     carried into the output through |v|;
//   - the float member average and the rounding of 1/k;
//   - the same analysis at u = 2^-53 for the fp64 reference itself.
// Interval arithmetic over the box bounds every magnitude. Callers that need
// fp64-identical *ranking* (tuner/scan.hpp) re-rank every candidate within
// twice the bound of the fp32 cutoff through the fp64 path.
//
// Node bounds: a node is a sub-box whose first k features are free over
// their calibration range and whose other features are fixed. The sigmoid
// is non-decreasing, so over the node a member's exact output is at least
//   c + sum_j v_j * sigmoid(z_j^sel),
//   z_j^sel = b'_j + sum_{i>=k} w'_ij x_i
//           + sum_{i<k} (v_j >= 0 ? min : max) of w'_ij x_i on [lo_i, hi_i]
// (v the output weights, c the output bias). The selection bias
// b^sel(k) = b' + the free-feature sum is computed in double at pack time
// for every k and stored as float, so the bound L~ is forward_column0 on the
// node's row with features < k set to 0 and b^sel(k) as the hidden bias,
// averaged like predict_batch_into — the operation sequence of a real row.
// E(k) certifies |L~ - its exact value| by the same analysis run on that
// modified network (free features boxed at [0, 0]; b^sel's own double
// rounding priced into its bias error). Then every row r in the node has
//   fp32(r) >= exact(r) - B >= (exact value of L~) - B >= L~ - E(k) - B.

#include <cstddef>
#include <memory>
#include <mutex>
#include <vector>

#include "common/simd.hpp"
#include "ml/ensemble.hpp"
#include "ml/member.hpp"
#include "ml/scaler.hpp"

namespace pt::ml {

/// Per-input-feature value ranges: the box the fp32 engine certifies its
/// error bound over. For scan features these are the min/max of the
/// encoder's per-dimension value tables (tuner::RangeEncoder::calibration),
/// so every scanned row is inside its range by construction; a degenerate
/// range (lo == hi, e.g. a fixed instance-feature tail) is exact.
struct CertificationBox {
  std::vector<float> lo;
  std::vector<float> hi;

  [[nodiscard]] std::size_t width() const noexcept { return lo.size(); }
  [[nodiscard]] bool operator==(const CertificationBox&) const = default;
};

class BatchedMlp {
 public:
  /// Pack a fitted member, optionally folding a feature scaler into the
  /// hidden layer. Throws std::invalid_argument unless the scaler's width
  /// is the member's input width. The member may be destroyed afterwards;
  /// the panels are self-contained.
  explicit BatchedMlp(const Member& member,
                      const StandardScaler* scaler = nullptr);

  [[nodiscard]] std::size_t input_size() const noexcept { return inputs_; }

  /// Evaluate `rows` samples stored row-major in x (row r starts at
  /// x + r * input_size()) and write the output to out[0..rows). A non-null
  /// `bias0` (one float per hidden unit, padded to the vector width)
  /// replaces the packed hidden bias. Each output is the one a one-row call
  /// gives, bit for bit. Safe to call concurrently.
  void forward_column0(const float* x, std::size_t rows, float* out,
                       const float* bias0 = nullptr) const;

 private:
  std::size_t inputs_;
  std::size_t padded_;                 // hidden units rounded up to kWidth
  common::simd::AlignedVectorF w_;     // (inputs, padded) row-major, pads 0
  common::simd::AlignedVectorF bias_;  // (padded), pads 0
  common::simd::AlignedVectorF wcol_;  // output weights (padded), pads 0
  float out_bias_ = 0.0f;
};

/// Batched fp32 counterpart of BaggingEnsemble::predict_batch_into: packs
/// every member once (with the shared scaler folded in) and averages their
/// batched outputs in fixed member order, so results are deterministic and
/// independent of how callers chunk the rows.
class BatchedEnsemble {
 public:
  /// Packs a fitted ensemble and certifies its error bound over the rows
  /// inside `calibration`. Throws std::invalid_argument if the ensemble is
  /// not fitted or the calibration does not match its input width (or has
  /// hi < lo), and std::runtime_error if the SIMD backend fails
  /// verification (simd::ensure_verified runs before the first pack in the
  /// process).
  BatchedEnsemble(const BaggingEnsemble& ensemble,
                  const CertificationBox& calibration);

  [[nodiscard]] std::size_t input_width() const noexcept { return inputs_; }
  [[nodiscard]] std::size_t member_count() const noexcept {
    return members_.size();
  }
  [[nodiscard]] const CertificationBox& calibration() const noexcept {
    return calibration_;
  }
  /// Certified upper bound on |predict_batch_into - the fp64 ensemble's
  /// predict_batch_into| (raw outputs) for every row inside calibration().
  [[nodiscard]] double error_bound() const noexcept { return error_bound_; }

  /// Reusable buffer: one member's output column.
  struct Scratch {
    std::vector<float> member;
  };

  /// Mean member prediction for `rows` row-major raw-feature samples; out is
  /// resized to `rows`. Safe to call concurrently with distinct scratch.
  void predict_batch_into(const float* x, std::size_t rows,
                          std::vector<float>& out, Scratch& scratch) const;

  /// E(free): certified bound on |node_lower_bounds - its exact value| for
  /// nodes whose first `free` features are free (0 <= free <= width). It
  /// includes the rounding of the double sum L~ - (E(free) + error_bound()).
  [[nodiscard]] double node_error_bound(std::size_t free) const {
    return node_error_.at(free);
  }
  /// L~ for `rows` node rows whose first `free` features are free: each row
  /// holds the node's fixed features and 0 in the free ones. Every row of
  /// the node inside calibration() then predicts at least
  /// L~ - node_error_bound(free) - error_bound(). out is resized to `rows`.
  void node_lower_bounds(const float* x, std::size_t rows, std::size_t free,
                         std::vector<float>& out, Scratch& scratch) const;

 private:
  /// The member average of predict_batch_into; with free <= width, every
  /// member runs with its selection bias b^sel(free) as the hidden bias.
  void average_into(const float* x, std::size_t rows, std::vector<float>& out,
                    Scratch& scratch, std::size_t free) const;

  std::size_t inputs_;
  float inv_k_;
  CertificationBox calibration_;
  double error_bound_ = 0.0;
  std::vector<BatchedMlp> members_;
  // Node bounds: per member, the selection biases b^sel(k) for k = 0..width
  // back to back, each padded to the vector width; E(k) per k.
  std::vector<common::simd::AlignedVectorF> node_bias_;
  std::vector<double> node_error_;
};

/// Lazily-built, shared fp32 engine for the performance model
/// (tuner/model.hpp). Copying a cache resets it (the copy re-packs on first
/// use); moving transfers the packed engine.
/// Thread-safe.
class BatchedEnsembleCache {
 public:
  BatchedEnsembleCache() = default;
  BatchedEnsembleCache(const BatchedEnsembleCache&) noexcept {}
  BatchedEnsembleCache& operator=(const BatchedEnsembleCache&) noexcept {
    reset();
    return *this;
  }
  BatchedEnsembleCache(BatchedEnsembleCache&& other) noexcept;
  BatchedEnsembleCache& operator=(BatchedEnsembleCache&& other) noexcept;
  ~BatchedEnsembleCache() = default;

  /// The fp32 engine for `ensemble` certified over `box`, building it on
  /// first call. The slot is keyed by the box: asking with a different one
  /// (e.g. the problem instance's tail changed) repacks and replaces the
  /// cached engine. The caller must reset() whenever the ensemble is
  /// refitted or restored.
  [[nodiscard]] std::shared_ptr<const BatchedEnsemble> get(
      const BaggingEnsemble& ensemble, const CertificationBox& box) const;

  /// Drop the packed engine (outstanding shared_ptrs stay valid).
  void reset() noexcept;

 private:
  mutable std::mutex mutex_;
  mutable std::shared_ptr<const BatchedEnsemble> engine_;
};

}  // namespace pt::ml
