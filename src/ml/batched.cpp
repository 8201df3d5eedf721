#include "ml/batched.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <utility>

namespace pt::ml {

namespace simd = common::simd;

namespace {

std::size_t round_up(std::size_t n) {
  return (n + simd::kWidth - 1) / simd::kWidth * simd::kWidth;
}

/// Layer l of a member (0: the hidden layer, 1: the output) as an
/// (in, units) row-major weight list and its biases.
struct Layer {
  std::size_t in = 0;
  std::size_t units = 0;
  std::vector<double> w;
  std::vector<double> bias;
};

constexpr std::size_t kLayers = 2;

Layer member_layer(const Member& member, std::size_t l) {
  Layer layer;
  if (l == 0) {
    layer.in = member.inputs();
    layer.units = member.hidden();
    for (std::size_t i = 0; i < layer.in; ++i)
      layer.w.insert(layer.w.end(), member.w1(i).begin(), member.w1(i).end());
    layer.bias.assign(member.b1().begin(), member.b1().end());
  } else {
    layer.in = member.hidden();
    layer.units = 1;
    layer.w.assign(member.w2().begin(), member.w2().end());
    layer.bias = {member.b2()};
  }
  return layer;
}

/// Layer l of `member` in double with the standardization
/// (x - mean) / stddev folded into layer 0:
///   W'[i][j] = W[i][j] / s[i];  b'[j] = b[j] - sum_i m[i]*W[i][j]/s[i].
/// w_err/b_err bound the fold's own double rounding (zero when unfolded):
/// two roundings per weight, and a bias that is a sum of `in` rounded
/// quotients.
struct FoldedLayer {
  std::size_t in = 0;
  std::size_t units = 0;
  std::vector<double> w;  // (in, units) row-major
  std::vector<double> bias;
  std::vector<double> w_err;
  std::vector<double> b_err;
};

constexpr double kU64 = 0x1p-53;

double gamma(std::size_t n, double u) {
  const double nu = static_cast<double>(n) * u;
  return nu / (1.0 - nu);
}

FoldedLayer fold_layer(const Member& member, std::size_t l,
                       const StandardScaler* scaler) {
  const Layer layer = member_layer(member, l);
  const auto w = [&layer](std::size_t i, std::size_t j) {
    return layer.w[i * layer.units + j];
  };
  const std::vector<double>& b = layer.bias;
  FoldedLayer f;
  f.in = layer.in;
  f.units = layer.units;
  f.w.assign(f.in * f.units, 0.0);
  f.bias.assign(f.units, 0.0);
  f.w_err.assign(f.in * f.units, 0.0);
  f.b_err.assign(f.units, 0.0);
  const bool fold = l == 0 && scaler;
  const std::vector<double>* m = fold ? &scaler->means() : nullptr;
  const std::vector<double>* s = fold ? &scaler->stddevs() : nullptr;
  for (std::size_t j = 0; j < f.units; ++j) {
    double bias = b[j];
    if (fold) {
      double shift = 0.0;
      double magnitude = std::fabs(b[j]);
      for (std::size_t i = 0; i < f.in; ++i) {
        shift += (*m)[i] * w(i, j) / (*s)[i];
        magnitude += std::fabs((*m)[i] * w(i, j) / (*s)[i]);
      }
      bias -= shift;
      f.b_err[j] = gamma(f.in + 3, kU64) * magnitude;
    }
    f.bias[j] = bias;
  }
  for (std::size_t i = 0; i < f.in; ++i) {
    const double scale = fold ? 1.0 / (*s)[i] : 1.0;
    for (std::size_t j = 0; j < f.units; ++j) {
      const double v = w(i, j) * scale;
      f.w[i * f.units + j] = v;
      if (fold) f.w_err[i * f.units + j] = 3.0 * kU64 * std::fabs(v);
    }
  }
  return f;
}

}  // namespace

BatchedMlp::BatchedMlp(const Member& member, const StandardScaler* scaler)
    : inputs_(member.inputs()) {
  if (scaler && scaler->width() != inputs_)
    throw std::invalid_argument(
        "BatchedMlp: scaler width does not match network input width");
  // Folds are computed in double, so the only fp32 rounding at pack time
  // is the final cast of each weight and bias.
  const FoldedLayer hidden = fold_layer(member, 0, scaler);
  const FoldedLayer output = fold_layer(member, 1, nullptr);
  const std::size_t units = hidden.units;
  padded_ = round_up(units);
  w_.assign(inputs_ * padded_, 0.0f);
  bias_.assign(padded_, 0.0f);
  wcol_.assign(padded_, 0.0f);
  for (std::size_t j = 0; j < units; ++j) {
    bias_[j] = static_cast<float>(hidden.bias[j]);
    wcol_[j] = static_cast<float>(output.w[j]);
  }
  for (std::size_t i = 0; i < inputs_; ++i)
    for (std::size_t j = 0; j < units; ++j)
      w_[i * padded_ + j] = static_cast<float>(hidden.w[i * units + j]);
  out_bias_ = static_cast<float>(output.bias[0]);
}

namespace {

constexpr std::size_t kTile = 4;

/// T vectors of hidden units from unit j0 on, for R rows of x (row r at
/// x + r * in) at once: each accumulator is seeded from the bias and takes
/// one FMA per input, in input order, then goes through the sigmoid and
/// into its row's output dot. Each weight load serves all R rows.
template <std::size_t R, std::size_t T>
void hidden_tile(const float* x, std::size_t in, std::size_t padded,
                 const float* w, const float* bias, const float* wcol,
                 std::size_t j0, simd::VecF (&dot)[R]) {
  using simd::VecF;
  VecF acc[R][T];
  for (std::size_t t = 0; t < T; ++t) {
    const VecF b = VecF::load(bias + j0 + t * simd::kWidth);
    for (std::size_t r = 0; r < R; ++r) acc[r][t] = b;
  }
  for (std::size_t i = 0; i < in; ++i) {
    VecF xi[R];
    for (std::size_t r = 0; r < R; ++r) xi[r] = VecF::broadcast(x[r * in + i]);
    const float* wrow = w + i * padded + j0;
    for (std::size_t t = 0; t < T; ++t) {
      const VecF wt = VecF::load(wrow + t * simd::kWidth);
      for (std::size_t r = 0; r < R; ++r)
        acc[r][t] = simd::fmadd(xi[r], wt, acc[r][t]);
    }
  }
  for (std::size_t t = 0; t < T; ++t) {
    const VecF v = VecF::load(wcol + j0 + t * simd::kWidth);
    for (std::size_t r = 0; r < R; ++r)
      dot[r] = simd::fmadd(simd::sigmoid(acc[r][t]), v, dot[r]);
  }
}

/// R rows through the member: the padded unit panel in tiles of up to kTile
/// vectors, the output dot over the units in ascending order, a horizontal
/// sum and the bias add. A row's operations and their order do not depend
/// on R, so neither do its bits. The pad lanes hold sigmoid(bias pad = 0);
/// their output weights are zero.
template <std::size_t R>
void forward_rows(const float* x, std::size_t in, std::size_t padded,
                  const float* w, const float* bias, const float* wcol,
                  float out_bias, float* out) {
  simd::VecF dot[R];
  for (std::size_t r = 0; r < R; ++r) dot[r] = simd::VecF::zero();
  for (std::size_t j0 = 0; j0 < padded; j0 += kTile * simd::kWidth) {
    switch ((padded - j0) / simd::kWidth) {
      case 1:
        hidden_tile<R, 1>(x, in, padded, w, bias, wcol, j0, dot);
        break;
      case 2:
        hidden_tile<R, 2>(x, in, padded, w, bias, wcol, j0, dot);
        break;
      case 3:
        hidden_tile<R, 3>(x, in, padded, w, bias, wcol, j0, dot);
        break;
      default:
        hidden_tile<R, kTile>(x, in, padded, w, bias, wcol, j0, dot);
        break;
    }
  }
  for (std::size_t r = 0; r < R; ++r) out[r] = out_bias + simd::hsum(dot[r]);
}

}  // namespace

void BatchedMlp::forward_column0(const float* x, std::size_t rows, float* out,
                                 const float* bias0) const {
  if (bias0 == nullptr) bias0 = bias_.data();
  std::size_t r = 0;
  for (; r + 3 <= rows; r += 3)
    forward_rows<3>(x + r * inputs_, inputs_, padded_, w_.data(), bias0,
                    wcol_.data(), out_bias_, out + r);
  for (; r < rows; ++r)
    forward_rows<1>(x + r * inputs_, inputs_, padded_, w_.data(), bias0,
                    wcol_.data(), out_bias_, out + r);
}

namespace {

// ---------------------------------------------------------------------------
// Certified error bound (see the header comment). Everything below bounds
// the distance of one engine's computed value from the exact real-number
// network on the same input row, so the fp32-vs-fp64 bound is the sum of an
// fp32 and an fp64 instance of the same analysis.
// ---------------------------------------------------------------------------

constexpr double kU32 = 0x1p-24;
// Relative slack for this file's own double arithmetic on the bound sums
// (each is a sum of at most a few hundred non-negative terms).
constexpr double kBoundSlack = 1e-12;

/// One layer as an engine evaluates it. `w`/`bias` are reference values in
/// double; `dw`/`db` bound their distance both to the exact weights and to
/// what the engine stores. `depth` bounds the roundings on the path of any
/// one term of a unit's sum.
struct BoundLayer {
  std::size_t in = 0;
  std::size_t units = 0;
  std::vector<double> w;  // (in, units) row-major
  std::vector<double> dw;
  std::vector<double> bias;
  std::vector<double> db;
  std::size_t depth = 0;
};

/// The rounding model of one engine: unit roundoff and the absolute error
/// of its sigmoid at a computed argument.
struct Arithmetic {
  double u = 0.0;
  double sigmoid_error = 0.0;
};

/// A layer's input: every exact value lies in [lo_i, hi_i], and the engine's
/// value is within err_i of the exact one.
struct Signal {
  std::vector<double> lo;
  std::vector<double> hi;
  std::vector<double> err;
};

/// Error and magnitude bounds of one member's (single) output.
struct MemberBound {
  double error = 0.0;
  double magnitude = 0.0;
};

/// The member's layers in order: sigmoid hidden, then the linear output.
MemberBound propagate(const std::vector<BoundLayer>& layers, Signal x,
                      const Arithmetic& arith) {
  for (const BoundLayer& layer : layers) {
    const bool sigmoid = &layer != &layers.back();
    Signal y;
    y.lo.resize(layer.units);
    y.hi.resize(layer.units);
    y.err.resize(layer.units);
    for (std::size_t j = 0; j < layer.units; ++j) {
      // |exact z - engine z| and the range of the exact z over the box.
      double sum = std::fabs(layer.bias[j]) + layer.db[j];
      double z_err = layer.db[j];
      double center = layer.bias[j];
      double radius = layer.db[j];
      for (std::size_t i = 0; i < layer.in; ++i) {
        const std::size_t k = i * layer.units + j;
        const double a = std::max(std::fabs(x.lo[i]), std::fabs(x.hi[i])) +
                         x.err[i];  // bounds exact and engine input
        const double w = std::fabs(layer.w[k]) + layer.dw[k];
        sum += a * w;
        z_err += a * layer.dw[k] + w * x.err[i];
        center += layer.w[k] * 0.5 * (x.lo[i] + x.hi[i]);
        radius += std::fabs(layer.w[k]) * 0.5 * (x.hi[i] - x.lo[i]) +
                  layer.dw[k] * a;
      }
      z_err += gamma(layer.depth, arith.u) * sum + kBoundSlack * sum;
      radius += kBoundSlack * sum;
      if (sigmoid) {
        y.lo[j] = 0.0;
        y.hi[j] = 1.0;
        y.err[j] = arith.sigmoid_error + 0.25 * z_err;
      } else {
        y.lo[j] = center - radius;
        y.hi[j] = center + radius;
        y.err[j] = z_err;
      }
    }
    x = std::move(y);
  }
  return {x.err[0],
          std::max(std::fabs(x.lo[0]), std::fabs(x.hi[0])) + x.err[0]};
}

/// Bound on |engine mean - exact mean| for a member sum accumulated in
/// order from zero (k - 1 roundings) and scaled by a stored 1/k that is
/// within inv_k_error of the exact reciprocal (one more rounding).
double average_bound(const std::vector<MemberBound>& members, double u,
                     double inv_k, double inv_k_error) {
  const double k = static_cast<double>(members.size());
  double error = 0.0;
  double magnitude = 0.0;
  for (const MemberBound& m : members) {
    error += m.error;
    magnitude += m.magnitude;
  }
  const double g = gamma(members.size() - 1, u);
  return (error + g * magnitude) / k +
         magnitude * (1.0 + g) * (inv_k_error + inv_k * u);
}

/// The packed fp32 member (BatchedMlp) over raw features: float casts of
/// the folded weights, FMA chains of depth fan-in for the hidden layer, and
/// for the output the kWidth-lane dot (padded / kWidth FMAs per lane), a
/// horizontal sum (at most kWidth - 1 roundings in any reduction order) and
/// the bias add.
std::vector<BoundLayer> fp32_layers(const Member& member,
                                    const StandardScaler* scaler) {
  std::vector<BoundLayer> layers;
  for (std::size_t l = 0; l < kLayers; ++l) {
    const FoldedLayer f = fold_layer(member, l, scaler);
    BoundLayer b;
    b.in = f.in;
    b.units = f.units;
    b.w = f.w;
    b.bias = f.bias;
    b.dw.resize(f.w.size());
    b.db.resize(f.bias.size());
    for (std::size_t k = 0; k < f.w.size(); ++k)
      b.dw[k] = std::fabs(static_cast<double>(static_cast<float>(f.w[k])) -
                          f.w[k]) +
                f.w_err[k];
    for (std::size_t j = 0; j < f.bias.size(); ++j)
      b.db[j] =
          std::fabs(static_cast<double>(static_cast<float>(f.bias[j])) -
                    f.bias[j]) +
          f.b_err[j];
    b.depth = l == 0 ? f.in : round_up(f.in) / simd::kWidth + simd::kWidth;
    layers.push_back(std::move(b));
  }
  return layers;
}

constexpr Arithmetic kFp32Arith{kU32, simd::kSigmoidAbsError};

/// The fp64 reference (BaggingEnsemble::predict_batch_into) on the same
/// rows: standardization (x - m) / s with two roundings per feature, then
/// per layer member_forward's fma chain over the fan-in from +0.0 and a
/// bias add, so depth fan-in + 1. Its sigmoid is 1 / (1 + exp(-x)) with
/// common::math::exp, whose error is at most 2 ULP (tests/common/test_math.cpp
/// checks it against expl and measures 0.507); the activation error allows
/// 8 u.
MemberBound fp64_member_bound(const Member& member,
                              const StandardScaler* scaler,
                              const Signal& box) {
  Signal x = box;
  if (scaler) {
    const std::vector<double>& m = scaler->means();
    const std::vector<double>& s = scaler->stddevs();
    for (std::size_t i = 0; i < x.lo.size(); ++i) {
      const double a = (box.lo[i] - m[i]) / s[i];
      const double b = (box.hi[i] - m[i]) / s[i];
      x.lo[i] = std::min(a, b);
      x.hi[i] = std::max(a, b);
      const double mag = std::max(std::fabs(a), std::fabs(b));
      x.err[i] = gamma(2, kU64) * mag + kBoundSlack * mag;
      x.lo[i] -= kBoundSlack * mag;
      x.hi[i] += kBoundSlack * mag;
    }
  } else {
    std::fill(x.err.begin(), x.err.end(), 0.0);
  }
  std::vector<BoundLayer> layers;
  for (std::size_t l = 0; l < kLayers; ++l) {
    Layer layer = member_layer(member, l);
    BoundLayer b;
    b.in = layer.in;
    b.units = layer.units;
    b.w = std::move(layer.w);
    b.dw.assign(b.w.size(), 0.0);
    b.bias = std::move(layer.bias);
    b.db.assign(b.bias.size(), 0.0);
    b.depth = b.in + 1;
    layers.push_back(std::move(b));
  }
  const Arithmetic arith{kU64, 8.0 * kU64};
  return propagate(layers, x, arith);
}

/// Node bounds of one fp32 member for k = 0..width free leading features
/// (see the header comment).
/// Writes b^sel(k) for every k to `bias` (each padded to the vector width)
/// and the member bound of the network running with it, over `box` with
/// features < k at [0, 0], to bounds[k].
///
/// b^sel(k) = b' + sum_{i<k} sel(w'_ij lo_i, w'_ij hi_i) is summed in double
/// in ascending i. Its distance to the exact selection bias (exact fold,
/// exact arithmetic) is at most the reference bias's db, plus
/// sum_{i<k} A_i dw_ij (min and max are A_i-Lipschitz in the weight,
/// A_i = max(|lo_i|, |hi_i|)), plus gamma(k + 1) times the magnitude of the
/// summed terms (one rounding per product and per add on any term's path).
void member_node_bounds(const Member& member, const StandardScaler* scaler,
                        const CertificationBox& calibration, const Signal& box,
                        simd::AlignedVectorF& bias,
                        std::vector<MemberBound>& bounds) {
  std::vector<BoundLayer> layers = fp32_layers(member, scaler);
  BoundLayer& hidden = layers.front();
  const std::vector<double>& v = layers.back().w;  // (units, 1)
  const std::size_t in = hidden.in;
  const std::size_t units = hidden.units;
  const std::size_t padded = round_up(units);
  std::vector<double> sel = hidden.bias;
  std::vector<double> fold = hidden.db;
  std::vector<double> magnitude(units);
  for (std::size_t j = 0; j < units; ++j) magnitude[j] = std::fabs(sel[j]);
  bias.assign((in + 1) * padded, 0.0f);
  Signal node = box;
  for (std::size_t k = 0; k <= in; ++k) {
    if (k > 0) {
      const std::size_t i = k - 1;
      const double lo = calibration.lo[i];
      const double hi = calibration.hi[i];
      const double a = std::max(std::fabs(lo), std::fabs(hi));
      for (std::size_t j = 0; j < units; ++j) {
        const double w = hidden.w[i * units + j];
        sel[j] += v[j] >= 0.0 ? std::min(w * lo, w * hi)
                              : std::max(w * lo, w * hi);
        magnitude[j] += a * std::fabs(w);
        fold[j] += a * hidden.dw[i * units + j];
      }
      node.lo[i] = node.hi[i] = node.err[i] = 0.0;
    }
    for (std::size_t j = 0; j < units; ++j) {
      const float stored = static_cast<float>(sel[j]);
      bias[k * padded + j] = stored;
      hidden.bias[j] = sel[j];
      hidden.db[j] = std::fabs(static_cast<double>(stored) - sel[j]) +
                     fold[j] + gamma(k + 1, kU64) * magnitude[j] +
                     kBoundSlack * magnitude[j];
    }
    bounds[k] = propagate(layers, node, kFp32Arith);
  }
}

}  // namespace

BatchedEnsemble::BatchedEnsemble(const BaggingEnsemble& ensemble,
                                 const CertificationBox& calibration)
    : calibration_(calibration) {
  if (!ensemble.fitted())
    throw std::invalid_argument("BatchedEnsemble: ensemble is not fitted");
  simd::ensure_verified();
  inputs_ = ensemble.member(0).inputs();
  if (calibration_.width() != inputs_ ||
      calibration_.hi.size() != calibration_.lo.size())
    throw std::invalid_argument(
        "BatchedEnsemble: calibration does not match the input width");
  const std::size_t k = ensemble.member_count();
  inv_k_ = 1.0f / static_cast<float>(k);
  const StandardScaler* scaler =
      ensemble.scaler().fitted() ? &ensemble.scaler() : nullptr;
  members_.reserve(k);
  for (std::size_t i = 0; i < k; ++i)
    members_.emplace_back(ensemble.member(i), scaler);

  // The box of exact inputs: every float feature in [lo, hi] is the
  // rounding of a double within u * |value| of it, which is also the
  // fp32 engine's input error.
  Signal box;
  for (std::size_t i = 0; i < inputs_; ++i) {
    const double lo = calibration_.lo[i];
    const double hi = calibration_.hi[i];
    if (!(hi >= lo))
      throw std::invalid_argument(
          "BatchedEnsemble: calibration range with hi < lo");
    const double cast = kU32 / (1.0 - kU32) *
                        std::max(std::fabs(lo), std::fabs(hi));
    box.lo.push_back(lo - cast);
    box.hi.push_back(hi + cast);
    box.err.push_back(cast);
  }
  std::vector<MemberBound> fp32(k);
  std::vector<MemberBound> fp64(k);
  for (std::size_t i = 0; i < k; ++i) {
    fp32[i] = propagate(fp32_layers(ensemble.member(i), scaler), box,
                        kFp32Arith);
    fp64[i] = fp64_member_bound(ensemble.member(i), scaler, box);
  }
  const double exact_inv_k = 1.0 / static_cast<double>(k);
  const double inv_k_error =
      std::fabs(static_cast<double>(inv_k_) - exact_inv_k) +
      kU64 * exact_inv_k;
  error_bound_ =
      average_bound(fp32, kU32, static_cast<double>(inv_k_), inv_k_error) +
      average_bound(fp64, kU64, exact_inv_k, kU64 * exact_inv_k);

  // nodes[free][member]
  std::vector<std::vector<MemberBound>> nodes(
      inputs_ + 1, std::vector<MemberBound>(k));
  std::vector<MemberBound> column(inputs_ + 1);
  node_bias_.resize(k);
  for (std::size_t i = 0; i < k; ++i) {
    member_node_bounds(ensemble.member(i), scaler, calibration_, box,
                       node_bias_[i], column);
    for (std::size_t free = 0; free <= inputs_; ++free)
      nodes[free][i] = column[free];
  }
  // The slack covers the scan's double evaluation of L~ - (E + B): two
  // roundings, each within 2^-53 (|L~| + E + B), |L~| <= the mean member
  // magnitude.
  node_error_.resize(inputs_ + 1);
  for (std::size_t free = 0; free <= inputs_; ++free) {
    const double e = average_bound(nodes[free], kU32,
                                   static_cast<double>(inv_k_), inv_k_error);
    double magnitude = 0.0;
    for (const MemberBound& m : nodes[free]) magnitude += m.magnitude;
    magnitude /= static_cast<double>(k);
    node_error_[free] = e + kBoundSlack * (magnitude + e + error_bound_);
  }
}

void BatchedEnsemble::predict_batch_into(const float* x, std::size_t rows,
                                         std::vector<float>& out,
                                         Scratch& scratch) const {
  average_into(x, rows, out, scratch, inputs_ + 1);
}

void BatchedEnsemble::node_lower_bounds(const float* x, std::size_t rows,
                                        std::size_t free,
                                        std::vector<float>& out,
                                        Scratch& scratch) const {
  if (free > inputs_)
    throw std::out_of_range("BatchedEnsemble: free features exceed the width");
  average_into(x, rows, out, scratch, free);
}

void BatchedEnsemble::average_into(const float* x, std::size_t rows,
                                   std::vector<float>& out, Scratch& scratch,
                                   std::size_t free) const {
  // Accumulate member sums directly in `out`, in fixed member order, so the
  // result is deterministic and chunking-independent.
  out.assign(rows, 0.0f);
  if (scratch.member.size() < rows) scratch.member.resize(rows);
  for (std::size_t m = 0; m < members_.size(); ++m) {
    const float* bias0 = nullptr;
    if (free <= inputs_) {
      const simd::AlignedVectorF& sel = node_bias_[m];
      bias0 = sel.data() + free * (sel.size() / (inputs_ + 1));
    }
    members_[m].forward_column0(x, rows, scratch.member.data(), bias0);
    for (std::size_t r = 0; r < rows; ++r) out[r] += scratch.member[r];
  }
  for (std::size_t r = 0; r < rows; ++r) out[r] *= inv_k_;
}

BatchedEnsembleCache::BatchedEnsembleCache(
    BatchedEnsembleCache&& other) noexcept {
  const std::scoped_lock lock(other.mutex_);
  engine_ = std::move(other.engine_);
}

BatchedEnsembleCache& BatchedEnsembleCache::operator=(
    BatchedEnsembleCache&& other) noexcept {
  if (this != &other) {
    const std::scoped_lock lock(mutex_, other.mutex_);
    engine_ = std::move(other.engine_);
  }
  return *this;
}

std::shared_ptr<const BatchedEnsemble> BatchedEnsembleCache::get(
    const BaggingEnsemble& ensemble, const CertificationBox& box) const {
  const std::scoped_lock lock(mutex_);
  if (!engine_ || !(engine_->calibration() == box))
    engine_ = std::make_shared<const BatchedEnsemble>(ensemble, box);
  return engine_;
}

void BatchedEnsembleCache::reset() noexcept {
  const std::scoped_lock lock(mutex_);
  engine_ = nullptr;
}

}  // namespace pt::ml
