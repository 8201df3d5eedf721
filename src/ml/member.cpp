#include "ml/member.hpp"

#include <cmath>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/simd.hpp"

namespace pt::ml {

// Compiled with -ffp-contract=off (src/ml/CMakeLists.txt): every fused
// multiply-add is written out (simd::fmadd, std::fma) and every other
// product rounds before its add. Per element the operations are the ones
// DESIGN.md "Training path" lists, so the results are the same bits on
// every backend and for every block size.

namespace {

namespace simd = common::simd;
using simd::VecD;
constexpr std::size_t kW = simd::kWidthD;
constexpr std::size_t kBlock = 4;

/// One pass over the rows of x with the member's parameters. `h` holds the
/// current block's hidden activations (kBlock x stride). With `out` set it
/// writes the outputs (t is then null); otherwise it sums the loss terms
/// against the targets t, and with `grads` set adds the gradients.
struct Pass {
  const double* w1;
  const double* b1;
  const double* w2;
  double b2;
  std::size_t inputs;
  std::size_t hidden;
  std::size_t stride;
  const Matrix& x;
  const double* t;
  std::size_t n;
  double* h;
  double* grads = nullptr;
  double* out = nullptr;
  double sum = 0.0;  // loss terms of the rows so far, in row order
};

/// Pre-activations of the block's R rows for T vectors of columns from j:
/// h(r, c) = fma(x(r, k), W1(k, c), acc) over k ascending, from +0.0.
template <std::size_t R, std::size_t T>
inline void preactivation_tile(const Pass& p, const double* const* xr,
                               std::size_t j) {
  VecD acc[R][T];
  for (auto& row : acc)
    for (auto& a : row) a = VecD::zero();
  for (std::size_t k = 0; k < p.inputs; ++k) {
    const double* const wk = p.w1 + k * p.stride + j;
    VecD w[T];
    for (std::size_t t = 0; t < T; ++t) w[t] = VecD::load(wk + t * kW);
    for (std::size_t r = 0; r < R; ++r) {
      const VecD xv = VecD::broadcast(xr[r][k]);
      for (std::size_t t = 0; t < T; ++t)
        acc[r][t] = simd::fmadd(xv, w[t], acc[r][t]);
    }
  }
  for (std::size_t r = 0; r < R; ++r)
    for (std::size_t t = 0; t < T; ++t)
      acc[r][t].store(p.h + r * p.stride + j + t * kW);
}

/// The block's hidden activations 1 / (1 + exp(-(z + b1))), the bias add
/// rounded first; pad units included.
template <std::size_t R>
inline void hidden_block(const Pass& p, const double* const* xr) {
  std::size_t j = 0;
  for (; j + 2 * kW <= p.stride; j += 2 * kW)
    preactivation_tile<R, 2>(p, xr, j);
  if (j < p.stride) preactivation_tile<R, 1>(p, xr, j);
  const VecD one = VecD::broadcast(1.0);
  for (std::size_t r = 0; r < R; ++r)
    for (j = 0; j < p.stride; j += kW) {
      double* const hj = p.h + r * p.stride + j;
      const VecD z = simd::add(VecD::load(hj), VecD::load(p.b1 + j));
      simd::div(one, simd::add(one, simd::exp(simd::neg(z)))).store(hj);
    }
}

/// Adds the block's R rows, with output deltas `delta`, to the gradients:
/// per hidden unit c, the hidden delta fma(delta, w2(c), +0.0) * (h(1 - h)),
/// then fma(delta, h, gw2), gb1 + hidden delta and, per input k,
/// fma(x(r, k), hidden delta, gW1(k, c)), rows in order.
template <std::size_t R>
inline void backward_block(Pass& p, const double* const* xr,
                           const double (&delta)[R]) {
  const VecD zero = VecD::zero();
  const VecD one = VecD::broadcast(1.0);
  double* const gb1 = p.grads + p.inputs * p.stride;
  double* const gw2 = gb1 + p.stride;
  for (std::size_t j = 0; j < p.stride; j += kW) {
    const VecD w2 = VecD::load(p.w2 + j);
    VecD gw2_j = VecD::load(gw2 + j);
    VecD gb1_j = VecD::load(gb1 + j);
    VecD dh[R];
    for (std::size_t r = 0; r < R; ++r) {
      const VecD hv = VecD::load(p.h + r * p.stride + j);
      const VecD dv = VecD::broadcast(delta[r]);
      gw2_j = simd::fmadd(dv, hv, gw2_j);
      dh[r] = simd::mul(simd::fmadd(dv, w2, zero),
                        simd::mul(hv, simd::sub(one, hv)));
      gb1_j = simd::add(gb1_j, dh[r]);
    }
    gw2_j.store(gw2 + j);
    gb1_j.store(gb1 + j);
    for (std::size_t k = 0; k < p.inputs; ++k) {
      double* const gk = p.grads + k * p.stride + j;
      VecD acc = VecD::load(gk);
      for (std::size_t r = 0; r < R; ++r)
        acc = simd::fmadd(VecD::broadcast(xr[r][k]), dh[r], acc);
      acc.store(gk);
    }
  }
  double& gb2 = gw2[p.stride];
  for (std::size_t r = 0; r < R; ++r) gb2 += delta[r];
}

/// Rows [row0, row0 + R): forward pass, output y = fma chain over the H
/// real units from +0.0, then + b2, written out; or else the loss term
/// (y - t)^2 rounded before its add, except that the last row of an odd
/// count ends with one fma; output delta (2 (y - t)) / N; and, with
/// gradients, the backward pass.
template <std::size_t R>
void run_block(Pass& p, std::size_t row0) {
  const double* xr[R];
  for (std::size_t r = 0; r < R; ++r) xr[r] = p.x.row(row0 + r).data();
  hidden_block<R>(p, xr);
  double y[R] = {};
  for (std::size_t c = 0; c < p.hidden; ++c)
    for (std::size_t r = 0; r < R; ++r)
      y[r] = std::fma(p.h[r * p.stride + c], p.w2[c], y[r]);
  for (std::size_t r = 0; r < R; ++r) y[r] += p.b2;
  if (p.out != nullptr) {
    for (std::size_t r = 0; r < R; ++r) p.out[row0 + r] = y[r];
    return;
  }
  const bool odd = p.n % 2 == 1;
  const double n = static_cast<double>(p.n);
  double delta[R];
  for (std::size_t r = 0; r < R; ++r) {
    const std::size_t row = row0 + r;
    const double d = y[r] - p.t[row];
    p.sum = odd && row + 1 == p.n ? std::fma(d, d, p.sum) : p.sum + d * d;
    delta[r] = 2.0 * d / n;
  }
  if (p.grads != nullptr) backward_block<R>(p, xr, delta);
}

/// Every row in blocks of kBlock, then the last n % kBlock; returns the
/// mean of the loss terms (of no use when writing outputs).
double run(Pass& p) {
  std::size_t row0 = 0;
  for (; row0 + kBlock <= p.n; row0 += kBlock) run_block<kBlock>(p, row0);
  switch (p.n - row0) {
    case 3: run_block<3>(p, row0); break;
    case 2: run_block<2>(p, row0); break;
    case 1: run_block<1>(p, row0); break;
    default: break;
  }
  return p.sum / static_cast<double>(p.n);
}

/// The pass of `member` over x, with the targets y (N x 1) unless null.
Pass make_pass(const Member& member, const Matrix& x, const Matrix* y,
               std::vector<double>& h, const char* who) {
  if (x.cols() != member.inputs())
    throw std::invalid_argument(std::string(who) + ": input width");
  if (y != nullptr && (y->rows() != x.rows() || y->cols() != 1))
    throw std::invalid_argument(std::string(who) + ": target shape");
  h.resize(kBlock * member.stride());
  const double* const flat = member.flat().data();
  return Pass{flat,
              flat + member.b1_offset(),
              flat + member.w2_offset(),
              member.b2(),
              member.inputs(),
              member.hidden(),
              member.stride(),
              x,
              y != nullptr ? y->flat().data() : nullptr,
              x.rows(),
              h.data()};
}

}  // namespace

Member::Member(std::size_t inputs, std::size_t hidden)
    : inputs_(inputs), hidden_(hidden), stride_((hidden + kW - 1) / kW * kW) {
  if (inputs_ == 0 || hidden_ == 0)
    throw std::invalid_argument("Member: zero inputs or hidden units");
  flat_.assign(b2_offset() + 1, 0.0);
  for (std::size_t c = hidden_; c < stride_; ++c) flat_[b1_offset() + c] = 1.0;
}

void Member::init_weights(common::Rng& rng) {
  // Each draw is lo + (hi - lo) * u rounded once, the one fma that GCC makes
  // of Rng::uniform(lo, hi) where it may contract, so every backend draws
  // the same bits.
  const auto draw = [&rng](double limit) {
    return std::fma(limit + limit, rng.uniform(), -limit);
  };
  const double limit1 =
      std::sqrt(6.0 / static_cast<double>(inputs_ + hidden_));
  for (std::size_t k = 0; k < inputs_; ++k)
    for (double& w : w1(k)) w = draw(limit1);
  const double limit2 = std::sqrt(6.0 / static_cast<double>(hidden_ + 1));
  for (double& w : w2()) w = draw(limit2);
  for (double& b : b1()) b = 0.0;
  b2() = 0.0;
}

double member_epoch(const Member& member, const Matrix& x, const Matrix& y,
                    std::vector<double>& grads) {
  std::vector<double> h;
  Pass p = make_pass(member, x, &y, h, "member_epoch");
  grads.assign(member.flat().size(), 0.0);
  p.grads = grads.data();
  const double loss = run(p);
  // A pad unit's activation is not 0, so its w2 chain is not either.
  for (std::size_t c = member.hidden(); c < member.stride(); ++c)
    grads[member.w2_offset() + c] = 0.0;
  return loss;
}

double member_loss(const Member& member, const Matrix& x, const Matrix& y) {
  std::vector<double> h;
  Pass p = make_pass(member, x, &y, h, "member_loss");
  return run(p);
}

void member_forward(const Member& member, const Matrix& x,
                    std::span<double> out) {
  if (out.size() != x.rows())
    throw std::invalid_argument("member_forward: output size");
  std::vector<double> h;
  Pass p = make_pass(member, x, nullptr, h, "member_forward");
  p.out = out.data();
  (void)run(p);
}

}  // namespace pt::ml
