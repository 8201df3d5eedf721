#include "common/rng.hpp"

#include <stdexcept>
#include <unordered_map>
#include <unordered_set>

namespace pt::common {

std::uint64_t Rng::below(std::uint64_t bound) noexcept {
  if (bound == 0) return 0;
  // Lemire's nearly-divisionless method.
  std::uint64_t x = (*this)();
  __uint128_t m = static_cast<__uint128_t>(x) * bound;
  auto lo = static_cast<std::uint64_t>(m);
  if (lo < bound) {
    const std::uint64_t threshold = (0 - bound) % bound;
    while (lo < threshold) {
      x = (*this)();
      m = static_cast<__uint128_t>(x) * bound;
      lo = static_cast<std::uint64_t>(m);
    }
  }
  return static_cast<std::uint64_t>(m >> 64);
}

double Rng::normal() noexcept {
  if (has_spare_) {
    has_spare_ = false;
    return spare_normal_;
  }
  double u = 0.0;
  double v = 0.0;
  double s = 0.0;
  // The fused multiply-adds the AVX builds contract these to, written out
  // (rng.cpp compiles with -ffp-contract=off) so every backend rounds alike:
  // uniform(-1, 1) as one fma, exact either way since hi - lo = 2, and u * u
  // fused onto the rounded v * v.
  do {
    u = std::fma(uniform(), 2.0, -1.0);
    v = std::fma(uniform(), 2.0, -1.0);
    s = std::fma(u, u, v * v);
  } while (s >= 1.0 || s == 0.0);
  const double factor = std::sqrt(-2.0 * std::log(s) / s);
  spare_normal_ = v * factor;
  has_spare_ = true;
  return u * factor;
}

std::vector<std::size_t> Rng::sample_without_replacement(std::size_t n,
                                                         std::size_t k) {
  if (k > n) throw std::invalid_argument("sample_without_replacement: k > n");
  std::vector<std::size_t> out;
  out.reserve(k);
  if (k == 0) return out;
  // For dense requests, and any n below 2^20, do a partial Fisher-Yates
  // over the index array idx[i] = i; for sparse requests over huge n (our
  // configuration spaces reach millions), use Floyd's algorithm with a hash
  // set. Both keep memory O(k): the Fisher-Yates array is never built, only
  // the entries its swaps moved are recorded.
  if (n <= 4 * k || n < (1u << 20)) {
    std::unordered_map<std::size_t, std::size_t> moved;
    moved.reserve(k);
    const auto at = [&moved](std::size_t i) {
      const auto it = moved.find(i);
      return it == moved.end() ? i : it->second;
    };
    for (std::size_t i = 0; i < k; ++i) {
      const std::size_t j = i + static_cast<std::size_t>(below(n - i));
      // swap(idx[i], idx[j]); idx[i] is final and never read again.
      const std::size_t at_i = at(i);
      out.push_back(at(j));
      moved[j] = at_i;
    }
    return out;
  }
  std::unordered_set<std::size_t> chosen;
  chosen.reserve(k * 2);
  for (std::size_t j = n - k; j < n; ++j) {
    const std::size_t t = static_cast<std::size_t>(below(j + 1));
    if (chosen.insert(t).second) {
      out.push_back(t);
    } else {
      chosen.insert(j);
      out.push_back(j);
    }
  }
  shuffle(out);
  return out;
}

}  // namespace pt::common
