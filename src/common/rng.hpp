#pragma once

// Deterministic, fast pseudo-random number generation for the whole project.
//
// Simulation results must be reproducible across runs and platforms, so we do
// not use std::mt19937 together with the distribution templates (whose output
// is implementation defined). Instead we ship xoshiro256** seeded through
// splitmix64, plus hand-written distribution helpers with a pinned algorithm.

#include <array>
#include <cstdint>
#include <cmath>
#include <limits>
#include <vector>

namespace pt::common {

/// splitmix64 step; used to stretch a single 64-bit seed into a full state.
[[nodiscard]] constexpr std::uint64_t splitmix64(std::uint64_t& state) noexcept {
  state += 0x9e3779b97f4a7c15ULL;
  std::uint64_t z = state;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

/// xoshiro256** generator (Blackman & Vigna). Satisfies
/// std::uniform_random_bit_generator so it can also feed std::shuffle.
class Rng {
 public:
  using result_type = std::uint64_t;

  /// Construct from a 64-bit seed; state is expanded with splitmix64.
  explicit constexpr Rng(std::uint64_t seed = 0x853c49e6748fea9bULL) noexcept {
    std::uint64_t sm = seed;
    for (auto& s : state_) s = splitmix64(sm);
  }

  static constexpr result_type min() noexcept { return 0; }
  static constexpr result_type max() noexcept {
    return std::numeric_limits<result_type>::max();
  }

  constexpr result_type operator()() noexcept {
    const std::uint64_t result = rotl(state_[1] * 5, 7) * 9;
    const std::uint64_t t = state_[1] << 17;
    state_[2] ^= state_[0];
    state_[3] ^= state_[1];
    state_[1] ^= state_[2];
    state_[0] ^= state_[3];
    state_[2] ^= t;
    state_[3] = rotl(state_[3], 45);
    return result;
  }

  /// Uniform double in [0, 1).
  double uniform() noexcept {
    return static_cast<double>((*this)() >> 11) * 0x1.0p-53;
  }

  /// Uniform double in [lo, hi).
  double uniform(double lo, double hi) noexcept {
    return lo + (hi - lo) * uniform();
  }

  /// Uniform integer in [0, bound) via Lemire's multiply-shift rejection.
  std::uint64_t below(std::uint64_t bound) noexcept;

  /// Uniform integer in the inclusive range [lo, hi].
  std::int64_t range(std::int64_t lo, std::int64_t hi) noexcept {
    return lo + static_cast<std::int64_t>(
                    below(static_cast<std::uint64_t>(hi - lo) + 1));
  }

  /// Standard normal deviate (Marsaglia polar method, cached spare).
  double normal() noexcept;

  /// Normal deviate with the given mean and standard deviation, written as
  /// the one fused multiply-add the AVX builds contract it to, so every
  /// backend rounds it alike.
  double normal(double mean, double stddev) noexcept {
    return std::fma(stddev, normal(), mean);
  }

  /// Log-normal deviate: exp(N(mu, sigma)).
  double lognormal(double mu, double sigma) noexcept {
    return std::exp(normal(mu, sigma));
  }

  /// Bernoulli trial with success probability p.
  bool bernoulli(double p) noexcept { return uniform() < p; }

  /// Derive an independent child generator (for per-task streams).
  Rng fork() noexcept { return Rng((*this)() ^ 0xd6e8feb86659fd93ULL); }

  /// Fisher-Yates shuffle of a vector, pinned algorithm (not std::shuffle).
  template <typename T>
  void shuffle(std::vector<T>& v) noexcept {
    for (std::size_t i = v.size(); i > 1; --i) {
      const std::size_t j = static_cast<std::size_t>(below(i));
      using std::swap;
      swap(v[i - 1], v[j]);
    }
  }

  /// Sample k distinct indices from [0, n) (k <= n), in random order.
  std::vector<std::size_t> sample_without_replacement(std::size_t n,
                                                      std::size_t k);

 private:
  static constexpr std::uint64_t rotl(std::uint64_t x, int k) noexcept {
    return (x << k) | (x >> (64 - k));
  }

  std::array<std::uint64_t, 4> state_{};
  double spare_normal_ = 0.0;
  bool has_spare_ = false;
};

}  // namespace pt::common
