// Small fast PRNGs for workload generation.
//
// Benchmarks must not let RNG cost or RNG synchronization pollute the
// measurement, so we use xoshiro256** (public-domain algorithm by Blackman &
// Vigna): ~1ns per draw, 2^256-1 period, passes BigCrush. Each worker thread
// owns an independent, distinctly-seeded instance.
//
// Also provides the geometric level generator used by skip lists and a
// Zipfian generator (Gray et al., SIGMOD'94 rejection-free method) for
// skewed-key workloads.
#pragma once

#include <atomic>
#include <cmath>
#include <cstdint>
#include <vector>

namespace lf {

// SplitMix64: used only to expand a single seed word into PRNG state.
// (Vigna's recommended seeding procedure for the xoshiro family.)
inline std::uint64_t splitmix64(std::uint64_t& state) noexcept {
  std::uint64_t z = (state += 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

// xoshiro256** generator. Not thread-safe by design: one instance per thread.
class Xoshiro256 {
 public:
  using result_type = std::uint64_t;

  explicit Xoshiro256(std::uint64_t seed = 0x2545f4914f6cdd1dULL) noexcept {
    std::uint64_t sm = seed;
    for (auto& word : state_) word = splitmix64(sm);
  }

  static constexpr result_type min() noexcept { return 0; }
  static constexpr result_type max() noexcept { return ~0ULL; }

  result_type operator()() noexcept {
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

  // Uniform integer in [0, bound). Lemire's multiply-shift reduction; the
  // modulo bias is at most 2^-64 * bound, negligible for workload generation.
  std::uint64_t below(std::uint64_t bound) noexcept {
    return static_cast<std::uint64_t>(
        (static_cast<unsigned __int128>(operator()()) * bound) >> 64);
  }

  // Uniform double in [0, 1).
  double uniform() noexcept {
    return static_cast<double>(operator()() >> 11) * 0x1.0p-53;
  }

  // Flips fair coins and returns the number of consecutive heads plus one,
  // capped at `max_height`: the geometric(1/2) tower-height distribution the
  // paper's skip list uses ("the height of each tower is chosen randomly by
  // coin flips", Section 4).
  int tower_height(int max_height) noexcept {
    // Count trailing ones of a single draw: P(h >= k+1) = 2^-k, exactly the
    // repeated-coin-flip process, in one RNG call.
    const std::uint64_t bits = operator()();
    int h = 1;
    while (h < max_height && (bits >> (h - 1) & 1ULL) != 0) ++h;
    return h;
  }

 private:
  static constexpr std::uint64_t rotl(std::uint64_t x, int k) noexcept {
    return (x << k) | (x >> (64 - k));
  }
  std::uint64_t state_[4];
};

// The calling thread's generator for Owner's tower heights, seeded by the
// order in which threads first draw from it (each Owner type counts its
// own), not by thread id, so a 1-thread run builds the same towers in every
// process. `salt`, used on a thread's first draw, tells structures apart.
template <typename Owner>
Xoshiro256& thread_ordinal_rng(std::uint64_t salt) {
  static std::atomic<std::uint64_t> next_ordinal{0};
  thread_local Xoshiro256 rng(
      salt ^ next_ordinal.fetch_add(1, std::memory_order_relaxed));
  return rng;
}

// Zipfian key distribution over [0, n). theta in (0,1); theta ~0.99 is the
// YCSB default for a heavily skewed workload. Uses the classic analytic
// approximation (Gray et al.) so each draw is O(1).
class ZipfGenerator {
 public:
  ZipfGenerator(std::uint64_t n, double theta, std::uint64_t seed = 1)
      : n_(n), theta_(theta), rng_(seed) {
    zetan_ = zeta(n);
    const double zeta2 = zeta(2);
    alpha_ = 1.0 / (1.0 - theta_);
    eta_ = (1.0 - std::pow(2.0 / static_cast<double>(n_), 1.0 - theta_)) /
           (1.0 - zeta2 / zetan_);
  }

  std::uint64_t operator()() noexcept {
    const double u = rng_.uniform();
    const double uz = u * zetan_;
    if (uz < 1.0) return 0;
    if (uz < 1.0 + std::pow(0.5, theta_)) return 1;
    return static_cast<std::uint64_t>(
        static_cast<double>(n_) * std::pow(eta_ * u - eta_ + 1.0, alpha_));
  }

 private:
  double zeta(std::uint64_t n) const {
    double sum = 0;
    for (std::uint64_t i = 1; i <= n; ++i)
      sum += 1.0 / std::pow(static_cast<double>(i), theta_);
    return sum;
  }

  std::uint64_t n_;
  double theta_;
  double zetan_, alpha_, eta_;
  Xoshiro256 rng_;
};

}  // namespace lf
