// rng.hpp — deterministic pseudo-random number generation.
//
// The whole repository draws randomness from xoshiro256++ streams seeded via
// splitmix64, so that a (seed, scheduler, topology) triple replays a
// simulation exactly.  Parallel Monte-Carlo trials derive independent streams
// with Rng::split() / long jumps rather than sharing one generator.
#pragma once

#include <cstdint>
#include <limits>

#include "util/check.hpp"

namespace sssw::util {

/// splitmix64 step: the canonical seeding mixer for xoshiro-family PRNGs.
/// Advances `state` and returns the next 64-bit output.
std::uint64_t splitmix64(std::uint64_t& state) noexcept;

/// xoshiro256++ PRNG (Blackman & Vigna).  Satisfies
/// std::uniform_random_bit_generator so it plugs into <random> distributions,
/// though the helpers below avoid <random>'s cross-platform nondeterminism.
class Rng {
 public:
  using result_type = std::uint64_t;

  /// Seeds all 256 bits of state from `seed` through splitmix64.
  explicit Rng(std::uint64_t seed = 0x9e3779b97f4a7c15ull) noexcept;

  static constexpr result_type min() noexcept { return 0; }
  static constexpr result_type max() noexcept {
    return std::numeric_limits<result_type>::max();
  }

  /// Next raw 64-bit output.  Inline, like below(): the receive pass's
  /// shuffles and the protocol's draws call them per message.
  result_type operator()() noexcept {
    const std::uint64_t result = rotl(s_[0] + s_[3], 23) + s_[0];
    const std::uint64_t t = s_[1] << 17;
    s_[2] ^= s_[0];
    s_[3] ^= s_[1];
    s_[1] ^= s_[2];
    s_[0] ^= s_[3];
    s_[2] ^= t;
    s_[3] = rotl(s_[3], 45);
    return result;
  }

  /// Uniform integer in [0, bound) via Lemire rejection; bound must be > 0.
  std::uint64_t below(std::uint64_t bound) noexcept {
    SSSW_DCHECK(bound > 0);
    // Lemire's nearly-divisionless method.
    std::uint64_t x = operator()();
    __uint128_t m = static_cast<__uint128_t>(x) * bound;
    auto lo = static_cast<std::uint64_t>(m);
    if (lo < bound) {
      const std::uint64_t threshold = (0 - bound) % bound;
      while (lo < threshold) {
        x = operator()();
        m = static_cast<__uint128_t>(x) * bound;
        lo = static_cast<std::uint64_t>(m);
      }
    }
    return static_cast<std::uint64_t>(m >> 64);
  }

  /// Uniform integer in [lo, hi] inclusive; requires lo <= hi.
  std::int64_t range(std::int64_t lo, std::int64_t hi) noexcept;

  /// Uniform double in [0, 1) with 53 bits of entropy.
  double uniform() noexcept;

  /// Uniform double in [lo, hi).
  double uniform(double lo, double hi) noexcept;

  /// Bernoulli trial with success probability p (clamped to [0,1]).
  bool bernoulli(double p) noexcept;

  /// Fair coin flip.
  bool coin() noexcept { return (operator()() >> 63) != 0; }

  /// Standard exponential variate with the given rate (> 0).
  double exponential(double rate) noexcept;

  /// Derives an independent child stream (splitmix64 of the next output),
  /// suitable for handing to a worker thread or a per-node generator.
  Rng split() noexcept;

 private:
  static constexpr std::uint64_t rotl(std::uint64_t x, int k) noexcept {
    return (x << k) | (x >> (64 - k));
  }

  std::uint64_t s_[4];
};

/// Derives a deterministic child stream keyed by (seed, key): the engine
/// hands every process its own stream keyed by its identifier bits, so each
/// process's draws are a pure function of (state, seed).  The key is folded
/// through a golden-ratio multiply before the Rng constructor's splitmix64
/// expansion, so nearby keys land in unrelated streams.
inline Rng derive_stream(std::uint64_t seed, std::uint64_t key) noexcept {
  std::uint64_t state = seed ^ (key * 0x9e3779b97f4a7c15ull);
  // One extra splitmix64 round decorrelates (seed, key) pairs that collide
  // under xor alone (e.g. seed' = seed ^ k).
  return Rng(splitmix64(state));
}

/// Fisher–Yates shuffle of a contiguous range using `rng`.
template <typename T>
void shuffle(T* data, std::size_t n, Rng& rng) {
  for (std::size_t i = n; i > 1; --i) {
    const std::size_t j = rng.below(i);
    const T tmp = data[i - 1];
    data[i - 1] = data[j];
    data[j] = tmp;
  }
}

template <typename Container>
void shuffle(Container& c, Rng& rng) {
  if (!c.empty()) shuffle(c.data(), c.size(), rng);
}

}  // namespace sssw::util
