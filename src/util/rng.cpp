#include "util/rng.hpp"

#include <cmath>

#include "util/check.hpp"

namespace sssw::util {

std::uint64_t splitmix64(std::uint64_t& state) noexcept {
  std::uint64_t z = (state += 0x9e3779b97f4a7c15ull);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

Rng::Rng(std::uint64_t seed) noexcept {
  std::uint64_t sm = seed;
  for (auto& word : s_) word = splitmix64(sm);
}

std::int64_t Rng::range(std::int64_t lo, std::int64_t hi) noexcept {
  SSSW_DCHECK(lo <= hi);
  const auto span = static_cast<std::uint64_t>(hi - lo) + 1;
  // span == 0 means the full 64-bit range [INT64_MIN, INT64_MAX].
  const std::uint64_t draw = span == 0 ? operator()() : below(span);
  return lo + static_cast<std::int64_t>(draw);
}

double Rng::uniform() noexcept {
  return static_cast<double>(operator()() >> 11) * 0x1.0p-53;
}

double Rng::uniform(double lo, double hi) noexcept {
  return lo + (hi - lo) * uniform();
}

bool Rng::bernoulli(double p) noexcept {
  if (p <= 0.0) return false;
  if (p >= 1.0) return true;
  return uniform() < p;
}

double Rng::exponential(double rate) noexcept {
  SSSW_DCHECK(rate > 0.0);
  // 1 - uniform() is in (0, 1], so the log is finite.
  return -std::log(1.0 - uniform()) / rate;
}

Rng Rng::split() noexcept {
  std::uint64_t sm = operator()();
  return Rng(splitmix64(sm));
}

}  // namespace sssw::util
