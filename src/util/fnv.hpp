// fnv.hpp — 64-bit FNV-1a, the repository's one content hash.
//
// Two folds feed the same state: raw bytes (sweep cell keys) and 64-bit
// words taken as 8 little-endian bytes (counter and topology digests).  The
// values are pinned — sweep cell directories are named by them, the fuzz
// corpus records them, and tests/test_trajectory_digest.cpp compares them
// with literals — so neither fold may ever change.
#pragma once

#include <cstdint>
#include <string_view>

namespace sssw::util {

class Fnv1a {
 public:
  constexpr Fnv1a() noexcept = default;
  /// Continues a fold from an earlier value().
  constexpr explicit Fnv1a(std::uint64_t hash) noexcept : hash_(hash) {}

  constexpr Fnv1a& add_bytes(std::string_view bytes) noexcept {
    for (const char c : bytes) mix(static_cast<unsigned char>(c));
    return *this;
  }

  constexpr Fnv1a& add_word(std::uint64_t word) noexcept {
    for (int byte = 0; byte < 8; ++byte) mix((word >> (8 * byte)) & 0xff);
    return *this;
  }

  constexpr std::uint64_t value() const noexcept { return hash_; }

 private:
  static constexpr std::uint64_t kOffset = 0xcbf29ce484222325ull;
  static constexpr std::uint64_t kPrime = 0x100000001b3ull;

  constexpr void mix(std::uint64_t byte) noexcept {
    hash_ ^= byte;
    hash_ *= kPrime;
  }

  std::uint64_t hash_ = kOffset;
};

}  // namespace sssw::util
