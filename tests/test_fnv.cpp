// Tests for util/fnv: the published FNV-1a 64 reference values, and the
// word fold's byte order.
#include "util/fnv.hpp"

#include <gtest/gtest.h>

namespace sssw::util {
namespace {

TEST(Fnv1a, MatchesReferenceVectors) {
  EXPECT_EQ(Fnv1a().value(), 0xcbf29ce484222325ull);
  EXPECT_EQ(Fnv1a().add_bytes("a").value(), 0xaf63dc4c8601ec8cull);
  EXPECT_EQ(Fnv1a().add_bytes("foobar").value(), 0x85944171f73967e8ull);
}

TEST(Fnv1a, FoldsContinueAcrossCalls) {
  const std::uint64_t foo = Fnv1a().add_bytes("foo").value();
  EXPECT_EQ(Fnv1a(foo).add_bytes("bar").value(),
            Fnv1a().add_bytes("foobar").value());
}

TEST(Fnv1a, WordsFoldLittleEndian) {
  EXPECT_EQ(Fnv1a().add_word(0x0123456789abcdefull).value(),
            Fnv1a().add_bytes("\xef\xcd\xab\x89\x67\x45\x23\x01").value());
  EXPECT_EQ(Fnv1a().add_word(0x0123456789abcdefull).value(),
            0x37eb3f3347761c55ull);
}

}  // namespace
}  // namespace sssw::util
