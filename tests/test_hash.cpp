// Golden pins for core/hash.hpp. Journal keys, manifest digests, ECMP path
// choices, flight sampling and every RNG stream derive from these
// primitives, so each constant is pinned to a literal: a drifted constant
// would otherwise still pass the relational (same-input-same-output) tests.

#include "core/hash.hpp"

#include <gtest/gtest.h>

#include <cstdint>

namespace ecnd {
namespace {

// Evaluated at compile time: the primitives stay constexpr.
static_assert(fnv1a64("") == kFnvOffsetBasis);
static_assert(splitmix64_mix(0) == 0);

TEST(Fnv1a64, GoldenDigests) {
  EXPECT_EQ(fnv1a64(""), 0xcbf29ce484222325ULL);
  EXPECT_EQ(fnv1a64("a"), 0xaf63dc4c8601ec8cULL);
  EXPECT_EQ(fnv1a64("foobar"), 0x85944171f73967e8ULL);
  EXPECT_EQ(fnv1a64("ecnd|fig20|dcqcn"), 0x8fe53b3acb3fb1deULL);
}

TEST(Fnv1a64, FieldMixerFoldsLittleEndianBytes) {
  // Folding the bytes of "foobar" as two little-endian fields must equal
  // digesting the string.
  std::uint64_t h = fnv1a_field(kFnvOffsetBasis, 0x626f6f66ULL, 4);  // "foob"
  h = fnv1a_field(h, 0x7261ULL, 2);                                   // "ar"
  EXPECT_EQ(h, fnv1a64("foobar"));
  // Bytes above the field width are ignored.
  EXPECT_EQ(fnv1a_field(kFnvOffsetBasis, 0xffffff61ULL, 1), fnv1a64("a"));
  EXPECT_EQ(fnv1a_field(kFnvOffsetBasis, 0, 0), kFnvOffsetBasis);
}

TEST(SplitMix64, GoldenFinalizerValues) {
  EXPECT_EQ(kGoldenGamma, 0x9e3779b97f4a7c15ULL);
  EXPECT_EQ(splitmix64_mix(0), 0ULL);
  EXPECT_EQ(splitmix64_mix(1), 0x5692161d100b05e5ULL);
  EXPECT_EQ(splitmix64_mix((3ULL << 32) | 1), 0x29d1818f3ef86a47ULL);
}

}  // namespace
}  // namespace ecnd
