#pragma once
// The repository's two non-cryptographic hash primitives, in one place.
//
//  * FNV-1a 64 — journal cell keys, the manifest metrics digest, ECMP path
//    choice and flight-recorder sampling. fnv1a64() digests a byte string;
//    fnv1a_field() folds a fixed-width integer field into a running hash, so
//    callers can hash a tuple of fields (optionally seeded by xoring the seed
//    into kFnvOffsetBasis) without first serializing it.
//  * SplitMix64 — its finalizer splitmix64_mix() is the full-avalanche
//    mixer behind Rng seeding, par::task_seed, per-switch ECMP seeds,
//    FlowTable bucket spreading and the jitter process; kGoldenGamma is its
//    golden-ratio increment.
//
// Everything here is constexpr and header-only so per-packet callers
// (ecmp_hash, flight_sampled) inline to the same code as a hand-written copy.
// Every value these produce is observable — journal keys, manifest digests,
// ECMP choices, RNG streams — so the constants must never change; the golden
// pins in tests/test_hash.cpp and the per-caller tests hold them fixed.

#include <cstdint>
#include <string_view>

namespace ecnd {

inline constexpr std::uint64_t kFnvOffsetBasis = 0xcbf29ce484222325ULL;
inline constexpr std::uint64_t kFnvPrime = 0x100000001b3ULL;

/// Fold the low `bytes` bytes of `v` into the FNV-1a state `h`, least
/// significant byte first.
constexpr std::uint64_t fnv1a_field(std::uint64_t h, std::uint64_t v,
                                    int bytes) {
  for (int i = 0; i < bytes; ++i) {
    h ^= (v >> (8 * i)) & 0xffU;
    h *= kFnvPrime;
  }
  return h;
}

/// FNV-1a 64-bit over arbitrary bytes.
constexpr std::uint64_t fnv1a64(std::string_view bytes) {
  std::uint64_t h = kFnvOffsetBasis;
  for (const char c : bytes) {
    h ^= static_cast<unsigned char>(c);
    h *= kFnvPrime;
  }
  return h;
}

/// SplitMix64's golden-ratio increment (2^64 / phi, odd).
inline constexpr std::uint64_t kGoldenGamma = 0x9e3779b97f4a7c15ULL;

/// SplitMix64 finalizer: a bijective full-avalanche mix of one word.
constexpr std::uint64_t splitmix64_mix(std::uint64_t z) {
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

}  // namespace ecnd
