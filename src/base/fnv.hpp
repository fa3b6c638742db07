// FNV-1a, 64-bit: the one content hasher behind every geometry and naming
// hash, rule-table signature, cache checksum, compile fingerprint, and
// store record checksum in the compiler.
//
// Many of those values are persisted (store keys embed geometry hashes and
// signatures; every store record carries a checksum), so the mixing below
// is part of the on-disk format: changing it requires a
// store::kSchemaVersion bump. Note the two granularities: mix() folds a
// whole 64-bit word in ONE step (not byte by byte), mix_bytes() is the
// textbook byte-wise FNV-1a.
#pragma once

#include <cstdint>
#include <string_view>

namespace silc {

class Fnv1a {
 public:
  static constexpr std::uint64_t kOffsetBasis = 1469598103934665603ULL;
  static constexpr std::uint64_t kPrime = 1099511628211ULL;

  constexpr Fnv1a() = default;
  /// Start from `seed` instead of the offset basis (domain-salted hashes).
  explicit constexpr Fnv1a(std::uint64_t seed) : h_(seed) {}

  /// Fold one 64-bit word in a single step.
  constexpr void mix(std::uint64_t v) { h_ = (h_ ^ v) * kPrime; }
  /// One step per byte, no length prefix.
  constexpr void mix_bytes(std::string_view s) {
    for (const char c : s) mix(static_cast<unsigned char>(c));
  }
  /// Length prefix, then one step per byte.
  constexpr void mix_str(std::string_view s) {
    mix(s.size());
    mix_bytes(s);
  }

  [[nodiscard]] constexpr std::uint64_t value() const { return h_; }

 private:
  std::uint64_t h_ = kOffsetBasis;
};

}  // namespace silc
