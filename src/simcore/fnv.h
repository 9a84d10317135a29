// The one FNV-1a (64-bit) for the project's content hashes: grid and
// param-space fingerprints, the tuner's trajectory digest, the seal on
// sealed files (fleet/io.h) and vafsd frame checksums. Words fold as their
// 8 little-endian bytes, so every hash is the same on any host.
#pragma once

#include <bit>
#include <cstddef>
#include <cstdint>
#include <string_view>

namespace vafs::sim {

inline constexpr std::uint64_t kFnvOffset = 0xCBF29CE484222325ULL;
inline constexpr std::uint64_t kFnvPrime = 0x100000001B3ULL;

inline std::uint64_t fnv1a(std::uint64_t h, const void* data, std::size_t n) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < n; ++i) {
    h ^= p[i];
    h *= kFnvPrime;
  }
  return h;
}

inline std::uint64_t fnv1a(std::uint64_t h, std::string_view bytes) {
  return fnv1a(h, bytes.data(), bytes.size());
}

inline std::uint64_t fnv1a_u64(std::uint64_t h, std::uint64_t word) {
  for (int shift = 0; shift < 64; shift += 8) {
    h ^= (word >> shift) & 0xFF;
    h *= kFnvPrime;
  }
  return h;
}

/// A double folds as its IEEE-754 bit pattern.
inline std::uint64_t fnv1a_f64(std::uint64_t h, double v) {
  return fnv1a_u64(h, std::bit_cast<std::uint64_t>(v));
}

}  // namespace vafs::sim
