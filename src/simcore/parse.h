// The one integer parser for text the project reads: CLI flags, checkpoint
// manifests, the supervisor wire, tuner state files and governor tunables.
#pragma once

#include <charconv>
#include <cstdint>
#include <string_view>
#include <system_error>

namespace vafs::sim {

/// Strict decimal u64: digits only (no sign, space or prefix). Empty input,
/// trailing bytes and a value above 2^64 - 1 are refused, never wrapped.
/// `*out` is written only on success.
inline bool parse_u64(std::string_view s, std::uint64_t* out) {
  std::uint64_t v = 0;
  const auto [end, ec] = std::from_chars(s.data(), s.data() + s.size(), v);
  if (ec != std::errc() || end != s.data() + s.size()) return false;
  *out = v;
  return true;
}

}  // namespace vafs::sim
