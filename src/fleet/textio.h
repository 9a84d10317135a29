// Line-oriented text serialization helpers shared by the checkpoint
// manifest, the supervisor wire protocol and the quarantine log: 64-bit
// hex fields (doubles travel as IEEE-754 bit patterns, so round trips are
// bit-exact), hex-encoded free-text payloads (keeps formats strictly
// line-oriented no matter what an error message contains) and field
// splitting. Integers parse through sim::parse_u64 (simcore/parse.h).
#pragma once

#include <cinttypes>
#include <cstdint>
#include <cstdio>
#include <string>
#include <string_view>
#include <vector>

namespace vafs::fleet {

inline void append_hex64(std::string& out, std::uint64_t v) {
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016" PRIx64, v);
  out += buf;
}

inline bool parse_hex64(std::string_view s, std::uint64_t* out) {
  if (s.size() != 16) return false;
  std::uint64_t v = 0;
  for (const char c : s) {
    v <<= 4;
    if (c >= '0' && c <= '9') {
      v |= static_cast<std::uint64_t>(c - '0');
    } else if (c >= 'a' && c <= 'f') {
      v |= static_cast<std::uint64_t>(c - 'a' + 10);
    } else {
      return false;
    }
  }
  *out = v;
  return true;
}

/// Arbitrary bytes as lowercase hex; "-" marks the empty string so every
/// field stays non-empty and single-token.
inline std::string hex_encode(std::string_view text) {
  static const char* digits = "0123456789abcdef";
  std::string out;
  out.reserve(text.size() * 2);
  for (const char c : text) {
    const auto b = static_cast<unsigned char>(c);
    out += digits[b >> 4];
    out += digits[b & 0xF];
  }
  return out.empty() ? "-" : out;
}

inline bool hex_decode(std::string_view hex, std::string* out) {
  out->clear();
  if (hex == "-") return true;
  if (hex.size() % 2 != 0) return false;
  const auto nibble = [](char c, unsigned* v) {
    if (c >= '0' && c <= '9') {
      *v = static_cast<unsigned>(c - '0');
    } else if (c >= 'a' && c <= 'f') {
      *v = static_cast<unsigned>(c - 'a' + 10);
    } else {
      return false;
    }
    return true;
  };
  for (std::size_t i = 0; i < hex.size(); i += 2) {
    unsigned hi = 0;
    unsigned lo = 0;
    if (!nibble(hex[i], &hi) || !nibble(hex[i + 1], &lo)) return false;
    out->push_back(static_cast<char>((hi << 4) | lo));
  }
  return true;
}

/// Splits `line` (no trailing newline) on single spaces; empty tokens are
/// preserved, matching the strict single-space formats above.
inline void split_fields(std::string_view line, std::vector<std::string>* tokens) {
  tokens->clear();
  std::size_t start = 0;
  while (start <= line.size()) {
    const std::size_t space = line.find(' ', start);
    tokens->emplace_back(line.substr(start, space - start));
    if (space == std::string_view::npos) break;
    start = space + 1;
  }
}

}  // namespace vafs::fleet
