// The one record codec behind the project's line-oriented text formats:
// the fleet checkpoint manifest, tune-state.ckpt and the supervisor <->
// worker wire. A record is one line: a tag word, then fields, each after a
// single space. Field kinds:
//   u64   decimal without a leading zero, read through sim::parse_u64 with
//         an optional upper bound
//   hex   16 lowercase hex digits
//   f64   a double as the hex of its IEEE-754 bits (bit-exact round trips)
//   text  arbitrary bytes as lowercase hex, "-" when empty, so a record
//         stays one line whatever a message holds
//   word  a raw token (tune-state's round tags and candidates)
// Each value has one spelling, so a record the reader accepts is the one
// the writer makes of its values. RecordWriter appends one record.
// RecordReader is a cursor over one line whose failures latch: a parser
// chains its reads and tests done() once, which holds only when every field
// was read and none failed. Outputs of a refused record are unspecified.
#pragma once

#include <bit>
#include <charconv>
#include <cstdint>
#include <limits>
#include <string>
#include <string_view>

#include "simcore/parse.h"

namespace vafs::fleet {

class RecordWriter {
 public:
  /// Starts a record in `out` with its tag; end() closes the line.
  RecordWriter(std::string& out, std::string_view tag) : out_(out) { out_ += tag; }

  RecordWriter& word(std::string_view w) {
    out_ += ' ';
    out_ += w;
    return *this;
  }
  RecordWriter& u64(std::uint64_t v) {
    char buf[20];
    return word(std::string_view(buf, std::to_chars(buf, buf + sizeof(buf), v).ptr));
  }
  RecordWriter& hex(std::uint64_t v) {
    char buf[16];
    for (int i = 15; i >= 0; --i, v >>= 4) buf[i] = kDigits[v & 0xF];
    return word(std::string_view(buf, sizeof(buf)));
  }
  RecordWriter& f64(double v) { return hex(std::bit_cast<std::uint64_t>(v)); }
  RecordWriter& text(std::string_view bytes) {
    if (bytes.empty()) return word("-");
    out_ += ' ';
    for (const char c : bytes) {
      out_ += kDigits[static_cast<unsigned char>(c) >> 4];
      out_ += kDigits[static_cast<unsigned char>(c) & 0xF];
    }
    return *this;
  }
  void end() { out_ += '\n'; }

 private:
  static constexpr char kDigits[] = "0123456789abcdef";
  std::string& out_;
};

class RecordReader {
 public:
  /// A cursor over `line` (no '\n').
  explicit RecordReader(std::string_view line) : rest_(line), ok_(true), more_(true) {}
  /// A missing line: every read fails.
  RecordReader() = default;

  /// The next field must be exactly `want`.
  RecordReader& tag(std::string_view want) {
    if (next() != want) ok_ = false;
    return *this;
  }
  RecordReader& u64(std::uint64_t* out,
                    std::uint64_t max = std::numeric_limits<std::uint64_t>::max()) {
    const std::string_view f = next();
    std::uint64_t v = 0;
    if (sim::parse_u64(f, &v) && v <= max && (f.size() == 1 || f[0] != '0')) {
      *out = v;
    } else {
      ok_ = false;
    }
    return *this;
  }
  RecordReader& hex(std::uint64_t* out) {
    const std::string_view f = next();
    ok_ = ok_ && f.size() == 16;
    std::uint64_t v = 0;
    for (std::size_t i = 0; ok_ && i < f.size(); ++i) {
      const int d = nibble(f[i]);
      ok_ = d >= 0;
      v = v << 4 | static_cast<std::uint64_t>(d);
    }
    if (ok_) *out = v;
    return *this;
  }
  RecordReader& f64(double* out) {
    std::uint64_t bits = 0;
    if (hex(&bits).ok_) *out = std::bit_cast<double>(bits);
    return *this;
  }
  RecordReader& text(std::string* out) {
    const std::string_view f = next();
    out->clear();
    if (f == "-") return *this;
    ok_ = ok_ && !f.empty() && f.size() % 2 == 0;
    for (std::size_t i = 0; ok_ && i < f.size(); i += 2) {
      const int hi = nibble(f[i]);
      const int lo = nibble(f[i + 1]);
      ok_ = hi >= 0 && lo >= 0;
      out->push_back(static_cast<char>(hi << 4 | lo));
    }
    return *this;
  }
  /// A raw token; an empty field is refused.
  RecordReader& word(std::string_view* out) {
    const std::string_view f = next();
    ok_ = ok_ && !f.empty();
    if (ok_) *out = f;
    return *this;
  }

  bool done() const { return ok_ && !more_; }

 private:
  static int nibble(char c) {
    if (c >= '0' && c <= '9') return c - '0';
    if (c >= 'a' && c <= 'f') return c - 'a' + 10;
    return -1;
  }

  std::string_view next() {
    if (!ok_ || !more_) {
      ok_ = false;
      return {};
    }
    const std::size_t space = rest_.find(' ');
    const std::string_view field = rest_.substr(0, space);
    more_ = space != std::string_view::npos;
    rest_.remove_prefix(more_ ? space + 1 : rest_.size());
    return field;
  }

  std::string_view rest_;
  bool ok_ = false;
  bool more_ = false;  // a field is left to read
};

/// Cuts the next line off the front of `*body` and returns a reader over
/// it; past the last line the reader fails every read.
inline RecordReader next_record(std::string_view* body) {
  if (body->empty()) return RecordReader();
  const std::size_t nl = body->find('\n');
  const RecordReader record(body->substr(0, nl));
  body->remove_prefix(nl == std::string_view::npos ? body->size() : nl + 1);
  return record;
}

}  // namespace vafs::fleet
