#include "exp/json.h"

#include <cassert>
#include <charconv>
#include <cmath>

#include "obs/export.h"

namespace vafs::exp {

Json& Json::push(Json v) {
  assert(kind_ == Kind::kArray);
  items_.push_back(std::move(v));
  return *this;
}

Json& Json::set(std::string key, Json value) {
  assert(kind_ == Kind::kObject);
  for (auto& [k, v] : members_) {
    if (k == key) {
      v = std::move(value);
      return *this;
    }
  }
  members_.emplace_back(std::move(key), std::move(value));
  return *this;
}

const Json* Json::find(std::string_view key) const {
  for (const auto& [k, v] : members_) {
    if (k == key) return &v;
  }
  return nullptr;
}

std::string json_number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[64];
  const auto [end, ec] = std::to_chars(buf, buf + sizeof buf, v);
  assert(ec == std::errc());
  return std::string(buf, end);
}

namespace {

void newline_indent(std::string& out, int indent, int depth) {
  if (indent <= 0) return;
  out.push_back('\n');
  out.append(static_cast<std::size_t>(indent) * static_cast<std::size_t>(depth), ' ');
}

}  // namespace

void Json::write(std::string& out, int indent, int depth) const {
  switch (kind_) {
    case Kind::kNull: out += "null"; break;
    case Kind::kBool: out += bool_ ? "true" : "false"; break;
    case Kind::kNumber: out += json_number(num_); break;
    case Kind::kString: out += obs::json_quote(str_); break;
    case Kind::kArray: {
      if (items_.empty()) {
        out += "[]";
        break;
      }
      out.push_back('[');
      for (std::size_t i = 0; i < items_.size(); ++i) {
        if (i) out.push_back(',');
        newline_indent(out, indent, depth + 1);
        items_[i].write(out, indent, depth + 1);
      }
      newline_indent(out, indent, depth);
      out.push_back(']');
      break;
    }
    case Kind::kObject: {
      if (members_.empty()) {
        out += "{}";
        break;
      }
      out.push_back('{');
      for (std::size_t i = 0; i < members_.size(); ++i) {
        if (i) out.push_back(',');
        newline_indent(out, indent, depth + 1);
        out += obs::json_quote(members_[i].first);
        out += indent > 0 ? ": " : ":";
        members_[i].second.write(out, indent, depth + 1);
      }
      newline_indent(out, indent, depth);
      out.push_back('}');
      break;
    }
  }
}

std::string Json::dump(int indent) const {
  std::string out;
  write(out, indent, 0);
  if (indent > 0) out.push_back('\n');
  return out;
}

namespace {

// Recursive-descent parser. Depth-capped so a pathological
// "[[[[...]]]]"  cannot exhaust the stack; 100 is an order of magnitude
// past the deepest artifact this repo writes.
class Parser {
 public:
  static constexpr int kMaxDepth = 100;

  Parser(std::string_view text, std::string* error) : text_(text), error_(error) {}

  bool parse(Json* out) {
    skip_ws();
    if (!value(out, 0)) return false;
    skip_ws();
    if (pos_ != text_.size()) return fail("trailing garbage after top-level value");
    return true;
  }

 private:
  bool fail(const std::string& why) {
    if (error_) *error_ = "json: " + why + " at offset " + std::to_string(pos_);
    return false;
  }

  void skip_ws() {
    while (pos_ < text_.size()) {
      const char c = text_[pos_];
      if (c != ' ' && c != '\t' && c != '\n' && c != '\r') break;
      ++pos_;
    }
  }

  bool literal(std::string_view word) {
    if (text_.substr(pos_, word.size()) != word) return fail("invalid literal");
    pos_ += word.size();
    return true;
  }

  bool string(std::string* out) {
    if (pos_ >= text_.size() || text_[pos_] != '"') return fail("expected '\"'");
    ++pos_;
    out->clear();
    while (pos_ < text_.size()) {
      const unsigned char c = static_cast<unsigned char>(text_[pos_]);
      if (c == '"') {
        ++pos_;
        return true;
      }
      if (c < 0x20) return fail("unescaped control character in string");
      if (c != '\\') {
        out->push_back(static_cast<char>(c));
        ++pos_;
        continue;
      }
      if (++pos_ >= text_.size()) return fail("truncated escape");
      const char e = text_[pos_++];
      switch (e) {
        case '"': out->push_back('"'); break;
        case '\\': out->push_back('\\'); break;
        case '/': out->push_back('/'); break;
        case 'b': out->push_back('\b'); break;
        case 'f': out->push_back('\f'); break;
        case 'n': out->push_back('\n'); break;
        case 'r': out->push_back('\r'); break;
        case 't': out->push_back('\t'); break;
        case 'u': {
          if (pos_ + 4 > text_.size()) return fail("truncated \\u escape");
          unsigned cp = 0;
          for (int i = 0; i < 4; ++i) {
            const char h = text_[pos_++];
            cp <<= 4;
            if (h >= '0' && h <= '9') cp |= static_cast<unsigned>(h - '0');
            else if (h >= 'a' && h <= 'f') cp |= static_cast<unsigned>(h - 'a' + 10);
            else if (h >= 'A' && h <= 'F') cp |= static_cast<unsigned>(h - 'A' + 10);
            else return fail("bad hex digit in \\u escape");
          }
          // UTF-8 encode; surrogate pairs are not combined (the writer
          // only emits \u00xx control escapes) but lone surrogates still
          // round-trip as 3-byte sequences rather than failing.
          if (cp < 0x80) {
            out->push_back(static_cast<char>(cp));
          } else if (cp < 0x800) {
            out->push_back(static_cast<char>(0xC0 | (cp >> 6)));
            out->push_back(static_cast<char>(0x80 | (cp & 0x3F)));
          } else {
            out->push_back(static_cast<char>(0xE0 | (cp >> 12)));
            out->push_back(static_cast<char>(0x80 | ((cp >> 6) & 0x3F)));
            out->push_back(static_cast<char>(0x80 | (cp & 0x3F)));
          }
          break;
        }
        default: return fail("unknown escape");
      }
    }
    return fail("unterminated string");
  }

  bool number(Json* out) {
    const std::size_t start = pos_;
    if (pos_ < text_.size() && text_[pos_] == '-') ++pos_;
    if (pos_ >= text_.size() || text_[pos_] < '0' || text_[pos_] > '9') {
      return fail("malformed number");
    }
    if (text_[pos_] == '0') {
      ++pos_;
    } else {
      while (pos_ < text_.size() && text_[pos_] >= '0' && text_[pos_] <= '9') ++pos_;
    }
    if (pos_ < text_.size() && text_[pos_] == '.') {
      ++pos_;
      if (pos_ >= text_.size() || text_[pos_] < '0' || text_[pos_] > '9') {
        return fail("malformed fraction");
      }
      while (pos_ < text_.size() && text_[pos_] >= '0' && text_[pos_] <= '9') ++pos_;
    }
    if (pos_ < text_.size() && (text_[pos_] == 'e' || text_[pos_] == 'E')) {
      ++pos_;
      if (pos_ < text_.size() && (text_[pos_] == '+' || text_[pos_] == '-')) ++pos_;
      if (pos_ >= text_.size() || text_[pos_] < '0' || text_[pos_] > '9') {
        return fail("malformed exponent");
      }
      while (pos_ < text_.size() && text_[pos_] >= '0' && text_[pos_] <= '9') ++pos_;
    }
    double v = 0.0;
    const auto [end, ec] =
        std::from_chars(text_.data() + start, text_.data() + pos_, v);
    if (ec == std::errc::result_out_of_range) {
      // Overflow saturates to ±inf like strtod; keep it as a number so
      // "1e999" parses (it re-renders as null, same as any non-finite).
      v = (text_[start] == '-') ? -HUGE_VAL : HUGE_VAL;
    } else if (ec != std::errc() || end != text_.data() + pos_) {
      return fail("malformed number");
    }
    *out = Json(v);
    return true;
  }

  bool value(Json* out, int depth) {
    if (depth > kMaxDepth) return fail("nesting too deep");
    if (pos_ >= text_.size()) return fail("unexpected end of input");
    switch (text_[pos_]) {
      case 'n': return literal("null") && (*out = Json(), true);
      case 't': return literal("true") && (*out = Json(true), true);
      case 'f': return literal("false") && (*out = Json(false), true);
      case '"': {
        std::string s;
        if (!string(&s)) return false;
        *out = Json(std::move(s));
        return true;
      }
      case '[': {
        ++pos_;
        *out = Json::array();
        skip_ws();
        if (pos_ < text_.size() && text_[pos_] == ']') {
          ++pos_;
          return true;
        }
        while (true) {
          Json item;
          skip_ws();
          if (!value(&item, depth + 1)) return false;
          out->push(std::move(item));
          skip_ws();
          if (pos_ >= text_.size()) return fail("unterminated array");
          if (text_[pos_] == ',') {
            ++pos_;
            continue;
          }
          if (text_[pos_] == ']') {
            ++pos_;
            return true;
          }
          return fail("expected ',' or ']'");
        }
      }
      case '{': {
        ++pos_;
        *out = Json::object();
        skip_ws();
        if (pos_ < text_.size() && text_[pos_] == '}') {
          ++pos_;
          return true;
        }
        while (true) {
          skip_ws();
          std::string key;
          if (!string(&key)) return false;
          skip_ws();
          if (pos_ >= text_.size() || text_[pos_] != ':') return fail("expected ':'");
          ++pos_;
          skip_ws();
          Json member;
          if (!value(&member, depth + 1)) return false;
          out->set(std::move(key), std::move(member));
          skip_ws();
          if (pos_ >= text_.size()) return fail("unterminated object");
          if (text_[pos_] == ',') {
            ++pos_;
            continue;
          }
          if (text_[pos_] == '}') {
            ++pos_;
            return true;
          }
          return fail("expected ',' or '}'");
        }
      }
      default: return number(out);
    }
  }

  std::string_view text_;
  std::size_t pos_ = 0;
  std::string* error_;
};

}  // namespace

bool json_parse(std::string_view text, Json* out, std::string* error) {
  *out = Json();
  Parser p(text, error);
  Json parsed;
  if (!p.parse(&parsed)) return false;
  *out = std::move(parsed);
  return true;
}

}  // namespace vafs::exp
