#include "supervise/wire.h"

#include <bit>
#include <vector>

#include "fleet/textio.h"
#include "simcore/parse.h"

namespace vafs::supervise {

using fleet::append_hex64;
using fleet::hex_decode;
using fleet::hex_encode;
using fleet::parse_hex64;
using fleet::split_fields;
using sim::parse_u64;

void encode_task(std::string* out, std::uint64_t task_index, int attempt) {
  *out += "T " + std::to_string(task_index) + ' ' + std::to_string(attempt) + '\n';
}

void encode_quit(std::string* out) { *out += "Q\n"; }

void encode_begin(std::string* out, std::uint64_t task_index) {
  *out += "B " + std::to_string(task_index) + '\n';
}

void encode_result(std::string* out, const WireResult& r) {
  *out += "R " + std::to_string(r.task_index) + (r.finished ? " 1 " : " 0 ");
  append_hex64(*out, r.digest);
  for (const double v : r.values) {
    *out += ' ';
    append_hex64(*out, std::bit_cast<std::uint64_t>(v));
  }
  *out += '\n';
}

void encode_failure(std::string* out, std::uint64_t task_index, std::string_view error) {
  if (error.size() > kMaxErrorBytes) error = error.substr(0, kMaxErrorBytes);
  *out += "F " + std::to_string(task_index) + ' ' + hex_encode(error) + '\n';
}

void encode_heartbeat(std::string* out, const WireHeartbeat& h) {
  *out += "H " + std::to_string(h.beat) + ' ' + std::to_string(h.trace_events) + ' ';
  append_hex64(*out, h.trace_digest);
  *out += '\n';
}

bool parse_task(std::string_view line, std::uint64_t* task_index, int* attempt) {
  std::vector<std::string> t;
  split_fields(line, &t);
  std::uint64_t a = 0;
  if (t.size() != 3 || t[0] != "T" || !parse_u64(t[1], task_index) || !parse_u64(t[2], &a) ||
      a > 1000000) {
    return false;
  }
  *attempt = static_cast<int>(a);
  return true;
}

bool is_quit(std::string_view line) { return line == "Q"; }

bool parse_begin(std::string_view line, std::uint64_t* task_index) {
  std::vector<std::string> t;
  split_fields(line, &t);
  return t.size() == 2 && t[0] == "B" && parse_u64(t[1], task_index);
}

bool parse_result(std::string_view line, WireResult* r) {
  std::vector<std::string> t;
  split_fields(line, &t);
  if (t.size() != 4 + exp::kMetricCount || t[0] != "R") return false;
  std::uint64_t finished = 0;
  if (!parse_u64(t[1], &r->task_index) || !parse_u64(t[2], &finished) || finished > 1 ||
      !parse_hex64(t[3], &r->digest)) {
    return false;
  }
  r->finished = finished == 1;
  for (std::size_t i = 0; i < exp::kMetricCount; ++i) {
    std::uint64_t bits = 0;
    if (!parse_hex64(t[4 + i], &bits)) return false;
    r->values[i] = std::bit_cast<double>(bits);
  }
  return true;
}

bool parse_failure(std::string_view line, WireFailure* f) {
  std::vector<std::string> t;
  split_fields(line, &t);
  return t.size() == 3 && t[0] == "F" && parse_u64(t[1], &f->task_index) &&
         hex_decode(t[2], &f->error);
}

bool parse_heartbeat(std::string_view line, WireHeartbeat* h) {
  std::vector<std::string> t;
  split_fields(line, &t);
  return t.size() == 4 && t[0] == "H" && parse_u64(t[1], &h->beat) &&
         parse_u64(t[2], &h->trace_events) && parse_hex64(t[3], &h->trace_digest);
}

}  // namespace vafs::supervise
