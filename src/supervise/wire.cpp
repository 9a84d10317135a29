#include "supervise/wire.h"

#include "fleet/record.h"

namespace vafs::supervise {

using fleet::RecordReader;
using fleet::RecordWriter;

void encode_task(std::string* out, std::uint64_t task_index, int attempt) {
  RecordWriter(*out, "T").u64(task_index).u64(static_cast<std::uint64_t>(attempt)).end();
}

void encode_quit(std::string* out) { RecordWriter(*out, "Q").end(); }

void encode_begin(std::string* out, std::uint64_t task_index) {
  RecordWriter(*out, "B").u64(task_index).end();
}

void encode_result(std::string* out, const WireResult& r) {
  RecordWriter w(*out, "R");
  w.u64(r.task_index).u64(r.finished ? 1 : 0).hex(r.digest);
  for (const double v : r.values) w.f64(v);
  w.end();
}

void encode_failure(std::string* out, std::uint64_t task_index, std::string_view error) {
  if (error.size() > kMaxErrorBytes) error = error.substr(0, kMaxErrorBytes);
  RecordWriter(*out, "F").u64(task_index).text(error).end();
}

void encode_heartbeat(std::string* out, const WireHeartbeat& h) {
  RecordWriter(*out, "H").u64(h.beat).u64(h.trace_events).hex(h.trace_digest).end();
}

bool parse_task(std::string_view line, std::uint64_t* task_index, int* attempt) {
  std::uint64_t a = 0;
  if (!RecordReader(line).tag("T").u64(task_index).u64(&a, 1000000).done()) return false;
  *attempt = static_cast<int>(a);
  return true;
}

bool is_quit(std::string_view line) { return line == "Q"; }

bool parse_begin(std::string_view line, std::uint64_t* task_index) {
  return RecordReader(line).tag("B").u64(task_index).done();
}

bool parse_result(std::string_view line, WireResult* r) {
  RecordReader reader(line);
  std::uint64_t finished = 0;
  reader.tag("R").u64(&r->task_index).u64(&finished, 1).hex(&r->digest);
  for (double& v : r->values) reader.f64(&v);
  r->finished = finished == 1;
  return reader.done();
}

bool parse_failure(std::string_view line, WireFailure* f) {
  return RecordReader(line).tag("F").u64(&f->task_index).text(&f->error).done();
}

bool parse_heartbeat(std::string_view line, WireHeartbeat* h) {
  return RecordReader(line).tag("H").u64(&h->beat).u64(&h->trace_events).hex(&h->trace_digest)
      .done();
}

}  // namespace vafs::supervise
