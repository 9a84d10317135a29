#include "fleet/checkpoint.h"

#include <limits>

#include "fleet/io.h"
#include "fleet/record.h"

namespace vafs::fleet {
namespace {

std::string serialize(const CheckpointState& state) {
  const auto& metrics = exp::Aggregate::metrics();
  std::string out;
  RecordWriter(out, "vafs-fleet-checkpoint").u64(kCheckpointSchema).end();
  RecordWriter(out, "fingerprint").hex(state.fingerprint).end();
  RecordWriter(out, "shards_done").u64(state.shards_done).end();
  RecordWriter(out, "tasks_done").u64(state.tasks_done).end();
  RecordWriter(out, "digest_chain").hex(state.digest_chain).end();
  RecordWriter(out, "spool_offset").u64(state.spool_offset).end();
  RecordWriter(out, "quarantine_offset").u64(state.quarantine_offset).end();
  RecordWriter(out, "scenarios").u64(state.aggregates.size()).end();
  for (std::size_t s = 0; s < state.aggregates.size(); ++s) {
    const exp::Aggregate& agg = state.aggregates[s];
    RecordWriter(out, "scenario").u64(s).word("runs").u64(static_cast<std::uint64_t>(agg.runs))
        .word("finished").u64(agg.all_finished ? 1 : 0).end();
    for (std::size_t m = 0; m < metrics.size(); ++m) {
      const sim::OnlineStats::State st = (agg.*metrics[m].member).state();
      RecordWriter(out, "m").u64(m).u64(st.n).f64(st.mean).f64(st.m2).f64(st.min).f64(st.max)
          .end();
    }
  }
  RecordWriter(out, "failures").u64(state.failures.size()).end();
  for (const CheckpointFailure& f : state.failures) {
    RecordWriter(out, "failure").u64(f.task_index).u64(f.seed).text(f.message).end();
  }
  RecordWriter(out, "quarantined").u64(state.quarantined.size()).end();
  for (const CheckpointQuarantine& q : state.quarantined) {
    RecordWriter(out, "quarantine").u64(q.task_index).u64(q.seed).u64(q.attempts).text(q.fates)
        .text(q.stderr_tail).u64(q.last_trace_events).hex(q.last_trace_digest).end();
  }
  return out;
}

}  // namespace

bool write_checkpoint(const std::string& path, const CheckpointState& state, std::string* error) {
  return write_sealed(path, serialize(state), "checkpoint", "manifest", error);
}

bool read_checkpoint(const std::string& path, CheckpointState* state, std::string* error) {
  // Integrity first: read_sealed refuses a truncated or corrupt file before
  // a single field is interpreted.
  std::string content;
  if (!read_sealed(path, "checkpoint", &content, error)) return false;
  const auto fail = [&](const std::string& why) {
    *error = "checkpoint '" + path + "': " + why;
    return false;
  };

  std::string_view body = content;
  std::string_view schema;
  if (!next_record(&body).tag("vafs-fleet-checkpoint").word(&schema).done()) {
    return fail("not a fleet checkpoint manifest");
  }
  if (schema != std::to_string(kCheckpointSchema)) {
    return fail("unsupported schema '" + std::string(schema) + "' (want " +
                std::to_string(kCheckpointSchema) + ")");
  }

  // Counts are not trusted: each record is appended as its line is read,
  // so a count past the lines that follow is refused at the first missing
  // line instead of being allocated up front.
  CheckpointState cs;
  std::uint64_t scenarios = 0;
  const auto field = [&](const char* name, std::uint64_t* out, bool hex) {
    RecordReader r = next_record(&body).tag(name);
    return (hex ? r.hex(out) : r.u64(out)).done() || fail("bad " + std::string(name) + " line");
  };
  if (!field("fingerprint", &cs.fingerprint, true) ||
      !field("shards_done", &cs.shards_done, false) ||
      !field("tasks_done", &cs.tasks_done, false) ||
      !field("digest_chain", &cs.digest_chain, true) ||
      !field("spool_offset", &cs.spool_offset, false) ||
      !field("quarantine_offset", &cs.quarantine_offset, false) ||
      !field("scenarios", &scenarios, false)) {
    return false;
  }

  const auto& metrics = exp::Aggregate::metrics();
  for (std::uint64_t s = 0; s < scenarios; ++s) {
    std::uint64_t index = 0;
    std::uint64_t runs = 0;
    std::uint64_t finished = 0;
    if (!next_record(&body).tag("scenario").u64(&index).tag("runs")
             .u64(&runs, std::numeric_limits<int>::max()).tag("finished").u64(&finished, 1)
             .done() ||
        index != s) {
      return fail("bad scenario line " + std::to_string(s));
    }
    exp::Aggregate& agg = cs.aggregates.emplace_back();
    agg.runs = static_cast<int>(runs);
    agg.all_finished = finished == 1;
    for (std::size_t m = 0; m < metrics.size(); ++m) {
      sim::OnlineStats::State st;
      if (!next_record(&body).tag("m").u64(&index).u64(&st.n).f64(&st.mean).f64(&st.m2)
               .f64(&st.min).f64(&st.max).done() ||
          index != m) {
        return fail("bad metric line " + std::to_string(m) + " in scenario " + std::to_string(s));
      }
      agg.*metrics[m].member = sim::OnlineStats::from_state(st);
    }
  }

  std::uint64_t failures = 0;
  if (!field("failures", &failures, false)) return false;
  for (std::uint64_t f = 0; f < failures; ++f) {
    CheckpointFailure& cf = cs.failures.emplace_back();
    if (!next_record(&body).tag("failure").u64(&cf.task_index).u64(&cf.seed).text(&cf.message)
             .done()) {
      return fail("bad failure line " + std::to_string(f));
    }
  }

  std::uint64_t quarantined = 0;
  if (!field("quarantined", &quarantined, false)) return false;
  for (std::uint64_t q = 0; q < quarantined; ++q) {
    CheckpointQuarantine& cq = cs.quarantined.emplace_back();
    if (!next_record(&body).tag("quarantine").u64(&cq.task_index).u64(&cq.seed)
             .u64(&cq.attempts).text(&cq.fates).text(&cq.stderr_tail)
             .u64(&cq.last_trace_events).hex(&cq.last_trace_digest).done()) {
      return fail("bad quarantine line " + std::to_string(q));
    }
  }
  if (!body.empty()) return fail("trailing content after quarantine list");

  *state = std::move(cs);
  return true;
}

}  // namespace vafs::fleet
