#include "fleet/checkpoint.h"

#include <bit>
#include <fstream>
#include <sstream>

#include "fleet/io.h"
#include "fleet/textio.h"
#include "simcore/parse.h"
#include "simcore/stats.h"

namespace vafs::fleet {
namespace {

using sim::parse_u64;

constexpr std::uint64_t kFnvOffset = 0xCBF29CE484222325ULL;
constexpr std::uint64_t kFnvPrime = 0x100000001B3ULL;

std::uint64_t checksum(const char* data, std::size_t n) {
  std::uint64_t h = kFnvOffset;
  for (std::size_t i = 0; i < n; ++i) {
    h ^= static_cast<unsigned char>(data[i]);
    h *= kFnvPrime;
  }
  return h;
}

/// Reads one line and tokenizes on single spaces. Returns false at EOF.
bool next_line(std::istringstream& in, std::vector<std::string>* tokens) {
  std::string line;
  if (!std::getline(in, line)) return false;
  split_fields(line, tokens);
  return true;
}

std::string serialize(const CheckpointState& state) {
  const auto& metrics = exp::Aggregate::metrics();
  std::string out;
  out += "vafs-fleet-checkpoint " + std::to_string(kCheckpointSchema) + "\n";
  const auto field = [&out](const char* name, std::uint64_t v, bool hex) {
    out += name;
    out += ' ';
    if (hex) {
      append_hex64(out, v);
    } else {
      out += std::to_string(v);
    }
    out += '\n';
  };
  field("fingerprint", state.fingerprint, true);
  field("shards_done", state.shards_done, false);
  field("tasks_done", state.tasks_done, false);
  field("digest_chain", state.digest_chain, true);
  field("spool_offset", state.spool_offset, false);
  field("quarantine_offset", state.quarantine_offset, false);
  field("scenarios", state.aggregates.size(), false);
  for (std::size_t s = 0; s < state.aggregates.size(); ++s) {
    const exp::Aggregate& agg = state.aggregates[s];
    out += "scenario " + std::to_string(s) + " runs " + std::to_string(agg.runs) +
           " finished " + (agg.all_finished ? std::string("1") : std::string("0")) + "\n";
    for (std::size_t m = 0; m < metrics.size(); ++m) {
      const sim::OnlineStats::State st = (agg.*metrics[m].member).state();
      out += "m " + std::to_string(m) + ' ' + std::to_string(st.n) + ' ';
      append_hex64(out, std::bit_cast<std::uint64_t>(st.mean));
      out += ' ';
      append_hex64(out, std::bit_cast<std::uint64_t>(st.m2));
      out += ' ';
      append_hex64(out, std::bit_cast<std::uint64_t>(st.min));
      out += ' ';
      append_hex64(out, std::bit_cast<std::uint64_t>(st.max));
      out += '\n';
    }
  }
  field("failures", state.failures.size(), false);
  for (const CheckpointFailure& f : state.failures) {
    out += "failure " + std::to_string(f.task_index) + ' ' + std::to_string(f.seed) + ' ' +
           hex_encode(f.message) + "\n";
  }
  field("quarantined", state.quarantined.size(), false);
  for (const CheckpointQuarantine& q : state.quarantined) {
    out += "quarantine " + std::to_string(q.task_index) + ' ' + std::to_string(q.seed) + ' ' +
           std::to_string(q.attempts) + ' ' + hex_encode(q.fates) + ' ' +
           hex_encode(q.stderr_tail) + ' ' + std::to_string(q.last_trace_events) + ' ';
    append_hex64(out, q.last_trace_digest);
    out += '\n';
  }
  out += "end ";
  append_hex64(out, checksum(out.data(), out.size()));
  out += '\n';
  return out;
}

}  // namespace

bool write_checkpoint(const std::string& path, const CheckpointState& state, std::string* error) {
  return write_file_durable(path, serialize(state), "checkpoint", "manifest", error);
}

bool read_checkpoint(const std::string& path, CheckpointState* state, std::string* error) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    *error = "checkpoint: cannot open '" + path + "'";
    return false;
  }
  std::ostringstream buffer;
  buffer << in.rdbuf();
  const std::string content = buffer.str();

  // Integrity first: the file must end with "end <hex64>\n" whose digest
  // covers every byte before that line. Anything else is truncation or
  // corruption — reject before interpreting a single field.
  const auto fail = [&](const std::string& why) {
    *error = "checkpoint '" + path + "': " + why;
    return false;
  };
  if (content.empty() || content.back() != '\n') {
    return fail("truncated (no terminating end line)");
  }
  const std::size_t last_line_start = content.rfind('\n', content.size() - 2) + 1;
  const std::string last_line = content.substr(last_line_start, content.size() - last_line_start - 1);
  std::uint64_t stated = 0;
  if (last_line.size() != 4 + 16 || last_line.compare(0, 4, "end ") != 0 ||
      !parse_hex64(last_line.substr(4), &stated)) {
    return fail("truncated (malformed end line)");
  }
  // The end line's own "end " prefix is inside the checksummed region —
  // serialize() folds it before appending the digest.
  const std::uint64_t computed = checksum(content.data(), last_line_start + 4);
  if (computed != stated) {
    return fail("corrupt (checksum mismatch: file may be truncated or bit-flipped)");
  }

  std::istringstream lines(content.substr(0, last_line_start));
  std::vector<std::string> t;
  const auto expect_field = [&](const char* name, std::uint64_t* out, bool hex) {
    if (!next_line(lines, &t) || t.size() != 2 || t[0] != name) return false;
    return hex ? parse_hex64(t[1], out) : parse_u64(t[1], out);
  };

  if (!next_line(lines, &t) || t.size() != 2 || t[0] != "vafs-fleet-checkpoint") {
    return fail("not a fleet checkpoint manifest");
  }
  std::uint64_t schema = 0;
  if (!parse_u64(t[1], &schema) || schema != static_cast<std::uint64_t>(kCheckpointSchema)) {
    return fail("unsupported schema '" + t[1] + "' (want " + std::to_string(kCheckpointSchema) +
                ")");
  }

  CheckpointState cs;
  std::uint64_t scenario_count = 0;
  if (!expect_field("fingerprint", &cs.fingerprint, true)) return fail("bad fingerprint line");
  if (!expect_field("shards_done", &cs.shards_done, false)) return fail("bad shards_done line");
  if (!expect_field("tasks_done", &cs.tasks_done, false)) return fail("bad tasks_done line");
  if (!expect_field("digest_chain", &cs.digest_chain, true)) return fail("bad digest_chain line");
  if (!expect_field("spool_offset", &cs.spool_offset, false)) return fail("bad spool_offset line");
  if (!expect_field("quarantine_offset", &cs.quarantine_offset, false)) {
    return fail("bad quarantine_offset line");
  }
  if (!expect_field("scenarios", &scenario_count, false)) return fail("bad scenarios line");

  const auto& metrics = exp::Aggregate::metrics();
  cs.aggregates.resize(scenario_count);
  for (std::uint64_t s = 0; s < scenario_count; ++s) {
    std::uint64_t index = 0;
    std::uint64_t runs = 0;
    std::uint64_t finished = 0;
    if (!next_line(lines, &t) || t.size() != 6 || t[0] != "scenario" ||
        !parse_u64(t[1], &index) || index != s || t[2] != "runs" || !parse_u64(t[3], &runs) ||
        t[4] != "finished" || !parse_u64(t[5], &finished) || finished > 1) {
      return fail("bad scenario header for scenario " + std::to_string(s));
    }
    exp::Aggregate& agg = cs.aggregates[s];
    agg.runs = static_cast<int>(runs);
    agg.all_finished = finished == 1;
    for (std::size_t m = 0; m < metrics.size(); ++m) {
      std::uint64_t mi = 0;
      sim::OnlineStats::State st;
      std::uint64_t mean_bits = 0;
      std::uint64_t m2_bits = 0;
      std::uint64_t min_bits = 0;
      std::uint64_t max_bits = 0;
      if (!next_line(lines, &t) || t.size() != 7 || t[0] != "m" || !parse_u64(t[1], &mi) ||
          mi != m || !parse_u64(t[2], &st.n) || !parse_hex64(t[3], &mean_bits) ||
          !parse_hex64(t[4], &m2_bits) || !parse_hex64(t[5], &min_bits) ||
          !parse_hex64(t[6], &max_bits)) {
        return fail("bad metric line " + std::to_string(m) + " in scenario " + std::to_string(s));
      }
      st.mean = std::bit_cast<double>(mean_bits);
      st.m2 = std::bit_cast<double>(m2_bits);
      st.min = std::bit_cast<double>(min_bits);
      st.max = std::bit_cast<double>(max_bits);
      agg.*metrics[m].member = sim::OnlineStats::from_state(st);
    }
  }

  std::uint64_t failure_count = 0;
  if (!expect_field("failures", &failure_count, false)) return fail("bad failures line");
  cs.failures.resize(failure_count);
  for (std::uint64_t f = 0; f < failure_count; ++f) {
    CheckpointFailure& cf = cs.failures[f];
    if (!next_line(lines, &t) || t.size() != 4 || t[0] != "failure" ||
        !parse_u64(t[1], &cf.task_index) || !parse_u64(t[2], &cf.seed) ||
        !hex_decode(t[3], &cf.message)) {
      return fail("bad failure line " + std::to_string(f));
    }
  }

  std::uint64_t quarantine_count = 0;
  if (!expect_field("quarantined", &quarantine_count, false)) return fail("bad quarantined line");
  cs.quarantined.resize(quarantine_count);
  for (std::uint64_t q = 0; q < quarantine_count; ++q) {
    CheckpointQuarantine& cq = cs.quarantined[q];
    if (!next_line(lines, &t) || t.size() != 8 || t[0] != "quarantine" ||
        !parse_u64(t[1], &cq.task_index) || !parse_u64(t[2], &cq.seed) ||
        !parse_u64(t[3], &cq.attempts) || !hex_decode(t[4], &cq.fates) ||
        !hex_decode(t[5], &cq.stderr_tail) || !parse_u64(t[6], &cq.last_trace_events) ||
        !parse_hex64(t[7], &cq.last_trace_digest)) {
      return fail("bad quarantine line " + std::to_string(q));
    }
  }
  if (next_line(lines, &t)) return fail("trailing content after quarantine list");

  *state = std::move(cs);
  return true;
}

}  // namespace vafs::fleet
