#include "obs/export.h"

#include <cctype>
#include <cinttypes>
#include <cstdio>
#include <ostream>

namespace vafs::obs {
namespace {

void write_double(std::ostream& out, double value) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.10g", value);
  out << buf;
}

void write_args(std::ostream& out, const EventInfo& info, const TraceEvent& ev) {
  out << "\"args\":{";
  bool first = true;
  const auto arg = [&](const char* name, std::uint64_t value) {
    if (name == nullptr) return;
    if (!first) out << ',';
    first = false;
    out << json_quote(name);
    out << ':' << value;
  };
  arg(info.arg_a, ev.a);
  arg(info.arg_b, ev.b);
  arg(info.arg_c, ev.c);
  out << '}';
}

/// Async span pairing id. Attempts nest inside their fetch span and reuse
/// the job id in arg a, so they are disambiguated with the attempt ordinal.
std::uint64_t async_id(const TraceEvent& ev) {
  if (ev.kind == EventKind::kAttemptBegin || ev.kind == EventKind::kAttemptEnd) {
    return (ev.a << 20) | (ev.b & 0xFFFFF);
  }
  return ev.a;
}

}  // namespace

void write_chrome_trace(std::ostream& out, const Tracer& tracer,
                        std::string_view process_name) {
  out << "{\"traceEvents\":[\n";
  bool first = true;
  const auto sep = [&] {
    if (!first) out << ",\n";
    first = false;
  };

  // Metadata: one pid, one named tid per track.
  sep();
  out << "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":1,\"tid\":0,\"args\":{\"name\":";
  out << json_quote(process_name);
  out << "}}";
  for (std::size_t t = 0; t < kTrackCount; ++t) {
    sep();
    out << "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":" << t
        << ",\"args\":{\"name\":";
    out << json_quote(track_name(static_cast<Track>(t)));
    out << "}}";
    sep();
    out << "{\"name\":\"thread_sort_index\",\"ph\":\"M\",\"pid\":1,\"tid\":" << t
        << ",\"args\":{\"sort_index\":" << t << "}}";
  }

  for (std::size_t i = 0; i < tracer.size(); ++i) {
    const TraceEvent& ev = tracer.event(i);
    const EventInfo& info = event_info(ev.kind);
    const auto tid = static_cast<unsigned>(info.track);
    sep();
    out << "{\"name\":";
    out << json_quote(info.name);
    out << ",\"pid\":1,\"tid\":" << tid << ",\"ts\":" << ev.t_us;
    switch (info.phase) {
      case Phase::kInstant:
        out << ",\"ph\":\"i\",\"s\":\"t\",";
        break;
      case Phase::kBegin:
        out << ",\"ph\":\"B\",";
        break;
      case Phase::kEnd:
        out << ",\"ph\":\"E\",";
        break;
      case Phase::kAsyncBegin:
        out << ",\"ph\":\"b\",\"cat\":";
        out << json_quote(info.name);
        out << ",\"id\":" << async_id(ev) << ',';
        break;
      case Phase::kAsyncEnd:
        out << ",\"ph\":\"e\",\"cat\":";
        out << json_quote(info.name);
        out << ",\"id\":" << async_id(ev) << ',';
        break;
      case Phase::kComplete:
        out << ",\"ph\":\"X\",\"dur\":" << ev.b << ',';
        break;
    }
    write_args(out, info, ev);
    out << '}';
  }

  // Timeline series as counter tracks.
  for (std::size_t s = 0; s < kSeriesCount; ++s) {
    const auto id = static_cast<SeriesId>(s);
    const Series& series = tracer.timeline().at(id);
    for (const Sample& sample : series.samples()) {
      sep();
      out << "{\"name\":";
      out << json_quote(series_name(id));
      out << ",\"ph\":\"C\",\"pid\":1,\"tid\":0,\"ts\":" << sample.t_us << ",\"args\":{";
      out << json_quote(series_unit(id));
      out << ':';
      write_double(out, sample.value);
      out << "}}";
    }
  }

  out << "\n]}\n";
}

void write_timeline_csv(std::ostream& out, const Timeline& timeline) {
  out << "series,t_us,value\n";
  for (std::size_t s = 0; s < kSeriesCount; ++s) {
    const auto id = static_cast<SeriesId>(s);
    const char* name = series_name(id);
    for (const Sample& sample : timeline.at(id).samples()) {
      char buf[40];
      std::snprintf(buf, sizeof(buf), "%.10g", sample.value);
      out << name << ',' << sample.t_us << ',' << buf << '\n';
    }
  }
}

std::string json_quote(std::string_view text) {
  std::string out = "\"";
  for (const char c : text) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", static_cast<unsigned>(c));
          out += buf;
        } else {
          out += c;
        }
    }
  }
  out += '"';
  return out;
}

std::string digest_hex(std::uint64_t digest) {
  char buf[24];
  std::snprintf(buf, sizeof(buf), "0x%016" PRIx64, digest);
  return buf;
}

bool parse_digest_hex(std::string_view text, std::uint64_t* out) {
  if (text.size() >= 2 && text[0] == '0' && (text[1] == 'x' || text[1] == 'X')) {
    text.remove_prefix(2);
  }
  if (text.empty() || text.size() > 16) return false;
  std::uint64_t value = 0;
  for (char ch : text) {
    value <<= 4;
    if (ch >= '0' && ch <= '9') {
      value |= static_cast<std::uint64_t>(ch - '0');
    } else if (ch >= 'a' && ch <= 'f') {
      value |= static_cast<std::uint64_t>(ch - 'a' + 10);
    } else if (ch >= 'A' && ch <= 'F') {
      value |= static_cast<std::uint64_t>(ch - 'A' + 10);
    } else {
      return false;
    }
  }
  *out = value;
  return true;
}

}  // namespace vafs::obs
