// Trace exporters: Chrome trace_event JSON (loadable in Perfetto /
// chrome://tracing), long-format CSV timelines for tools/plot_timeline.py,
// digest formatting helpers for the artifact sinks and the one JSON string
// quoter.
#pragma once

#include <iosfwd>
#include <string>
#include <string_view>

#include "obs/trace.h"

namespace vafs::obs {

/// Writes the tracer's retained events and timeline series as a Chrome
/// trace_event JSON document ({"traceEvents": [...]}): one pid, one tid
/// per Track (named via metadata events), sync spans as B/E, overlappable
/// spans as async b/e keyed by their id argument, fault windows as X
/// complete events, timeline series as C counter events.
void write_chrome_trace(std::ostream& out, const Tracer& tracer,
                        std::string_view process_name = "vafs-session");

/// Writes every timeline sample as `series,t_us,value` rows (header
/// included, nothing downsampled or truncated).
void write_timeline_csv(std::ostream& out, const Timeline& timeline);

/// `text` as a quoted JSON string: quotes and backslashes escaped, \n \r \t
/// by name and every other control byte as \u00XX; other bytes pass as is.
std::string json_quote(std::string_view text);

/// Canonical artifact form of a digest: "0x" + 16 lowercase hex digits.
/// JSON numbers are doubles, so digests travel as strings.
std::string digest_hex(std::uint64_t digest);

/// Parses digest_hex output (with or without the 0x prefix). Returns false
/// on malformed input.
bool parse_digest_hex(std::string_view text, std::uint64_t* out);

}  // namespace vafs::obs
