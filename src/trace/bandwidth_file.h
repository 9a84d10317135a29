// Bandwidth trace files: load/save the step-function traces that
// net::TraceBandwidth replays, so experiments can run against recorded
// network conditions instead of synthetic processes.
//
// Format: one "TIME_SECONDS MBPS" pair per line, '#' comments and blank
// lines ignored, times strictly increasing and starting at 0. Times are
// kept in whole microseconds: two steps on the same microsecond, a time
// that is not a finite number and one past SimTime's range are refused.
#pragma once

#include <iosfwd>
#include <string>
#include <vector>

#include "net/bandwidth.h"
#include "simcore/rng.h"

namespace vafs::trace {

/// Parses a trace from a stream. On failure returns false and, when
/// `error` is non-null, a line-numbered message.
bool load_bandwidth_trace(std::istream& in, std::vector<net::TraceBandwidth::Step>* steps,
                          std::string* error = nullptr);

/// File-path convenience wrapper.
bool load_bandwidth_trace_file(const std::string& path,
                               std::vector<net::TraceBandwidth::Step>* steps,
                               std::string* error = nullptr);

/// Writes a trace in the same format (with a header comment).
void save_bandwidth_trace(std::ostream& out,
                          const std::vector<net::TraceBandwidth::Step>& steps);

bool save_bandwidth_trace_file(const std::string& path,
                               const std::vector<net::TraceBandwidth::Step>& steps,
                               std::string* error = nullptr);

/// Samples a Markov bandwidth process into a step trace of the given
/// duration — the generator used to ship reproducible "recorded" traces.
std::vector<net::TraceBandwidth::Step> generate_markov_trace(
    const net::MarkovBandwidth::Params& params, sim::Rng rng, sim::SimTime duration);

}  // namespace vafs::trace
