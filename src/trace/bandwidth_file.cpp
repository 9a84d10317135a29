#include "trace/bandwidth_file.h"

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>

namespace vafs::trace {

bool load_bandwidth_trace(std::istream& in, std::vector<net::TraceBandwidth::Step>* steps,
                          std::string* error) {
  steps->clear();
  std::string line;
  int line_no = 0;
  auto fail = [&](const std::string& what) {
    if (error != nullptr) *error = "line " + std::to_string(line_no) + ": " + what;
    return false;
  };

  double prev_t_s = 0.0;
  while (std::getline(in, line)) {
    ++line_no;
    const std::size_t hash = line.find('#');
    if (hash != std::string::npos) line.resize(hash);
    std::istringstream fields(line);
    std::string time_field;
    if (!(fields >> time_field)) continue;  // blank or comment-only line
    char* end = nullptr;
    const double t_s = std::strtod(time_field.c_str(), &end);
    if (end != time_field.c_str() + time_field.size() || !std::isfinite(t_s)) {
      return fail("time is not a number");
    }
    double mbps = 0.0;
    if (!(fields >> mbps)) return fail("expected 'TIME_S MBPS'");
    std::string extra;
    if (fields >> extra) return fail("trailing garbage '" + extra + "'");
    if (mbps < 0) return fail("negative bandwidth");
    if (t_s < 0) return fail("negative time");
    // Refused before the conversion, which overflows at 2^63 µs. The bound
    // is 2^62 µs because TraceBandwidth's loop period runs one more step
    // past the last time, up to twice it, and must still fit SimTime.
    if (t_s * 1e6 >= 0x1p62) return fail("time out of range");

    const sim::SimTime at = sim::SimTime::seconds_f(t_s);
    if (steps->empty()) {
      if (!at.is_zero()) return fail("trace must start at time 0");
    } else if (t_s <= prev_t_s) {
      return fail("times must be strictly increasing");
    } else if (at == steps->back().at) {
      return fail("time step below the 1 µs resolution");
    }
    prev_t_s = t_s;
    steps->push_back({at, mbps});
  }
  if (steps->empty()) {
    line_no = 0;
    return fail("empty trace");
  }
  return true;
}

bool load_bandwidth_trace_file(const std::string& path,
                               std::vector<net::TraceBandwidth::Step>* steps,
                               std::string* error) {
  std::ifstream in(path);
  if (!in) {
    if (error != nullptr) *error = "cannot open " + path;
    return false;
  }
  if (!load_bandwidth_trace(in, steps, error)) {
    if (error != nullptr) *error = path + ": " + *error;
    return false;
  }
  return true;
}

void save_bandwidth_trace(std::ostream& out,
                          const std::vector<net::TraceBandwidth::Step>& steps) {
  out << "# bandwidth trace: TIME_SECONDS MBPS\n";
  char buf[64];
  for (const auto& step : steps) {
    std::snprintf(buf, sizeof(buf), "%.6f %.4f\n", step.at.as_seconds_f(), step.mbps);
    out << buf;
  }
}

bool save_bandwidth_trace_file(const std::string& path,
                               const std::vector<net::TraceBandwidth::Step>& steps,
                               std::string* error) {
  std::ofstream out(path);
  if (!out) {
    if (error != nullptr) *error = "cannot open " + path + " for writing";
    return false;
  }
  save_bandwidth_trace(out, steps);
  return true;
}

std::vector<net::TraceBandwidth::Step> generate_markov_trace(
    const net::MarkovBandwidth::Params& params, sim::Rng rng, sim::SimTime duration) {
  net::MarkovBandwidth process(params, rng);
  std::vector<net::TraceBandwidth::Step> steps;
  sim::SimTime t = sim::SimTime::zero();
  while (t < duration) {
    steps.push_back({t, process.current_mbps(t)});
    t = process.next_change(t);
  }
  return steps;
}

}  // namespace vafs::trace
