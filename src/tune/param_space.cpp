#include "tune/param_space.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "exp/json.h"
#include "simcore/fnv.h"
#include "simcore/rng.h"

namespace vafs::tune {
namespace {

std::string integer_text(double v) { return std::to_string(std::llround(v)); }

/// Replaces (or appends) one sysfs tunable in cfg.governor_tunables so
/// repeated applications of a candidate stay idempotent.
void set_tunable(core::SessionConfig& cfg, const std::string& rel_path, std::string value) {
  for (auto& [path, val] : cfg.governor_tunables) {
    if (path == rel_path) {
      val = std::move(value);
      return;
    }
  }
  cfg.governor_tunables.emplace_back(rel_path, std::move(value));
}

struct Knob {
  const char* name;
  void (*apply)(core::SessionConfig& cfg, double v);
};

/// The tunable surface. VAFS knobs write VafsConfig directly; sampling
/// governor knobs go through SessionConfig::governor_tunables so they are
/// applied via the real sysfs store hooks (validation included).
const Knob kKnobs[] = {
    {"safety_margin", [](core::SessionConfig& c, double v) { c.vafs.safety_margin = v; }},
    {"startup_margin", [](core::SessionConfig& c, double v) { c.vafs.startup_margin = v; }},
    {"predictor_window",
     [](core::SessionConfig& c, double v) {
       c.vafs.predictor.window = static_cast<std::size_t>(std::llround(v));
     }},
    {"ewma_alpha", [](core::SessionConfig& c, double v) { c.vafs.predictor.ewma_alpha = v; }},
    {"quantile", [](core::SessionConfig& c, double v) { c.vafs.predictor.quantile = v; }},
    {"boost_ms",
     [](core::SessionConfig& c, double v) {
       c.vafs.boost_duration = sim::SimTime::millis(std::llround(v));
     }},
    {"low_ahead_frames",
     [](core::SessionConfig& c, double v) {
       c.vafs.low_ahead_frames = static_cast<std::uint64_t>(std::llround(v));
     }},
    {"min_observations",
     [](core::SessionConfig& c, double v) {
       c.vafs.min_observations = static_cast<std::size_t>(std::llround(v));
     }},
    {"cold_start_fraction",
     [](core::SessionConfig& c, double v) { c.vafs.cold_start_fraction = v; }},
    {"watchdog_miss_threshold",
     [](core::SessionConfig& c, double v) {
       c.vafs.watchdog.miss_threshold = static_cast<std::uint32_t>(std::llround(v));
     }},
    {"watchdog_write_error_threshold",
     [](core::SessionConfig& c, double v) {
       c.vafs.watchdog.write_error_threshold = static_cast<std::uint32_t>(std::llround(v));
     }},
    {"watchdog_hysteresis_s",
     [](core::SessionConfig& c, double v) {
       c.vafs.watchdog.hysteresis = sim::SimTime::seconds_f(v);
     }},
    {"ondemand.sampling_rate_us",
     [](core::SessionConfig& c, double v) {
       set_tunable(c, "ondemand/sampling_rate", integer_text(v));
     }},
    {"ondemand.up_threshold",
     [](core::SessionConfig& c, double v) {
       set_tunable(c, "ondemand/up_threshold", integer_text(v));
     }},
    {"ondemand.sampling_down_factor",
     [](core::SessionConfig& c, double v) {
       set_tunable(c, "ondemand/sampling_down_factor", integer_text(v));
     }},
    {"ondemand.powersave_bias",
     [](core::SessionConfig& c, double v) {
       set_tunable(c, "ondemand/powersave_bias", integer_text(v));
     }},
    {"conservative.up_threshold",
     [](core::SessionConfig& c, double v) {
       set_tunable(c, "conservative/up_threshold", integer_text(v));
     }},
    {"conservative.down_threshold",
     [](core::SessionConfig& c, double v) {
       set_tunable(c, "conservative/down_threshold", integer_text(v));
     }},
    {"conservative.freq_step_pct",
     [](core::SessionConfig& c, double v) {
       set_tunable(c, "conservative/freq_step", integer_text(v));
     }},
};

const Knob* find_knob(const std::string& name) {
  for (const Knob& k : kKnobs) {
    if (name == k.name) return &k;
  }
  return nullptr;
}

}  // namespace

std::uint32_t ParamDef::count() const {
  if (lo == hi) return 1;
  // step > 0 was validated at dim(); the small epsilon keeps an exactly
  // representable hi (lo + k*step) on the grid despite division rounding.
  const double span = (hi - lo) / step;
  const auto n = static_cast<std::uint32_t>(span * (1.0 + 1e-12));
  return n + 1;
}

double ParamDef::value(std::uint32_t i) const { return lo + static_cast<double>(i) * step; }

ParamSpace& ParamSpace::dim(const std::string& name, double lo, double hi, double step) {
  const auto reject = [&](const std::string& why) {
    throw std::invalid_argument("ParamSpace: dimension '" + name + "': " + why);
  };
  if (find_knob(name) == nullptr) {
    throw std::invalid_argument("ParamSpace: unknown knob '" + name + "'");
  }
  for (const ParamDef& d : defs_) {
    if (d.name == name) reject("duplicate dimension");
  }
  if (!std::isfinite(lo) || !std::isfinite(hi) || !std::isfinite(step)) {
    reject("non-finite bounds/step");
  }
  if (lo > hi) reject("inverted range (lo > hi)");
  if (lo < hi && step <= 0.0) reject("step must be > 0 on a non-degenerate range");
  ParamDef def{name, lo, hi, lo == hi ? 0.0 : step};
  if (lo < hi) {
    // Reject absurdly fine grids before count() would overflow: the
    // span/step ratio is checked in floating point, so a subnormal step
    // cannot push the index range past kMaxPointsPerDim.
    const double span = (hi - lo) / step;
    if (!(span < static_cast<double>(kMaxPointsPerDim))) {
      reject("grid wider than kMaxPointsPerDim points");
    }
  }
  defs_.push_back(std::move(def));
  return *this;
}

std::uint64_t ParamSpace::point_count() const {
  std::uint64_t total = 1;
  for (const ParamDef& d : defs_) {
    const std::uint64_t n = d.count();
    if (total > UINT64_MAX / n) return UINT64_MAX;
    total *= n;
  }
  return total;
}

std::vector<double> ParamSpace::values(const Candidate& c) const {
  if (c.size() != defs_.size()) {
    throw std::out_of_range("ParamSpace: candidate arity " + std::to_string(c.size()) +
                            " != dims " + std::to_string(defs_.size()));
  }
  std::vector<double> out(defs_.size());
  for (std::size_t d = 0; d < defs_.size(); ++d) {
    if (c[d] >= defs_[d].count()) {
      throw std::out_of_range("ParamSpace: index " + std::to_string(c[d]) + " out of range for '" +
                              defs_[d].name + "' (count " + std::to_string(defs_[d].count()) + ")");
    }
    out[d] = defs_[d].value(c[d]);
  }
  return out;
}

void ParamSpace::apply(const Candidate& c, core::SessionConfig& cfg) const {
  const std::vector<double> vals = values(c);  // bounds-checked
  for (std::size_t d = 0; d < defs_.size(); ++d) {
    find_knob(defs_[d].name)->apply(cfg, vals[d]);
  }
}

std::string ParamSpace::format(const Candidate& c) const {
  const std::vector<double> vals = values(c);
  std::string out;
  for (std::size_t d = 0; d < defs_.size(); ++d) {
    if (d > 0) out += ' ';
    out += defs_[d].name;
    out += '=';
    out += exp::json_number(vals[d]);
  }
  return out;
}

std::uint64_t ParamSpace::fingerprint() const {
  std::uint64_t h = sim::kFnvOffset;
  for (const ParamDef& d : defs_) {
    h = sim::fnv1a(h, d.name);
    h = sim::fnv1a_f64(h, d.lo);
    h = sim::fnv1a_f64(h, d.hi);
    h = sim::fnv1a_f64(h, d.step);
  }
  return h;
}

bool apply_knob(const std::string& name, double value, core::SessionConfig& cfg) {
  const Knob* k = find_knob(name);
  if (k == nullptr) return false;
  k->apply(cfg, value);
  return true;
}

std::vector<std::string> ParamSpace::knob_names() {
  std::vector<std::string> names;
  for (const Knob& k : kKnobs) names.emplace_back(k.name);
  std::sort(names.begin(), names.end());
  return names;
}

std::uint32_t TunerRng::pick(std::uint64_t k, std::uint32_t n) const {
  // mix_stream is a bijective hash of (seed, k); the multiply-high maps
  // it to [0, n) without modulo bias worth caring about at n <= 2^20.
  const std::uint64_t bits = sim::mix_stream(seed_, 0x7A11E5ULL, k);
  return static_cast<std::uint32_t>((static_cast<unsigned __int128>(bits) * n) >> 64);
}

}  // namespace vafs::tune
