// vafs_cli — command-line session runner: the kitchen-sink entry point for
// exploring the simulator without writing code.
//
//   $ ./vafs_cli --governor vafs --rep 2 --net fair --duration 120
//   $ ./vafs_cli --governor ondemand --abr rate --net poor --seed 7
//   $ ./vafs_cli --governor vafs --big-little --thermal --csv
//   $ ./vafs_cli --trace my.bwtrace --live --segment 2
//
// Prints a human summary, or a single CSV row with --csv (header with
// --csv-header) for scripting sweeps.
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <string>

#include "core/session.h"
#include "fleet/textio.h"
#include "trace/bandwidth_file.h"

namespace {

using namespace vafs;

[[noreturn]] void usage(const char* argv0, const char* error = nullptr) {
  if (error != nullptr) std::fprintf(stderr, "error: %s\n\n", error);
  std::fprintf(stderr,
               "usage: %s [options]\n"
               "  --governor NAME    performance|powersave|ondemand|conservative|\n"
               "                     interactive|schedutil|vafs|vafs-oracle (default ondemand)\n"
               "  --rep N            fixed quality rung 0-3 (default 2 = 720p)\n"
               "  --abr KIND         fixed|rate|buffer (default fixed)\n"
               "  --net PROFILE      poor|fair|good|excellent (default fair)\n"
               "  --mbps X           constant bandwidth instead of a profile\n"
               "  --trace FILE       replay a bandwidth trace file\n"
               "  --radio TECH       lte|wifi|3g (default lte)\n"
               "  --duration SECS    media length (default 120)\n"
               "  --segment SECS     segment duration (default 4)\n"
               "  --seed N           RNG seed (default 42)\n"
               "  --live             live mode (availability-gated segments)\n"
               "  --big-little       enable the LITTLE cluster + router\n"
               "  --thermal          enable the thermal model + throttle\n"
               "  --cpuidle MODE     shallow|menu|oracle (default shallow)\n"
               "  --margin X         VAFS safety margin (default 0.15)\n"
               "  --csv              emit one CSV data row instead of the summary\n"
               "  --csv-header       emit the CSV header row and exit\n",
               argv0);
  std::exit(2);
}

const char* next_arg(int argc, char** argv, int* i, const char* flag) {
  if (*i + 1 >= argc) {
    std::fprintf(stderr, "error: %s needs a value\n", flag);
    std::exit(2);
  }
  return argv[++*i];
}

[[noreturn]] void bad_value(const char* argv0, const char* flag, const char* text,
                            const char* wanted) {
  usage(argv0, (std::string(flag) + " wants " + wanted + ", got '" + text + "'").c_str());
}

/// `text` parsed in full as a decimal integer; usage error otherwise.
std::uint64_t parse_uint(const char* argv0, const char* flag, const char* text) {
  std::uint64_t value = 0;
  if (!fleet::parse_u64(text, &value)) bad_value(argv0, flag, text, "a non-negative integer");
  return value;
}

/// `text` parsed in full as a finite number for which `ok` holds; usage
/// error otherwise.
template <typename Ok>
double parse_number(const char* argv0, const char* flag, const char* text, const char* wanted,
                    Ok ok) {
  char* end = nullptr;
  const double value = std::strtod(text, &end);
  if (end == text || *end != '\0' || !std::isfinite(value) || !ok(value)) {
    bad_value(argv0, flag, text, wanted);
  }
  return value;
}

/// A media or segment length: at least one tick of the simulator's
/// microsecond clock (a zero-length segment divides by zero) and no longer
/// than the session's simulation cap (longer media can never finish).
sim::SimTime parse_duration(const char* argv0, const char* flag, const char* text,
                            sim::SimTime cap) {
  const double max_s = cap.as_seconds_f();
  char wanted[64];
  std::snprintf(wanted, sizeof wanted, "seconds in [1e-06, %g]", max_s);
  return sim::SimTime::seconds_f(parse_number(
      argv0, flag, text, wanted, [max_s](double v) { return v >= 1e-6 && v <= max_s; }));
}

void print_csv_header() {
  std::printf("governor,rep,abr,net,radio,duration_s,segment_s,seed,live,big_little,thermal,"
              "cpuidle,cpu_mj,radio_mj,display_mj,total_mj,startup_s,rebuffer_events,"
              "rebuffer_s,drop_pct,transitions,mean_kbps,peak_temp_c,throttled_s,"
              "decode_little,finished\n");
}

}  // namespace

int main(int argc, char** argv) {
  core::SessionConfig config;
  std::string radio_name = "lte";
  bool csv = false;

  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    auto is = [&](const char* flag) { return std::strcmp(arg, flag) == 0; };
    if (is("--help") || is("-h")) usage(argv[0]);
    else if (is("--csv-header")) { print_csv_header(); return 0; }
    else if (is("--csv")) csv = true;
    else if (is("--governor")) config.governor = next_arg(argc, argv, &i, arg);
    else if (is("--rep")) {
      const char* text = next_arg(argc, argv, &i, arg);
      const std::uint64_t rep = parse_uint(argv[0], arg, text);
      if (rep > 3) bad_value(argv[0], arg, text, "a quality rung 0-3");
      config.fixed_rep = static_cast<std::size_t>(rep);
    } else if (is("--seed")) {
      config.seed = parse_uint(argv[0], arg, next_arg(argc, argv, &i, arg));
    } else if (is("--duration")) {
      config.media_duration =
          parse_duration(argv[0], arg, next_arg(argc, argv, &i, arg), config.sim_cap);
    } else if (is("--segment")) {
      config.segment_duration =
          parse_duration(argv[0], arg, next_arg(argc, argv, &i, arg), config.sim_cap);
    } else if (is("--mbps")) {
      config.net = core::NetProfile::kConstant;
      config.constant_mbps = parse_number(argv[0], arg, next_arg(argc, argv, &i, arg),
                                          "a finite number > 0", [](double v) { return v > 0; });
    } else if (is("--margin")) {
      config.vafs.safety_margin = parse_number(argv[0], arg, next_arg(argc, argv, &i, arg),
                                               "a finite number >= 0",
                                               [](double v) { return v >= 0; });
    } else if (is("--net")) {
      const std::string v = next_arg(argc, argv, &i, arg);
      if (v == "poor") config.net = core::NetProfile::kPoor;
      else if (v == "fair") config.net = core::NetProfile::kFair;
      else if (v == "good") config.net = core::NetProfile::kGood;
      else if (v == "excellent") config.net = core::NetProfile::kExcellent;
      else usage(argv[0], "unknown --net profile");
    } else if (is("--trace")) {
      std::string error;
      if (!trace::load_bandwidth_trace_file(next_arg(argc, argv, &i, arg), &config.trace,
                                            &error)) {
        std::fprintf(stderr, "error: %s\n", error.c_str());
        return 1;
      }
      config.net = core::NetProfile::kTrace;
    } else if (is("--abr")) {
      const std::string v = next_arg(argc, argv, &i, arg);
      if (v == "fixed") config.abr = core::AbrKind::kFixed;
      else if (v == "rate") config.abr = core::AbrKind::kRate;
      else if (v == "buffer") config.abr = core::AbrKind::kBuffer;
      else usage(argv[0], "unknown --abr kind");
    } else if (is("--radio")) {
      radio_name = next_arg(argc, argv, &i, arg);
      if (radio_name == "lte") config.radio = net::RadioParams::lte();
      else if (radio_name == "wifi") config.radio = net::RadioParams::wifi();
      else if (radio_name == "3g") config.radio = net::RadioParams::umts_3g();
      else usage(argv[0], "unknown --radio tech");
    } else if (is("--cpuidle")) {
      const std::string v = next_arg(argc, argv, &i, arg);
      if (v == "shallow") config.cpuidle = cpu::CpuidleStrategy::kShallowOnly;
      else if (v == "menu") config.cpuidle = cpu::CpuidleStrategy::kMenu;
      else if (v == "oracle") config.cpuidle = cpu::CpuidleStrategy::kOracle;
      else usage(argv[0], "unknown --cpuidle mode");
    } else if (is("--live")) {
      config.player.live = true;
      config.player.startup_buffer = sim::SimTime::seconds(2);
      config.player.buffer_target = sim::SimTime::seconds(6);
    } else if (is("--big-little")) {
      config.big_little = true;
    } else if (is("--thermal")) {
      config.thermal_enabled = true;
    } else {
      usage(argv[0], (std::string("unknown option ") + arg).c_str());
    }
  }
  core::SessionResult r;
  try {
    r = core::run_session(config);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }

  if (csv) {
    std::printf("%s,%zu,%s,%s,%s,%.1f,%.1f,%llu,%d,%d,%d,%s,%.2f,%.2f,%.2f,%.2f,%.3f,%llu,"
                "%.2f,%.3f,%llu,%.0f,%.1f,%.1f,%llu,%d\n",
                config.governor.c_str(), config.fixed_rep, core::abr_kind_name(config.abr),
                core::net_profile_name(config.net), radio_name.c_str(),
                config.media_duration.as_seconds_f(), config.segment_duration.as_seconds_f(),
                static_cast<unsigned long long>(config.seed), config.player.live ? 1 : 0,
                config.big_little ? 1 : 0, config.thermal_enabled ? 1 : 0,
                cpu::cpuidle_strategy_name(config.cpuidle), r.energy.cpu_mj, r.energy.radio_mj,
                r.energy.display_mj, r.energy.total_mj(), r.qoe.startup_delay.as_seconds_f(),
                static_cast<unsigned long long>(r.qoe.rebuffer_events),
                r.qoe.rebuffer_time.as_seconds_f(), r.qoe.drop_ratio() * 100.0,
                static_cast<unsigned long long>(r.freq_transitions), r.qoe.mean_bitrate_kbps,
                r.peak_temp_c, r.throttled_time.as_seconds_f(),
                static_cast<unsigned long long>(r.decode_frames_little), r.finished ? 1 : 0);
    return r.finished ? 0 : 1;
  }

  if (!r.finished) {
    std::printf("session DID NOT FINISH (hit the simulation cap)\n");
    return 1;
  }
  std::printf("governor:      %s\n", config.governor.c_str());
  std::printf("energy:        cpu %.1f mJ, radio %.1f mJ, display %.1f mJ, total %.1f mJ "
              "(mean %.0f mW)\n",
              r.energy.cpu_mj, r.energy.radio_mj, r.energy.display_mj, r.energy.total_mj(),
              r.energy.mean_mw());
  std::printf("qoe:           startup %.2f s, rebuffer %llu (%.2f s), drops %.2f %%, "
              "mean %.0f kbps, %llu quality switches\n",
              r.qoe.startup_delay.as_seconds_f(),
              static_cast<unsigned long long>(r.qoe.rebuffer_events),
              r.qoe.rebuffer_time.as_seconds_f(), r.qoe.drop_ratio() * 100.0,
              r.qoe.mean_bitrate_kbps,
              static_cast<unsigned long long>(r.qoe.quality_switches));
  std::printf("dvfs:          %llu transitions, busy %.1f %%\n",
              static_cast<unsigned long long>(r.freq_transitions), r.busy_fraction * 100.0);
  std::printf("residency:    ");
  for (const auto& [khz, frac] : r.residency) {
    if (frac > 0.001) std::printf(" %.1fG:%.0f%%", static_cast<double>(khz) / 1e6, frac * 100);
  }
  std::printf("\n");
  if (config.thermal_enabled) {
    std::printf("thermal:       peak %.1f C, throttled %.1f s (%llu events)\n", r.peak_temp_c,
                r.throttled_time.as_seconds_f(),
                static_cast<unsigned long long>(r.throttle_events));
  }
  if (config.big_little) {
    std::printf("big.LITTLE:    little %.1f mJ, decode big/little %llu/%llu, %llu migrations\n",
                r.cpu_little_mj, static_cast<unsigned long long>(r.decode_frames_big),
                static_cast<unsigned long long>(r.decode_frames_little),
                static_cast<unsigned long long>(r.decode_migrations));
  }
  if (r.vafs_plans > 0) {
    std::printf("vafs:          %llu plans, %llu setspeed writes, decode MAPE %.1f %%\n",
                static_cast<unsigned long long>(r.vafs_plans),
                static_cast<unsigned long long>(r.vafs_setspeed_writes),
                r.vafs_decode_mape * 100.0);
  }
  return 0;
}
