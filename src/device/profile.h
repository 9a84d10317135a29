// Device-profile library: the hardware a session runs on, as a value type.
//
// A DeviceProfile names an ordered list of CPU clusters (each with its own
// OPP ladder, power model, IPC penalty and DVFS transition latency) plus
// the device-level defaults a session needs (display draw, radio
// technology, thermal constants, cpuidle ladder). run_session constructs
// one CpuModel + CpufreqPolicy per cluster from it; the scheduler's
// ClusterRouter and the VAFS controller plan against the per-cluster
// capacities instead of assuming one big core.
//
// Conventions:
//   - clusters are listed in *descending capacity* order; clusters[0] is
//     the primary cluster (sysfs policy0, decode's default home, the
//     thermal sensor's location);
//   - `cycle_penalty` expresses IPC relative to the reference big core the
//     content model's cycle counts are calibrated against: on a
//     multi-cluster device, a task of N reference cycles needs penalty·N
//     cycles on that cluster. A one-cluster device builds no router, so
//     its tasks run unscaled and its penalty reaches nothing;
//   - capacity_khz = f_max / penalty is the cluster's retire rate for
//     reference-cycle work, the single number placement decisions use.
//
// The registry (profile()/profile_names()) holds ~5 named devices spanning
// 1-3 clusters; PopulationMix draws a profile per session seed so fleet
// sweeps answer "what does a governor save across an installed base", not
// on one phone.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "cpu/cpuidle.h"
#include "cpu/opp.h"
#include "cpu/power_model.h"
#include "net/radio.h"
#include "simcore/time.h"
#include "thermal/model.h"

namespace vafs::device {

/// One CPU cluster of a device.
struct ClusterSpec {
  std::string name;  // "big", "little", "prime", ...
  cpu::OppTable opps;
  cpu::PowerModelParams power;
  /// Reference-cycle inflation (> 1 = lower IPC than the reference big
  /// core; < 1 = higher IPC, e.g. a flagship prime core). Applied by the
  /// ClusterRouter and VAFS's placement, so only on multi-cluster devices:
  /// a one-cluster device runs tasks unscaled whatever its penalty.
  double cycle_penalty = 1.0;
  /// DVFS transition latency of this cluster's policy.
  sim::SimTime transition_latency = sim::SimTime::micros(150);

  /// Reference-cycle retire rate at f_max, in kHz-equivalents: the
  /// capacity number routing and VAFS planning compare clusters by.
  double capacity_khz() const {
    return static_cast<double>(opps.max().freq_khz) / cycle_penalty;
  }
};

struct DeviceProfile {
  /// Registry key ("default", "flagship", ...).
  std::string name = "default";
  /// Descending capacity; clusters[0] is primary (policy0). A session
  /// refuses a profile without clusters.
  std::vector<ClusterSpec> clusters;

  // Device-level fields; run_session takes every one of them from here.
  double display_mw = 450.0;
  net::RadioParams radio = net::RadioParams::lte();
  thermal::ThermalParams thermal;
  cpu::CpuidleStrategy cpuidle = cpu::CpuidleStrategy::kShallowOnly;
  cpu::CpuidleParams cpuidle_params = cpu::CpuidleParams::mobile();

  std::size_t cluster_count() const { return clusters.size(); }
};

/// Names of every registered profile, in registry order (default first).
const std::vector<std::string>& profile_names();

/// The registered profile called `name`; throws std::out_of_range for an
/// unknown name (listing the known ones).
const DeviceProfile& profile(std::string_view name);

/// A weighted device population. pick() is a pure function of the session
/// seed (a splitmix64 hash of it selects the entry), so a fleet sweep's
/// per-session device draw is independent of shard boundaries, job counts
/// and resume points — the same seed always streams on the same device.
struct PopulationMix {
  struct Entry {
    DeviceProfile profile;
    double weight = 1.0;
  };
  /// Mix label for scenario ids / artifacts ("global", "premium", ...).
  std::string id;
  std::vector<Entry> entries;

  bool empty() const { return entries.empty(); }
  PopulationMix& add(const DeviceProfile& p, double weight);

  /// The entry a session with this seed runs on. Deterministic; uniform
  /// hash of the seed against the cumulative weights.
  const DeviceProfile& pick(std::uint64_t seed) const;

  /// Index form of pick(), for tests and distribution reporting.
  std::size_t pick_index(std::uint64_t seed) const;

  /// Registered mixes: "global" (all five classes, volume-weighted),
  /// "premium" (flagship-heavy), "budget" (low-end-heavy). Throws
  /// std::out_of_range for anything else.
  static PopulationMix named(std::string_view name);
  static const std::vector<std::string>& mix_names();
};

}  // namespace vafs::device
