#include "device/profile.h"

#include <stdexcept>
#include <utility>

namespace vafs::device {
namespace {

// ---------------------------------------------------------------------------
// The registry. OPP ladders are shaped after published mobile tables
// (ascending frequency, superlinear voltage); power coefficients follow
// the big/LITTLE split of cpu::PowerModelParams with process-quality
// scaling per device class. Capacities are strictly descending within
// each profile, which the router and the VAFS planner rely on.

ClusterSpec make_cluster(std::string name, std::vector<cpu::Opp> opps,
                         cpu::PowerModelParams power, double penalty,
                         sim::SimTime latency = sim::SimTime::micros(150)) {
  return ClusterSpec{std::move(name), cpu::OppTable(std::move(opps)), power, penalty, latency};
}

/// The reference device: one big core, stock power model, 150 µs
/// transitions, LTE. A default-constructed SessionConfig runs on it.
DeviceProfile make_default() {
  DeviceProfile p;
  p.name = "default";
  p.clusters.push_back(make_cluster("big", {{300'000, 650'000},
                                            {600'000, 700'000},
                                            {900'000, 750'000},
                                            {1'200'000, 825'000},
                                            {1'500'000, 900'000},
                                            {1'800'000, 1'000'000},
                                            {2'000'000, 1'100'000},
                                            {2'100'000, 1'200'000}},
                                    cpu::PowerModelParams::big_core(), 1.0));
  return p;
}

/// Flagship SoC: prime + mid + little (tri-cluster, like recent Snapdragon
/// 8-series). The prime core out-retires the reference big core (penalty
/// 0.9) but pays for it in leakage; the little cluster is wide-ranged and
/// cheap. Bright OLED panel.
DeviceProfile make_flagship() {
  DeviceProfile p;
  p.name = "flagship";

  cpu::PowerModelParams prime;
  prime.c_eff_mw_per_mhz_v2 = 0.52;
  prime.leak_mw_at_1v = 120.0;
  prime.idle_mw = 22.0;
  prime.transition_uj = 14.0;
  p.clusters.push_back(make_cluster("prime", {{480'000, 600'000},
                                              {800'000, 650'000},
                                              {1'200'000, 725'000},
                                              {1'600'000, 800'000},
                                              {2'000'000, 900'000},
                                              {2'400'000, 1'000'000},
                                              {2'700'000, 1'100'000},
                                              {2'850'000, 1'175'000}},
                                    prime, 0.9, sim::SimTime::micros(120)));

  cpu::PowerModelParams mid;
  mid.c_eff_mw_per_mhz_v2 = 0.38;
  mid.leak_mw_at_1v = 70.0;
  mid.idle_mw = 14.0;
  mid.transition_uj = 10.0;
  p.clusters.push_back(make_cluster("mid", {{400'000, 600'000},
                                            {700'000, 650'000},
                                            {1'000'000, 700'000},
                                            {1'400'000, 775'000},
                                            {1'800'000, 875'000},
                                            {2'200'000, 975'000},
                                            {2'400'000, 1'050'000}},
                                    mid, 1.1, sim::SimTime::micros(120)));

  cpu::PowerModelParams little;
  little.c_eff_mw_per_mhz_v2 = 0.13;
  little.leak_mw_at_1v = 20.0;
  little.idle_mw = 5.0;
  little.transition_uj = 7.0;
  p.clusters.push_back(make_cluster("little", {{300'000, 575'000},
                                               {600'000, 625'000},
                                               {900'000, 675'000},
                                               {1'200'000, 725'000},
                                               {1'500'000, 800'000},
                                               {1'800'000, 900'000}},
                                    little, 1.5, sim::SimTime::micros(120)));

  p.display_mw = 560.0;
  p.radio = net::RadioParams::lte();
  // Big vapor chamber: low junction-to-ambient resistance, slow to heat.
  p.thermal.resistance_k_per_w = 11.0;
  p.thermal.capacitance_j_per_k = 10.0;
  return p;
}

/// Mid-range big.LITTLE part: the reference big core plus a LITTLE
/// cluster at a 1.7x IPC penalty. F13's big.LITTLE column runs on it.
DeviceProfile make_midrange() {
  DeviceProfile p;
  p.name = "midrange";
  p.clusters.push_back(make_cluster("big", {{300'000, 650'000},
                                            {600'000, 700'000},
                                            {900'000, 750'000},
                                            {1'200'000, 825'000},
                                            {1'500'000, 900'000},
                                            {1'800'000, 1'000'000},
                                            {2'000'000, 1'100'000},
                                            {2'100'000, 1'200'000}},
                                    cpu::PowerModelParams::big_core(), 1.0));
  p.clusters.push_back(make_cluster("little", {{300'000, 600'000},
                                               {500'000, 650'000},
                                               {800'000, 700'000},
                                               {1'000'000, 750'000},
                                               {1'200'000, 800'000},
                                               {1'500'000, 900'000}},
                                    cpu::PowerModelParams::little_core(), 1.7));
  p.display_mw = 430.0;
  return p;
}

/// Budget part: a cheap process (high leakage per MHz), a coarse
/// 5-point big ladder that tops out at 1.8 GHz, an in-order little
/// cluster with a steep IPC penalty, a dim panel, and a chassis that
/// heats fast (thermal caps bite here first).
DeviceProfile make_budget() {
  DeviceProfile p;
  p.name = "budget";

  cpu::PowerModelParams big;
  big.c_eff_mw_per_mhz_v2 = 0.50;
  big.leak_mw_at_1v = 110.0;
  big.idle_mw = 20.0;
  big.transition_uj = 16.0;
  p.clusters.push_back(make_cluster("big", {{400'000, 700'000},
                                            {800'000, 775'000},
                                            {1'200'000, 875'000},
                                            {1'500'000, 975'000},
                                            {1'800'000, 1'100'000}},
                                    big, 1.15, sim::SimTime::micros(250)));

  cpu::PowerModelParams little;
  little.c_eff_mw_per_mhz_v2 = 0.17;
  little.leak_mw_at_1v = 30.0;
  little.idle_mw = 7.0;
  little.transition_uj = 10.0;
  p.clusters.push_back(make_cluster("little", {{300'000, 650'000},
                                               {600'000, 700'000},
                                               {900'000, 775'000},
                                               {1'200'000, 850'000},
                                               {1'400'000, 925'000}},
                                    little, 1.9, sim::SimTime::micros(250)));

  p.display_mw = 370.0;
  p.radio = net::RadioParams::lte();
  // Plastic chassis, no heat spreader: hotter per watt, faster to heat.
  p.thermal.resistance_k_per_w = 18.0;
  p.thermal.capacitance_j_per_k = 5.0;
  return p;
}

/// Handheld / tablet-class device: one beefy symmetric cluster with a wide
/// OPP range, a large bright panel, and WiFi instead of a cellular modem.
DeviceProfile make_handheld() {
  DeviceProfile p;
  p.name = "handheld";

  cpu::PowerModelParams core;
  core.c_eff_mw_per_mhz_v2 = 0.42;
  core.leak_mw_at_1v = 90.0;
  core.idle_mw = 16.0;
  core.transition_uj = 12.0;
  p.clusters.push_back(make_cluster("perf", {{400'000, 600'000},
                                             {700'000, 650'000},
                                             {1'000'000, 700'000},
                                             {1'300'000, 750'000},
                                             {1'600'000, 825'000},
                                             {1'900'000, 900'000},
                                             {2'200'000, 1'000'000},
                                             {2'400'000, 1'075'000}},
                                    core, 0.95, sim::SimTime::micros(100)));

  p.display_mw = 900.0;
  p.radio = net::RadioParams::wifi();
  // Large chassis: plenty of spreading area and mass.
  p.thermal.resistance_k_per_w = 9.0;
  p.thermal.capacitance_j_per_k = 14.0;
  return p;
}

struct Registry {
  std::vector<std::string> names;
  std::vector<DeviceProfile> profiles;

  Registry() {
    add(make_default());
    add(make_flagship());
    add(make_midrange());
    add(make_budget());
    add(make_handheld());
  }

  void add(DeviceProfile p) {
    names.push_back(p.name);
    profiles.push_back(std::move(p));
  }
};

const Registry& registry() {
  static const Registry r;
  return r;
}

/// splitmix64: the standard 64-bit finalizer — one well-mixed draw per
/// seed, with no sequential state that shard order could perturb.
std::uint64_t mix64(std::uint64_t x) {
  x += 0x9E3779B97F4A7C15ULL;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ULL;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBULL;
  return x ^ (x >> 31);
}

}  // namespace

const std::vector<std::string>& profile_names() { return registry().names; }

const DeviceProfile& profile(std::string_view name) {
  const Registry& r = registry();
  for (std::size_t i = 0; i < r.names.size(); ++i) {
    if (r.names[i] == name) return r.profiles[i];
  }
  std::string known;
  for (const auto& n : r.names) {
    if (!known.empty()) known += ", ";
    known += n;
  }
  throw std::out_of_range("unknown device profile '" + std::string(name) + "' (known: " + known +
                          ")");
}

PopulationMix& PopulationMix::add(const DeviceProfile& p, double weight) {
  entries.push_back(Entry{p, weight});
  return *this;
}

std::size_t PopulationMix::pick_index(std::uint64_t seed) const {
  if (entries.empty()) return 0;
  double total = 0.0;
  for (const auto& e : entries) total += e.weight;
  // 53 uniform bits — a draw in [0, 1) every platform computes identically.
  const double u =
      static_cast<double>(mix64(seed ^ 0xD6E8FEB86659FD93ULL) >> 11) * 0x1.0p-53;
  double accum = 0.0;
  for (std::size_t i = 0; i < entries.size(); ++i) {
    accum += entries[i].weight;
    if (u * total < accum) return i;
  }
  return entries.size() - 1;
}

const DeviceProfile& PopulationMix::pick(std::uint64_t seed) const {
  return entries[pick_index(seed)].profile;
}

const std::vector<std::string>& PopulationMix::mix_names() {
  static const std::vector<std::string> names = {"global", "premium", "budget"};
  return names;
}

PopulationMix PopulationMix::named(std::string_view name) {
  PopulationMix mix;
  mix.id = std::string(name);
  if (name == "global") {
    // A volume-shaped installed base: mid-range dominates, the default
    // single-big-core device stands in for aging handsets.
    mix.add(profile("flagship"), 0.15)
        .add(profile("midrange"), 0.40)
        .add(profile("budget"), 0.30)
        .add(profile("handheld"), 0.05)
        .add(profile("default"), 0.10);
  } else if (name == "premium") {
    mix.add(profile("flagship"), 0.55)
        .add(profile("midrange"), 0.30)
        .add(profile("handheld"), 0.15);
  } else if (name == "budget") {
    mix.add(profile("budget"), 0.55)
        .add(profile("midrange"), 0.25)
        .add(profile("default"), 0.20);
  } else {
    std::string known;
    for (const auto& n : mix_names()) {
      if (!known.empty()) known += ", ";
      known += n;
    }
    throw std::out_of_range("unknown population mix '" + std::string(name) + "' (known: " +
                            known + ")");
  }
  return mix;
}

}  // namespace vafs::device
