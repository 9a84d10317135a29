// Device-profile library tests: registry invariants every profile must
// hold (sane OPP ladders, positive power coefficients, descending cluster
// capacities), the compatibility contracts of the profile-driven session
// bring-up (a default config and profile "midrange" replay the traces of
// the pre-profile single-core and big.LITTLE devices, pinned by trace
// digest), and the determinism of weighted population draws (a pure
// function of the session seed).
#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/session.h"
#include "device/profile.h"
#include "obs/trace.h"

namespace vafs::device {
namespace {

// ------------------------------------------------------------- registry

TEST(ProfileRegistry, ListsDefaultFirstAndResolvesEveryName) {
  const auto& names = profile_names();
  ASSERT_GE(names.size(), 5u);
  EXPECT_EQ(names.front(), "default");
  for (const auto& name : names) {
    const DeviceProfile& p = profile(name);
    EXPECT_EQ(p.name, name);
    EXPECT_FALSE(p.clusters.empty()) << name << " must carry explicit clusters";
  }
}

TEST(ProfileRegistry, UnknownNamesThrowListingTheKnownOnes) {
  try {
    profile("nokia3310");
    FAIL() << "expected std::out_of_range";
  } catch (const std::out_of_range& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("nokia3310"), std::string::npos);
    EXPECT_NE(what.find("flagship"), std::string::npos);
  }
  EXPECT_THROW(PopulationMix::named("everyone"), std::out_of_range);
}

TEST(ProfileRegistry, OppLaddersAreMonotoneInFrequencyAndVoltage) {
  for (const auto& name : profile_names()) {
    for (const ClusterSpec& c : profile(name).clusters) {
      const std::string where = name + "/" + c.name;
      ASSERT_GE(c.opps.size(), 2u) << where;
      for (std::size_t i = 1; i < c.opps.size(); ++i) {
        EXPECT_GT(c.opps.at(i).freq_khz, c.opps.at(i - 1).freq_khz) << where;
        EXPECT_GE(c.opps.at(i).volt_uv, c.opps.at(i - 1).volt_uv) << where;
      }
      EXPECT_GT(c.opps.min().freq_khz, 0u) << where;
      EXPECT_GT(c.opps.min().volt_uv, 0u) << where;
    }
  }
}

TEST(ProfileRegistry, PowerModelsAndPenaltiesArePhysical) {
  for (const auto& name : profile_names()) {
    const DeviceProfile& p = profile(name);
    EXPECT_GT(p.display_mw, 0.0) << name;
    for (const ClusterSpec& c : p.clusters) {
      const std::string where = name + "/" + c.name;
      EXPECT_GT(c.power.c_eff_mw_per_mhz_v2, 0.0) << where;
      EXPECT_GT(c.power.leak_mw_at_1v, 0.0) << where;
      EXPECT_GT(c.power.idle_mw, 0.0) << where;
      EXPECT_GE(c.power.transition_uj, 0.0) << where;
      EXPECT_GT(c.cycle_penalty, 0.0) << where;
      EXPECT_GT(c.transition_latency, sim::SimTime::zero()) << where;
    }
  }
}

TEST(ProfileRegistry, ClustersAreOrderedByStrictlyDescendingCapacity) {
  for (const auto& name : profile_names()) {
    const DeviceProfile& p = profile(name);
    for (std::size_t i = 1; i < p.clusters.size(); ++i) {
      EXPECT_GT(p.clusters[i - 1].capacity_khz(), p.clusters[i].capacity_khz())
          << name << ": clusters[" << i - 1 << "] vs [" << i << "]";
    }
  }
}

// ------------------------------------------------------- pinned bit-identity

core::SessionConfig base_config(const std::string& governor) {
  core::SessionConfig config;
  config.governor = governor;
  config.fixed_rep = 2;  // 720p
  config.media_duration = sim::SimTime::seconds(20);
  config.net = core::NetProfile::kFair;
  config.seed = 9001;
  return config;
}

struct DigestRun {
  std::uint64_t digest = 0;
  std::uint64_t events = 0;
  core::SessionResult result;
};

DigestRun run_digest(const core::SessionConfig& config) {
  obs::Tracer tracer(obs::Tracer::Config{0});  // digest-only, no ring
  core::SessionHooks hooks;
  hooks.tracer = &tracer;
  DigestRun out;
  out.result = core::run_session(config, hooks);
  out.digest = tracer.digest();
  out.events = tracer.recorded();
  return out;
}

TEST(ProfileCompat, DefaultProfileReplaysTheLegacySingleCoreBitIdentically) {
  // A default-constructed SessionConfig runs on profile("default"). These
  // digests were captured on the scalar single-core bring-up that the
  // profile replaced; the default device must keep replaying them event
  // for event.
  struct Pinned {
    const char* governor;
    std::uint64_t digest;
    std::uint64_t events;
  };
  const Pinned cases[] = {
      {"ondemand", 0xe8abbf38e2131c1eull, 4107},
      {"vafs", 0xa2bdf1f0e490f17aull, 1885},
  };
  for (const Pinned& c : cases) {
    const DigestRun run = run_digest(base_config(c.governor));
    EXPECT_EQ(run.digest, c.digest) << c.governor;
    EXPECT_EQ(run.events, c.events) << c.governor;
    EXPECT_EQ(run.result.device, "default");
    ASSERT_EQ(run.result.clusters.size(), 1u);
    EXPECT_EQ(run.result.clusters[0].name, "big");
  }
}

TEST(ProfileCompat, BigLittleShimDigestsArePinnedToThePreRefactorTraces) {
  // The five digests below were captured on the pre-refactor two-model
  // code path (commit before src/device existed). Profile "midrange" is
  // that device (the same big core plus a 1.7x-penalty LITTLE cluster) and
  // must keep replaying those exact event streams; only its panel, which
  // reaches the meter and no event, differs.
  struct Pinned {
    const char* governor;
    std::uint64_t digest;
    std::uint64_t events;
    std::uint64_t frames_big;
    std::uint64_t frames_little;
  };
  const Pinned cases[] = {
      {"ondemand", 0xce5b23755b966c76ull, 6247, 600, 0},
      {"schedutil", 0x4a32b565037dd60dull, 22489, 600, 0},
      {"vafs", 0x612db58505828402ull, 1884, 3, 597},
      {"conservative", 0xa4f19298db5a518dull, 4131, 600, 0},
  };
  for (const Pinned& c : cases) {
    core::SessionConfig config = base_config(c.governor);
    config.profile = profile("midrange");
    const DigestRun run = run_digest(config);
    EXPECT_EQ(run.digest, c.digest) << c.governor;
    EXPECT_EQ(run.events, c.events) << c.governor;
    ASSERT_EQ(run.result.clusters.size(), 2u) << c.governor;
    EXPECT_EQ(run.result.clusters[0].name, "big");
    EXPECT_EQ(run.result.clusters[1].name, "little");
    EXPECT_EQ(run.result.clusters[0].decode_frames, c.frames_big) << c.governor;
    EXPECT_EQ(run.result.clusters[1].decode_frames, c.frames_little) << c.governor;
  }

  // A lossy 1080p run on it: ABR, rebuffers and retries on top.
  core::SessionConfig lossy;
  lossy.governor = "vafs";
  lossy.profile = profile("midrange");
  lossy.fixed_rep = 3;
  lossy.media_duration = sim::SimTime::seconds(20);
  lossy.net = core::NetProfile::kPoor;
  lossy.abr = core::AbrKind::kRate;
  lossy.seed = 7;
  const DigestRun run = run_digest(lossy);
  EXPECT_EQ(run.digest, 0xcb97d2adce731613ull);
  EXPECT_EQ(run.events, 1898u);
  ASSERT_EQ(run.result.clusters.size(), 2u);
  EXPECT_EQ(run.result.clusters[0].decode_frames, 5u);
  EXPECT_EQ(run.result.clusters[1].decode_frames, 595u);
}

TEST(ProfileCompat, FlagshipVafsDigestIsPinned) {
  // Three clusters. Steady 720p decode fits the little cluster, the
  // first candidate in ascending capacity; only cold start runs on prime.
  core::SessionConfig config = base_config("vafs");
  config.profile = profile("flagship");
  const DigestRun run = run_digest(config);
  EXPECT_EQ(run.digest, 0x7d30ed72c618d212ull);
  EXPECT_EQ(run.events, 1892u);
  ASSERT_EQ(run.result.clusters.size(), 3u);
  EXPECT_EQ(run.result.clusters[0].decode_frames, 3u);
  EXPECT_EQ(run.result.clusters[1].decode_frames, 0u);
  EXPECT_EQ(run.result.clusters[2].decode_frames, 597u);
}

TEST(ProfileCompat, MultiClusterWatchdogSessionsArePinned) {
  // VAFS with the watchdog on, on every multi-cluster profile, in both
  // safe modes: sysfs write faults trip the failover in each session, so
  // fallback entry, every policy's fallback write and re-engage are all
  // in the digest.
  using Mode = core::VafsWatchdogConfig::Mode;
  struct Pinned {
    const char* profile;
    Mode mode;
    std::uint64_t seed;
    std::uint64_t digest;
    std::uint64_t events;
    std::uint64_t fallbacks;
  };
  const Pinned cases[] = {
      {"midrange", Mode::kRestoreGovernor, 3, 0x4ba2490648f09296ull, 10578, 5},
      {"midrange", Mode::kRestoreGovernor, 11, 0x01248580f7c39e0full, 8685, 3},
      {"midrange", Mode::kPinMax, 3, 0xb5eb16dd08a69985ull, 3659, 1},
      {"midrange", Mode::kPinMax, 11, 0x58812f36d2e767f8ull, 3640, 1},
      {"flagship", Mode::kRestoreGovernor, 3, 0x9980894344ce7305ull, 11520, 4},
      {"flagship", Mode::kRestoreGovernor, 11, 0xd114023b59a9f1d3ull, 10232, 3},
      {"flagship", Mode::kPinMax, 3, 0x0da237ea30cd866aull, 3884, 1},
      {"flagship", Mode::kPinMax, 11, 0x79c1ae8e1c494e0eull, 3866, 1},
      {"budget", Mode::kRestoreGovernor, 3, 0x1f4b02c33af29689ull, 6707, 1},
      {"budget", Mode::kRestoreGovernor, 11, 0x10bebdbacd12ef84ull, 8644, 3},
      {"budget", Mode::kPinMax, 3, 0xc667f924e2b9c6a9ull, 3484, 1},
      {"budget", Mode::kPinMax, 11, 0x13c1b806b9884153ull, 3470, 1},
  };
  for (const Pinned& c : cases) {
    core::SessionConfig config = base_config("vafs");
    config.profile = profile(c.profile);
    config.media_duration = sim::SimTime::seconds(60);
    config.net = core::NetProfile::kPoor;
    config.seed = c.seed;
    config.fault.sysfs_fault_rate_per_min = 6.0;
    config.fault.sysfs_fault_mean_duration = sim::SimTime::seconds(5);
    config.vafs.watchdog.enabled = true;
    config.vafs.watchdog.write_error_threshold = 2;
    config.vafs.watchdog.mode = c.mode;
    const DigestRun run = run_digest(config);
    const std::string where = std::string(c.profile) +
                              (c.mode == Mode::kPinMax ? " pin-max" : " restore") + " seed " +
                              std::to_string(c.seed);
    EXPECT_TRUE(run.result.finished) << where;
    EXPECT_EQ(run.digest, c.digest) << where;
    EXPECT_EQ(run.events, c.events) << where;
    EXPECT_EQ(run.result.vafs_fallback_entries, c.fallbacks) << where;
  }
}

// ------------------------------------------------------- profile sessions

TEST(ProfileSession, EveryRegisteredProfileStreamsToCompletion) {
  for (const auto& name : profile_names()) {
    core::SessionConfig config = base_config("schedutil");
    config.profile = profile(name);
    const DigestRun run = run_digest(config);
    EXPECT_TRUE(run.result.finished) << name;
    EXPECT_EQ(run.result.device, name);
    ASSERT_EQ(run.result.clusters.size(), profile(name).cluster_count()) << name;
    double cluster_mj = 0.0;
    std::uint64_t transitions = 0;
    for (std::size_t i = 0; i < run.result.clusters.size(); ++i) {
      const auto& c = run.result.clusters[i];
      EXPECT_EQ(c.name, profile(name).clusters[i].name) << name;
      cluster_mj += c.cpu_mj;
      transitions += c.freq_transitions;
    }
    // Per-cluster energy covers the meter's CPU total (bring-up energy
    // before the session-start meter reset makes the sum a hair larger).
    EXPECT_GE(cluster_mj, run.result.energy.cpu_mj) << name;
    EXPECT_NEAR(cluster_mj, run.result.energy.cpu_mj, 1.0) << name;
    EXPECT_GE(transitions, run.result.clusters[0].freq_transitions) << name;
  }
}

TEST(ProfileSession, FlagshipVafsParksDecodeOffThePrimeCluster) {
  core::SessionConfig config = base_config("vafs");
  config.profile = profile("flagship");
  const DigestRun run = run_digest(config);
  ASSERT_TRUE(run.result.finished);
  ASSERT_EQ(run.result.clusters.size(), 3u);
  // Steady 720p decode fits an efficient cluster; the prime core should
  // see almost none of it.
  const std::uint64_t on_prime = run.result.clusters[0].decode_frames;
  const std::uint64_t elsewhere =
      run.result.clusters[1].decode_frames + run.result.clusters[2].decode_frames;
  EXPECT_GT(elsewhere, on_prime);
  EXPECT_GE(on_prime + elsewhere, run.result.qoe.frames_presented);
}

// ----------------------------------------------------------- population

TEST(PopulationMix, PickIsAPureFunctionOfTheSeed) {
  const PopulationMix mix = PopulationMix::named("global");
  ASSERT_GE(mix.entries.size(), 4u);  // the >=4-profile fleet mix
  for (std::uint64_t seed = 0; seed < 512; ++seed) {
    const std::size_t first = mix.pick_index(seed);
    ASSERT_LT(first, mix.entries.size());
    EXPECT_EQ(mix.pick_index(seed), first) << seed;
    EXPECT_EQ(&mix.pick(seed), &mix.entries[first].profile) << seed;
  }
  // A fresh copy of the same mix draws identically: nothing hides in
  // object identity (this is what makes resume safe).
  const PopulationMix again = PopulationMix::named("global");
  for (std::uint64_t seed = 1000; seed < 1128; ++seed) {
    EXPECT_EQ(again.pick_index(seed), mix.pick_index(seed)) << seed;
  }
}

TEST(PopulationMix, DrawFrequenciesMatchTheWeights) {
  for (const auto& name : PopulationMix::mix_names()) {
    const PopulationMix mix = PopulationMix::named(name);
    double total_weight = 0.0;
    for (const auto& e : mix.entries) total_weight += e.weight;
    ASSERT_GT(total_weight, 0.0);

    constexpr std::uint64_t kDraws = 20000;
    std::vector<std::uint64_t> counts(mix.entries.size(), 0);
    for (std::uint64_t seed = 0; seed < kDraws; ++seed) ++counts[mix.pick_index(seed)];

    for (std::size_t i = 0; i < mix.entries.size(); ++i) {
      const double expected = mix.entries[i].weight / total_weight;
      const double observed = static_cast<double>(counts[i]) / kDraws;
      EXPECT_NEAR(observed, expected, 0.015)
          << name << " entry " << mix.entries[i].profile.name;
    }
  }
}

TEST(PopulationMix, SessionsDrawTheirDeviceFromTheMixPerSeed) {
  const PopulationMix mix = PopulationMix::named("budget");
  std::map<std::string, int> drawn;
  for (std::uint64_t seed : {11ull, 22ull, 33ull, 44ull}) {
    core::SessionConfig config = base_config("ondemand");
    config.seed = seed;
    config.population = mix;
    const DigestRun run = run_digest(config);
    EXPECT_TRUE(run.result.finished);
    EXPECT_EQ(run.result.device, mix.entries[mix.pick_index(seed)].profile.name);
    ++drawn[run.result.device];
  }
  EXPECT_FALSE(drawn.empty());
}

TEST(PopulationMix, EmptyMixRunsTheConfiguredProfile) {
  // Default-constructed config: the "default" profile and no mix — the
  // session reports that device (one "big" cluster).
  const core::SessionConfig defaults;
  EXPECT_EQ(defaults.profile.name, "default");
  EXPECT_TRUE(defaults.population.empty());
  const DigestRun run = run_digest(base_config("ondemand"));
  EXPECT_EQ(run.result.device, "default");
  ASSERT_EQ(run.result.clusters.size(), 1u);
  EXPECT_EQ(run.result.clusters[0].name, "big");

  // Any other configured profile runs as set.
  core::SessionConfig config = base_config("ondemand");
  config.profile = profile("handheld");
  EXPECT_EQ(run_digest(config).result.device, "handheld");
}

}  // namespace
}  // namespace vafs::device
