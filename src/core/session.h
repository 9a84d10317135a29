// One-call session harness: builds the full device (CPU + cpufreq + sysfs
// + governors + radio + downloader + content + player + meter), streams a
// video under a named governor, and returns energy + QoE. Every benchmark,
// example and integration test is a thin wrapper over this.
#pragma once

#include <cstdint>
#include <functional>
#include <list>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "core/vafs_controller.h"
#include "device/profile.h"
#include "fault/plan.h"
#include "cpu/cpu_model.h"
#include "cpu/cpufreq_policy.h"
#include "energy/meter.h"
#include "net/bandwidth.h"
#include "net/downloader.h"
#include "net/radio.h"
#include "sched/router.h"
#include "simcore/simulator.h"
#include "stream/player.h"
#include "thermal/model.h"
#include "thermal/throttle.h"
#include "video/content.h"
#include "video/qoe.h"

namespace vafs::fault {
class FaultInjector;
}

namespace vafs::obs {
class Tracer;
}

namespace vafs::core {

enum class NetProfile { kPoor, kFair, kGood, kExcellent, kConstant, kTrace };
enum class AbrKind { kFixed, kRate, kBuffer, kBola };

const char* net_profile_name(NetProfile p);
const char* abr_kind_name(AbrKind k);

/// Setup failure surfaced by run_session instead of an assert: an invalid
/// configuration (empty kTrace trace, out-of-range fixed_rep) or a device
/// bring-up failure (VAFS unable to attach through sysfs). The experiment
/// runner catches these per run and records them with scenario + seed
/// context instead of aborting the whole grid.
class SessionError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

struct SessionConfig {
  /// A registered kernel governor name, or "vafs" for the userspace
  /// controller (which runs on top of the `userspace` governor).
  std::string governor = "ondemand";
  VafsConfig vafs;
  /// Sampling-governor tunables programmed through sysfs store hooks at
  /// bring-up, as (policy-relative attribute path, value) pairs — e.g.
  /// {"ondemand/up_threshold", "90"}. Applied to every cluster's policy
  /// directory in order; a rejected write (unknown attribute, or a value
  /// the governor's store hook refuses) throws SessionError so a tuner
  /// cannot silently evaluate an unapplied candidate. Empty (the default)
  /// performs no sysfs writes at all, keeping every existing session
  /// byte-identical.
  std::vector<std::pair<std::string, std::string>> governor_tunables;

  // Content.
  sim::SimTime media_duration = sim::SimTime::seconds(120);
  sim::SimTime segment_duration = sim::SimTime::seconds(4);
  AbrKind abr = AbrKind::kFixed;
  std::size_t fixed_rep = 2;  // 720p on the typical ladder
  video::ContentParams content;

  // Network.
  NetProfile net = NetProfile::kFair;
  double constant_mbps = 12.0;  // used by kConstant
  /// Step trace for kTrace (e.g. loaded via trace::load_bandwidth_trace).
  std::vector<net::TraceBandwidth::Step> trace;
  bool trace_loop = true;
  net::RadioParams radio = net::RadioParams::lte();
  net::DownloaderParams downloader;

  // Fault injection (all rates zero by default: the fault layer is not
  // even constructed and the session is byte-identical to a build without
  // it). The plan is compiled once, per-seed, before the session starts.
  fault::FaultPlanConfig fault;

  // Device. A named profile (device::profile("flagship"), ...) is the
  // authoritative device description: cluster topology AND the
  // device-level fields (display, radio, thermal params, cpuidle). The
  // default-constructed profile (legacy(), no clusters) runs on
  // device::profile("default")'s big cluster and display, with `radio`,
  // `thermal`, `cpuidle` and `big_little` below taken from this config —
  // byte-identical to the pre-profile bring-up.
  device::DeviceProfile profile;
  // Weighted device population: when non-empty it overrides `profile`
  // with a per-seed draw (a pure hash of `seed`, so fleet shard
  // boundaries, job counts and resume points cannot move a session onto
  // a different device).
  device::PopulationMix population;

  // Thermal (off by default; experiment F10 enables it).
  bool thermal_enabled = false;
  thermal::ThermalParams thermal;
  thermal::ThrottleParams throttle;

  // Idle-state handling (F12 sweeps the strategies).
  cpu::CpuidleStrategy cpuidle = cpu::CpuidleStrategy::kShallowOnly;
  cpu::CpuidleParams cpuidle_params = cpu::CpuidleParams::mobile();

  // big.LITTLE (F13) compat shim over the profile layer: adds a LITTLE
  // cluster with its own policy (policy1); network work runs there, decode
  // is placed by the router (statically on big for kernel governors,
  // dynamically by VAFS). Ignored when a named profile / population is
  // set — the profile's cluster list is the topology then.
  bool big_little = false;
  double little_cycle_penalty = 1.7;

  stream::PlayerConfig player;

  std::uint64_t seed = 42;
  /// Hard simulation cap — a safety net for pathological configurations.
  sim::SimTime sim_cap = sim::SimTime::seconds(1800);
  /// Wall-clock budget for the whole session, 0 = unlimited. A harness
  /// knob, not a model parameter: the deadline is checked between events
  /// (every few thousand steps), and an over-budget session throws
  /// SessionError with a deterministic message, so it surfaces as a
  /// captured task failure rather than an indefinite hang.
  std::int64_t task_timeout_ms = 0;
};

struct SessionResult {
  bool finished = false;  // false => hit sim_cap
  /// Discrete events executed by the simulator (throughput accounting).
  std::uint64_t sim_events = 0;
  video::QoeStats qoe;
  energy::DeviceEnergyReport energy;
  sim::SimTime wall;    // session start → last frame presented
  sim::SimTime played;  // media time presented
  /// End-to-end live latency at session end (live player mode); for VoD
  /// sessions the value is wall - played and carries no meaning.
  sim::SimTime live_latency;

  std::uint64_t freq_transitions = 0;
  /// (freq_khz, fraction of wall time programmed at it), ascending.
  std::vector<std::pair<std::uint32_t, double>> residency;
  double busy_fraction = 0.0;
  std::uint64_t radio_promotions = 0;

  // VAFS-only (zeroed otherwise).
  double vafs_decode_mape = 0.0;
  std::uint64_t vafs_plans = 0;
  std::uint64_t vafs_setspeed_writes = 0;

  // Resilience (zeroed for fault-free sessions with the watchdog off).
  // Player-visible fetch retries/failures live in qoe; these cover the
  // injection side and the controller's failover behaviour.
  std::uint64_t fault_windows = 0;
  std::uint64_t injected_fetch_failures = 0;
  std::uint64_t injected_fetch_hangs = 0;
  std::uint64_t injected_sysfs_errors = 0;
  std::uint64_t fetch_timeouts = 0;
  std::uint64_t vafs_fallback_entries = 0;
  sim::SimTime vafs_fallback_time;
  std::uint64_t vafs_sysfs_write_errors = 0;

  // Thermal (zeroed unless thermal_enabled).
  double peak_temp_c = 0.0;
  double mean_temp_c = 0.0;
  sim::SimTime throttled_time;
  std::uint64_t throttle_events = 0;

  // Flattened multi-cluster view (zeroed for single-cluster sessions).
  // cpu_mj in `energy` covers every cluster; cpu_little_mj is the share of
  // all non-primary clusters, the *_little/_big pair splits decode frames
  // primary vs rest. `residency`/`freq_transitions` above stay primary-
  // cluster, exactly as in the big.LITTLE era; `clusters` below has the
  // full per-cluster story.
  double cpu_little_mj = 0.0;
  std::uint64_t freq_transitions_little = 0;
  std::uint64_t decode_frames_big = 0;
  std::uint64_t decode_frames_little = 0;
  std::uint64_t decode_migrations = 0;

  /// Resolved device profile name ("" for a profile-less config's legacy
  /// bring-up) — fleet/population sweeps report per-class splits by it.
  std::string device;

  /// Per-cluster report, in cluster (policy) order. Single-cluster legacy
  /// sessions get one entry named "big".
  struct ClusterReport {
    std::string name;
    double cpu_mj = 0.0;
    std::uint64_t freq_transitions = 0;
    /// (freq_khz, fraction of wall time programmed at it), ascending.
    std::vector<std::pair<std::uint32_t, double>> residency;
    double busy_fraction = 0.0;
    /// Decode tasks run here (0 everywhere for router-less sessions).
    std::uint64_t decode_frames = 0;
  };
  std::vector<ClusterReport> clusters;

  // Observability (zeroed unless a tracer was attached via SessionHooks).
  // The digest is a canonical fingerprint of the session's full event
  // stream — identical digests mean identical behaviour, event for event.
  std::uint64_t trace_digest = 0;
  std::uint64_t trace_events = 0;
};

/// Live objects handed to `on_ready` so callers can attach probes before
/// the session starts (used by the timeline bench and the examples).
struct SessionLive {
  sim::Simulator* sim = nullptr;
  cpu::CpuModel* cpu = nullptr;              // primary cluster (== cpus[0])
  cpu::CpufreqPolicy* policy = nullptr;      // primary policy (== policies[0])
  sysfs::Tree* tree = nullptr;
  net::RadioModel* radio = nullptr;
  stream::Player* player = nullptr;
  VafsController* vafs = nullptr;            // null unless governor == "vafs"
  fault::FaultInjector* faults = nullptr;    // null unless config.fault.any()
  thermal::ThermalModel* thermal = nullptr;  // null unless thermal_enabled
  cpu::CpuModel* cpu_little = nullptr;       // cpus[1] on >=2 clusters, else null
  sched::ClusterRouter* router = nullptr;    // null on single-cluster devices
  std::vector<cpu::CpuModel*> cpus;          // all clusters, policy order
  std::vector<cpu::CpufreqPolicy*> policies;
};

struct SessionHooks {
  std::function<void(SessionLive&)> on_ready;

  /// Optional tracer (not owned, may be null). When set, every instrumented
  /// component records through it, the timeline series fill, and the
  /// result carries trace_digest / trace_events. Must outlive run_session.
  obs::Tracer* tracer = nullptr;

  /// Optional decision backend for the VAFS controller (not owned, may be
  /// null = in-process). Set to a serve::SocketBackend to have the
  /// decision daemon answer this session's plans — bit-identical results
  /// by the decision-core determinism contract. Must outlive run_session
  /// and be thread-safe if sessions run in parallel.
  DecisionBackend* decision_backend = nullptr;
};

/// Reusable storage for back-to-back sessions: holds the event queue's
/// slab/heap capacity between runs so a worker sweeping a grid allocates
/// only during its first session, and the synthesized content of each
/// distinct workload so a grid that replays the same (seed, content,
/// duration) tuple under every governor pays for frame synthesis once.
/// One arena per thread; never shared.
struct SessionArena {
  sim::EventQueue::Arena events;

  /// Everything frame values are a pure function of. Durations are in
  /// micros; the manifest itself is derived from them inside run_session,
  /// so two equal keys describe byte-identical content.
  struct ContentKey {
    std::uint64_t seed = 0;
    std::int64_t media_us = 0;
    std::int64_t segment_us = 0;
    video::ContentParams params;
    bool operator==(const ContentKey& o) const {
      return seed == o.seed && media_us == o.media_us && segment_us == o.segment_us &&
             params.gop_frames == o.params.gop_frames && params.idr_weight == o.params.idr_weight &&
             params.size_sigma == o.params.size_sigma &&
             params.cycles_per_pixel == o.params.cycles_per_pixel &&
             params.cycles_per_bit == o.params.cycles_per_bit &&
             params.cycles_sigma == o.params.cycles_sigma;
    }
  };

  /// The store for `key`, created empty on first sight. The cache is a
  /// small LRU: the returned reference stays valid until kContentCapacity
  /// distinct *other* keys have been requested after it, so holding it for
  /// the duration of one session is always safe. Classic bench grids see a
  /// handful of keys and never evict; fleet-scale sweeps see one key per
  /// session and must not accumulate O(sessions) synthesized frames.
  /// Eviction is invisible in results: every value a store yields is a
  /// pure function of the key, so a recompute is bit-identical.
  video::ContentStore& content_store(const ContentKey& key);

  static constexpr std::size_t kContentCapacity = 64;

 private:
  struct ContentEntry {
    ContentKey key;
    video::ContentStore store;
  };
  std::list<ContentEntry> content_;  // list: stable references + O(1) LRU splice
};

SessionResult run_session(const SessionConfig& config, const SessionHooks& hooks = {},
                          SessionArena* arena = nullptr);

/// The Markov bandwidth parameters behind each named profile.
net::MarkovBandwidth::Params net_profile_params(NetProfile p);

}  // namespace vafs::core
