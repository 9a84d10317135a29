#include "core/session_instance.h"

#include <string>
#include <utility>

#include "cpu/cpufreq_policy.h"
#include "cpu/cpufreq_sysfs.h"
#include "fault/injector.h"
#include "governors/registry.h"
#include "net/bandwidth.h"
#include "obs/trace.h"
#include "stream/abr.h"
#include "video/content.h"
#include "video/manifest.h"

namespace vafs::core {
namespace {

std::unique_ptr<net::BandwidthProcess> make_bandwidth(const SessionConfig& config, sim::Rng rng) {
  if (config.net == NetProfile::kConstant) {
    return std::make_unique<net::ConstantBandwidth>(config.constant_mbps);
  }
  if (config.net == NetProfile::kTrace) {
    if (config.trace.empty()) {
      throw SessionError("NetProfile::kTrace requires a non-empty SessionConfig::trace");
    }
    return std::make_unique<net::TraceBandwidth>(config.trace, config.trace_loop);
  }
  return std::make_unique<net::MarkovBandwidth>(net_profile_params(config.net), rng);
}

std::unique_ptr<stream::AbrAlgorithm> make_abr(const SessionConfig& config) {
  switch (config.abr) {
    case AbrKind::kFixed: return std::make_unique<stream::FixedAbr>(config.fixed_rep);
    case AbrKind::kRate: return std::make_unique<stream::RateBasedAbr>();
    case AbrKind::kBuffer: return std::make_unique<stream::BufferBasedAbr>();
    case AbrKind::kBola:
      return std::make_unique<stream::BolaAbr>(config.player.buffer_target);
  }
  return nullptr;
}

}  // namespace

// Frequency series and mean CPU power per constant-frequency stretch,
// built only for a tracer that keeps a timeline. The listener fires after
// the model has settled accounting at `now` (advance() precedes it in
// set_frequency), so the energy probe reads committed state and perturbs
// nothing.
struct SessionInstance::PowerProbe {
  sim::Simulator* sim;
  cpu::CpuModel* cpu;
  obs::Tracer* tracer;
  sim::SimTime last_t;
  double last_mj;

  /// Closes the constant-power segment open since last_t.
  void flush() {
    const sim::SimTime now = sim->now();
    const double mj = cpu->energy_mj();
    const double dt_s = (now - last_t).as_seconds_f();
    if (dt_s > 0) {
      tracer->timeline().push(obs::SeriesId::kCpuPowerMw, last_t, (mj - last_mj) / dt_s);
      last_t = now;
      last_mj = mj;
    }
  }
};

SessionInstance::SessionInstance(const SessionConfig& config, const SessionHooks& hooks,
                                 SessionArena* arena)
    : config_(&config),
      simulator_(arena != nullptr ? &arena->events : nullptr),
      master_(config.seed),
      tracer_(hooks.tracer) {
  obs::Tracer* tracer = tracer_;

  // Resolve the device: the population draw (a pure hash of the seed) if
  // a mix is set, else the configured profile.
  const device::DeviceProfile& prof =
      config.population.empty() ? config.profile : config.population.pick(config.seed);
  device_ = &prof;
  const std::vector<device::ClusterSpec>& specs = prof.clusters;
  if (specs.empty()) {
    throw SessionError("device profile '" + prof.name + "' has no clusters");
  }

  if (tracer != nullptr) {
    tracer->record(simulator_.now(), obs::EventKind::kSessionBegin, config.seed,
                   static_cast<std::uint64_t>(config.media_duration.as_micros()));
  }

  registry_ = std::make_unique<cpu::GovernorRegistry>();
  governors::register_standard(*registry_);
  tree_ = std::make_unique<sysfs::Tree>();
  sysfs::Tree& tree = *tree_;

  // "vafs-oracle" = the VAFS controller with perfect decode-cost knowledge
  // and no safety margin: the offline lower bound for the energy tables.
  const bool use_oracle = config.governor == "vafs-oracle";
  const bool use_vafs = config.governor == "vafs" || use_oracle;

  // One cluster at a time, in policy order: model (+ cpuidle), policy,
  // kFreqChange tracing, sysfs binder. Each cluster is fully built before
  // the next is touched — the governor-timer event order in the queue
  // depends on it, and the golden digests pin that order.
  for (std::size_t i = 0; i < specs.size(); ++i) {
    cpus_.push_back(std::make_unique<cpu::CpuModel>(simulator_, specs[i].opps,
                                                    cpu::CpuPowerModel(specs[i].power),
                                                    specs[i].transition_latency));
    cpu::CpuModel& model = *cpus_[i];
    // kShallowOnly with the default WFI power is exactly the base model's
    // flat idle pricing; attach a cpuidle model only for deeper strategies.
    if (prof.cpuidle != cpu::CpuidleStrategy::kShallowOnly) {
      cpuidles_.push_back(std::make_unique<cpu::CpuidleModel>(prof.cpuidle_params, prof.cpuidle));
      model.set_cpuidle(cpuidles_.back().get());
    }
    // VAFS boots on a stock governor and takes over through sysfs, exactly
    // as a userspace daemon on a device would.
    policies_.push_back(std::make_unique<cpu::CpufreqPolicy>(
        simulator_, model, *registry_, use_vafs ? "ondemand" : config.governor));
    policies_[i]->set_tracer(tracer);
    if (tracer != nullptr) {
      model.add_freq_listener(
          [sim = &simulator_, tracer, i](std::uint32_t old_khz, std::uint32_t new_khz) {
            tracer->record(sim->now(), obs::EventKind::kFreqChange, old_khz, new_khz, i);
          });
      // Frequency series and power probe: cluster 0's, for a tracer that
      // keeps a timeline.
      if (i == 0 && tracer->keeps_timeline()) {
        power_probe_ = std::make_shared<PowerProbe>(
            PowerProbe{&simulator_, &model, tracer, simulator_.now(), model.energy_mj()});
        tracer->timeline().push(obs::SeriesId::kFreqKhz, simulator_.now(),
                                static_cast<double>(model.cur_freq_khz()));
        model.add_freq_listener([probe = power_probe_](std::uint32_t, std::uint32_t new_khz) {
          probe->tracer->timeline().push(obs::SeriesId::kFreqKhz, probe->sim->now(),
                                         static_cast<double>(new_khz));
          probe->flush();
        });
      }
    }
    binders_.push_back(
        std::make_unique<cpu::CpufreqSysfs>(tree, *policies_[i], static_cast<int>(i)));
  }

  // Program sampling-governor tunables through the same sysfs store hooks
  // a userspace tool would use, on every cluster's policy directory. Done
  // after all binders exist and before VAFS attaches (VAFS boots on
  // "ondemand", so its pre-attach warmup honours the tuned values too).
  for (const auto& [rel_path, value] : config.governor_tunables) {
    for (auto& b : binders_) {
      const sysfs::Status st = b->store(rel_path, value);
      if (!st.ok()) {
        throw SessionError("governor tunable '" + rel_path + "' = '" + value + "' rejected at " +
                           b->dir() + ": " + std::string(sysfs::errno_name(st.error())));
      }
    }
  }

  // Decode and the network stack run on cluster 0 unless a router places
  // them; one cluster has nothing to place.
  sink_ = cpus_[0].get();
  if (specs.size() > 1) {
    std::vector<sched::ClusterRouter::ClusterRef> refs;
    refs.reserve(specs.size());
    for (std::size_t i = 0; i < specs.size(); ++i) {
      refs.push_back(sched::ClusterRouter::ClusterRef{cpus_[i].get(), specs[i].cycle_penalty});
    }
    router_ = std::make_unique<sched::ClusterRouter>(std::move(refs));
    sink_ = router_.get();
  }

  radio_ = std::make_unique<net::RadioModel>(simulator_, prof.radio);
  bandwidth_ = make_bandwidth(config, master_.fork(1));

  manifest_ = std::make_unique<video::Manifest>(
      video::Manifest::typical_vod("vod", config.media_duration, config.segment_duration));
  content_ = std::make_unique<video::ContentModel>(master_.fork(2).next_u64(), config.content,
                                                   manifest_.get());
  if (arena != nullptr) {
    // Grids replay the same workload under every governor; share the
    // synthesized frames across those sessions (exact: every value is a
    // pure function of the key).
    SessionArena::ContentKey key;
    key.seed = config.seed;
    key.media_us = config.media_duration.as_micros();
    key.segment_us = config.segment_duration.as_micros();
    key.params = config.content;
    content_->use_store(&arena->content_store(key));
  }

  if (config.fixed_rep >= manifest_->representation_count()) {
    throw SessionError("fixed_rep " + std::to_string(config.fixed_rep) +
                       " out of range: manifest has " +
                       std::to_string(manifest_->representation_count()) + " representations");
  }

  // Fault layer. Built only when a fault source is enabled; the forks here
  // come *after* the bandwidth (fork 1) and content (fork 2) draws, so the
  // base workload trajectory is identical with and without faults, and a
  // fault-free session draws nothing extra (byte-identical schedule).
  net::BandwidthProcess* link = bandwidth_.get();
  net::FetchFaultHook* fetch_faults = nullptr;
  if (config.fault.any()) {
    fault::FaultPlan plan(config.fault, master_.fork(3), config.sim_cap);
    injector_ = std::make_unique<fault::FaultInjector>(std::move(plan), master_.fork(4));
    injector_->set_tracer(tracer);
    faulty_bandwidth_ = std::make_unique<fault::FaultyBandwidth>(*bandwidth_, *injector_);
    link = faulty_bandwidth_.get();
    fetch_faults = injector_.get();
    if (tracer != nullptr) {
      // Planned fault windows, announced up front as complete spans (the
      // runtime injections they cause are traced as they happen).
      for (int k = 0; k < static_cast<int>(fault::kFaultKindCount); ++k) {
        const auto kind = static_cast<fault::FaultKind>(k);
        for (const auto& w : injector_->plan().windows(kind)) {
          tracer->record(w.start, obs::EventKind::kFaultWindow, static_cast<std::uint64_t>(k),
                         static_cast<std::uint64_t>((w.end - w.start).as_micros()),
                         static_cast<std::uint64_t>(w.magnitude * 1e6));
        }
      }
    }
  }

  // The jitter stream is consumed only on actual retries, so deriving it
  // from the session seed (no master draw) keeps fault-free sessions
  // byte-identical while giving each seed distinct backoff timing.
  downloader_ = std::make_unique<net::Downloader>(simulator_, *radio_, *link, sink_,
                                                  config.downloader, fetch_faults,
                                                  config.seed ^ 0x9E3779B97F4A7C15ULL);
  downloader_->set_tracer(tracer);

  player_ = std::make_unique<stream::Player>(simulator_, *sink_, *downloader_, *content_,
                                             make_abr(config), config.player);
  player_->set_tracer(tracer);

  if (injector_ != nullptr) {
    if (!injector_->plan().windows(fault::FaultKind::kDecodeSpike).empty()) {
      fault::FaultInjector* inj = injector_.get();
      player_->set_decode_scale([inj](sim::SimTime now) { return inj->decode_scale(now); });
    }
    if (!injector_->plan().windows(fault::FaultKind::kSysfsWriteFault).empty()) {
      fault::FaultInjector* inj = injector_.get();
      sim::Simulator* sim = &simulator_;
      tree.set_write_interceptor(
          [inj, sim](std::string_view path, std::string_view) -> std::optional<sysfs::Errno> {
            if (!path.ends_with("/scaling_setspeed")) return std::nullopt;
            return inj->sysfs_write_error(sim->now());
          });
    }
    // Thermal-cap excursions arrive the way a vendor thermal daemon's do:
    // scaling_max_freq writes on the big policy, restored at window end.
    const auto& caps = injector_->plan().windows(fault::FaultKind::kThermalCap);
    if (!caps.empty()) {
      const std::uint32_t fmax = cpus_[0]->opps().max().freq_khz;
      const std::string max_path = binders_[0]->dir() + "/scaling_max_freq";
      sysfs::Tree* tree_ptr = tree_.get();
      for (const auto& window : caps) {
        const auto capped =
            static_cast<std::uint32_t>(window.magnitude * static_cast<double>(fmax));
        simulator_.at(window.start, [tree_ptr, max_path, capped] {
          (void)tree_ptr->write(max_path, std::to_string(capped));
        });
        simulator_.at(window.end, [tree_ptr, max_path, fmax] {
          (void)tree_ptr->write(max_path, std::to_string(fmax));
        });
      }
    }
  }

  if (use_vafs) {
    VafsConfig vafs_config = config.vafs;
    if (use_oracle) {
      vafs_config.oracle = true;
      vafs_config.safety_margin = 0.0;
    }
    std::vector<std::string> policy_dirs;
    for (const auto& b : binders_) policy_dirs.push_back(b->dir());
    vafs_controller_ = std::make_unique<VafsController>(
        simulator_, tree, std::move(policy_dirs), router_.get(), *player_, vafs_config);
    vafs_controller_->set_tracer(tracer);  // before attach: traces boot-time fallback
    if (hooks.decision_backend != nullptr) {
      vafs_controller_->set_decision_backend(hooks.decision_backend);
    }
    if (!vafs_controller_->attach()) {
      throw SessionError("VAFS failed to attach through sysfs (userspace governor rejected)");
    }
  }

  if (config.thermal_enabled) {
    // The sensor sits on the primary cluster — the hottest die area — and
    // the throttle acts on its policy, as vendor thermal drivers do.
    thermal_model_ = std::make_unique<thermal::ThermalModel>(simulator_, *cpus_[0],
                                                             prof.thermal);
    throttle_ = std::make_unique<thermal::ThermalThrottle>(*thermal_model_, *policies_[0],
                                                           config.throttle);
  }

  std::vector<cpu::CpuModel*> metered_cpus;
  for (const auto& c : cpus_) metered_cpus.push_back(c.get());
  meter_ = std::make_unique<energy::DeviceEnergyMeter>(simulator_, metered_cpus, *radio_,
                                                       prof.display_mw);

  if (hooks.on_ready) {
    SessionLive live;
    live.sim = &simulator_;
    live.tree = tree_.get();
    live.player = player_.get();
    live.faults = injector_.get();
    hooks.on_ready(live);
  }

  meter_->reset();
  player_->start([this] { done_ = true; });

  if (config.task_timeout_ms > 0) {
    deadline_armed_ = true;
    wall_deadline_ =
        std::chrono::steady_clock::now() + std::chrono::milliseconds(config.task_timeout_ms);
  }
}

SessionInstance::~SessionInstance() = default;

bool SessionInstance::step_one() {
  // Governor timers run forever, so the queue never drains on its own;
  // the session retires on the player's completion (or the safety cap).
  if (done_ || simulator_.now() >= config_->sim_cap) return false;
  if (deadline_armed_ && (++deadline_ticks_ & 0xFFF) == 0 &&
      std::chrono::steady_clock::now() >= wall_deadline_) {
    // Deterministic message (no tick or time counts): the same timed-out
    // task produces the same captured failure text on every run.
    throw SessionError("wall-clock task timeout: task_timeout_ms=" +
                       std::to_string(config_->task_timeout_ms) + " exceeded");
  }
  return simulator_.step();
}

SessionResult SessionInstance::finish() {
  obs::Tracer* tracer = tracer_;
  if (tracer != nullptr) {
    // Close the stream: flush the last constant-frequency power segment
    // (never flushed by the listener — no further transition occurs), end
    // any open watchdog fallback span, then end the session span.
    if (power_probe_ != nullptr) power_probe_->flush();
    if (vafs_controller_ != nullptr && vafs_controller_->in_fallback()) {
      tracer->record(simulator_.now(), obs::EventKind::kFallbackEnd);
    }
    tracer->record(simulator_.now(), obs::EventKind::kSessionEnd);
  }

  SessionResult result;
  result.finished = done_;
  result.sim_events = simulator_.events_executed();
  result.qoe = player_->qoe();
  result.energy = meter_->report();
  result.wall = result.energy.wall;
  result.played = player_->played();
  result.live_latency = player_->live_latency();
  result.radio_promotions = radio_->promotion_count();

  result.fetch_timeouts = downloader_->total_timeouts();
  if (injector_) {
    result.fault_windows = injector_->plan().total_windows();
    result.injected_fetch_failures = injector_->injected_fetch_failures();
    result.injected_fetch_hangs = injector_->injected_fetch_hangs();
    result.injected_sysfs_errors = injector_->injected_sysfs_errors();
  }
  if (vafs_controller_) {
    result.vafs_decode_mape = vafs_controller_->decode_mape();
    result.vafs_plans = vafs_controller_->plan_count();
    result.vafs_setspeed_writes = vafs_controller_->setspeed_writes();
    result.vafs_fallback_entries = vafs_controller_->fallback_entries();
    result.vafs_fallback_time = vafs_controller_->fallback_time();
    result.vafs_sysfs_write_errors = vafs_controller_->sysfs_write_errors();
  }
  if (thermal_model_) {
    result.peak_temp_c = thermal_model_->peak_temperature_c();
    result.mean_temp_c = thermal_model_->temperature_stats().mean();
    result.throttled_time = throttle_->throttled_time();
    result.throttle_events = throttle_->throttle_events();
  }
  if (router_) result.decode_migrations = router_->migrations();
  result.device = device_->name;
  for (std::size_t i = 0; i < cpus_.size(); ++i) {
    SessionResult::ClusterReport report;
    report.name = device_->clusters[i].name;
    report.cpu_mj = cpus_[i]->energy_mj();
    report.freq_transitions = cpus_[i]->transition_count();
    report.busy_fraction =
        result.wall > sim::SimTime::zero()
            ? cpus_[i]->total_busy_time().as_seconds_f() / result.wall.as_seconds_f()
            : 0.0;
    const auto& cluster_opps = cpus_[i]->opps();
    for (std::size_t j = 0; j < cluster_opps.size(); ++j) {
      const double frac = result.wall > sim::SimTime::zero()
                              ? cpus_[i]->time_in_state(j).as_seconds_f() /
                                    result.wall.as_seconds_f()
                              : 0.0;
      report.residency.emplace_back(cluster_opps.at(j).freq_khz, frac);
    }
    if (router_) report.decode_frames = router_->decode_tasks_on(i);
    result.clusters.push_back(std::move(report));
  }
  if (tracer != nullptr) {
    result.trace_digest = tracer->digest();
    result.trace_events = tracer->recorded();
  }
  return result;
}

}  // namespace vafs::core
