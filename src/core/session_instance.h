// A fully-built, steppable streaming session: the device bring-up, run
// loop and result extraction of core::run_session, split into construct /
// step / finish so a caller can own the clock. run_session() is a thin
// wrapper (construct, step until retired, finish); perfbench times the
// three phases separately, and bench_s1_serving steps many instances
// round-robin on one thread to hold that many decision streams open.
// Instances share nothing, so any interleaving of their steps yields the
// same per-session results as run_session.
#pragma once

#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/session.h"
#include "simcore/rng.h"

namespace vafs::cpu {
class CpufreqSysfs;
}
namespace vafs::fault {
class FaultyBandwidth;
}

namespace vafs::core {

class SessionInstance {
 public:
  /// Brings up the full device and starts the player, exactly as
  /// run_session did: every component constructed — and every event
  /// scheduled — in the same order, so the queue's sequence numbers (the
  /// tie-break for simultaneous events) are identical. Throws SessionError
  /// on invalid configuration or failed bring-up.
  ///
  /// `config` and the hooks' tracer must outlive the instance; `arena`
  /// may be null.
  SessionInstance(const SessionConfig& config, const SessionHooks& hooks, SessionArena* arena);
  ~SessionInstance();
  SessionInstance(const SessionInstance&) = delete;
  SessionInstance& operator=(const SessionInstance&) = delete;

  /// One iteration of the canonical run loop: fires the next event if the
  /// session is still live. Returns false once the session is retired —
  /// the player finished, the clock reached sim_cap, or the queue drained.
  bool step_one();

  /// Closes the trace stream and extracts the SessionResult — the exact
  /// tail of run_session. Call once, after the run loop; the instance is
  /// dead afterwards (destruction is all that remains).
  SessionResult finish();

 private:
  struct PowerProbe;

  // Members are declared in construction order, so reverse member
  // destruction unwinds bring-up: every component dies before the
  // simulator it schedules on.
  const SessionConfig* config_;
  sim::Simulator simulator_;
  sim::Rng master_;
  obs::Tracer* tracer_;

  const device::DeviceProfile* device_ = nullptr;  // config_->profile or its draw

  std::unique_ptr<cpu::GovernorRegistry> registry_;
  std::unique_ptr<sysfs::Tree> tree_;
  // Per cluster, in policy order.
  std::vector<std::unique_ptr<cpu::CpuModel>> cpus_;
  std::vector<std::unique_ptr<cpu::CpuidleModel>> cpuidles_;
  std::vector<std::unique_ptr<cpu::CpufreqPolicy>> policies_;
  std::shared_ptr<PowerProbe> power_probe_;
  std::vector<std::unique_ptr<cpu::CpufreqSysfs>> binders_;
  std::unique_ptr<sched::ClusterRouter> router_;
  cpu::CpuSink* sink_ = nullptr;
  std::unique_ptr<net::RadioModel> radio_;
  std::unique_ptr<net::BandwidthProcess> bandwidth_;
  std::unique_ptr<video::Manifest> manifest_;
  std::unique_ptr<video::ContentModel> content_;
  std::unique_ptr<fault::FaultInjector> injector_;
  std::unique_ptr<fault::FaultyBandwidth> faulty_bandwidth_;
  std::unique_ptr<net::Downloader> downloader_;
  std::unique_ptr<stream::Player> player_;
  std::unique_ptr<VafsController> vafs_controller_;
  std::unique_ptr<thermal::ThermalModel> thermal_model_;
  std::unique_ptr<thermal::ThermalThrottle> throttle_;
  std::unique_ptr<energy::DeviceEnergyMeter> meter_;

  bool done_ = false;

  // Cooperative wall-clock deadline (config.task_timeout_ms > 0). The
  // clock is sampled every 4096 steps so on-time sessions pay ~nothing and
  // execute the identical event sequence with or without a timeout.
  bool deadline_armed_ = false;
  std::uint64_t deadline_ticks_ = 0;
  std::chrono::steady_clock::time_point wall_deadline_{};
};

}  // namespace vafs::core
