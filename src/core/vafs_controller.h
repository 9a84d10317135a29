// VAFS — Video-Aware Frequency Scaling. The paper's contribution.
//
// A *userspace* policy: it observes the player pipeline, predicts the CPU
// cycle demand of the current phase, derives the minimum frequency that
// meets the pipeline's soft deadlines with a safety margin, and actuates
// exclusively through the cpufreq sysfs interface:
//
//   echo userspace            > .../scaling_governor       (attach)
//   echo <khz>                > .../scaling_setspeed       (every re-plan)
//
// Demand model (all rates in cycles/second):
//   decode:   predicted cycles-per-frame (per representation, windowed
//             quantile by default) × fps
//   download: measured throughput × protocol cycles-per-byte while a
//             segment fetch is in flight (downloads are network-bound, so
//             the CPU only needs to keep up with arrival — the
//             race_to_idle_downloads flag ablates this against the
//             "burst to max" behaviour of load-reactive governors)
//   target  = (decode + download) × (1 + safety_margin), snapped to the
//             lowest available OPP above it
//
// Recovery: a dropped frame or a thin decode pipeline boosts the plan by
// one OPP for boost_duration. Cold start (too little history) plans a
// conservative mid frequency.
//
// Structure: the controller is the *actuator* — sysfs writes, the
// watchdog, tracing, player observation. The plan math and predictor
// state live in core::DecisionCore (core/decision_core.h); every pipeline
// event becomes a DecisionRequest answered through a DecisionStream,
// which by default wraps an in-process core and can instead be served by
// the decision daemon (src/serve/).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/decision_core.h"
#include "sched/router.h"
#include "simcore/simulator.h"
#include "stream/player.h"
#include "sysfs/tree.h"

namespace vafs::obs {
class Tracer;
}

namespace vafs::core {

class VafsController final : public stream::PlayerObserver {
 public:
  /// `policy_dirs` are the sysfs policy directories of every cluster, in
  /// cluster order, e.g. {"devices/system/cpu/cpufreq/policy0", ...}.
  /// `router` places decode across them and is null on one cluster; with
  /// it, each re-plan chooses the decode cluster: the least capable one
  /// whose IPC-inflated demand (plus the network stack's, when they share
  /// a cluster) fits under its top OPP with margin, the router's primary
  /// cluster otherwise. The controller registers itself as a player
  /// observer. Call attach() to take control of the CPU.
  VafsController(sim::Simulator& simulator, sysfs::Tree& tree,
                 std::vector<std::string> policy_dirs, sched::ClusterRouter* router,
                 stream::Player& player, VafsConfig config = {});

  VafsController(const VafsController&) = delete;
  VafsController& operator=(const VafsController&) = delete;

  /// Route decisions through `backend` (not owned, must outlive the
  /// controller) instead of the in-process default. Call before attach():
  /// the stream opens there, once the device geometry is known.
  void set_decision_backend(DecisionBackend* backend) { backend_ = backend; }

  /// Switches every policy to the userspace governor (via sysfs) and
  /// writes the first plan. Returns false if a frequency table cannot be
  /// read, or if a governor write is rejected with the watchdog off (with
  /// it on, the controller boots into fallback instead).
  bool attach();

  /// Restores `governor` (e.g. "ondemand") on every policy and stops
  /// planning.
  void detach(std::string_view restore_governor);

  /// Re-evaluates the plan and writes scaling_setspeed if it changed.
  /// Public so the overhead benchmark (F9) can time a single decision.
  void plan_now();

  /// Optional tracer (not owned, may be null): plans, setspeed writes and
  /// watchdog transitions are recorded through it. Set before attach() so
  /// the attach-time fallback (if any) lands in the trace.
  void set_tracer(obs::Tracer* tracer) { tracer_ = tracer; }

  // ---- Introspection ----

  std::uint64_t plan_count() const { return plans_; }
  std::uint64_t setspeed_writes() const { return writes_; }
  /// Last frequency written to cluster 0's policy (0 before any write).
  std::uint32_t last_planned_khz() const { return clusters_.front().last_written_khz; }

  /// Watchdog state: currently failed over to safe mode?
  bool in_fallback() const { return fallback_; }
  std::uint64_t fallback_entries() const { return fallback_entries_; }
  /// Total time spent in fallback so far (open interval included).
  sim::SimTime fallback_time() const {
    return fallback_ ? fallback_accum_ + (sim_.now() - fallback_since_) : fallback_accum_;
  }
  /// scaling_setspeed writes rejected by sysfs (counted with or without
  /// the watchdog; only the watchdog acts on them).
  std::uint64_t sysfs_write_errors() const { return write_errors_; }
  /// Decode predictor for a representation and frame class (class-aware
  /// mode keys P and IDR separately; otherwise `idr` is ignored).
  /// Returns nullptr if never observed — or if the decision stream is
  /// remote (predictor state lives in the daemon).
  const CycleDemandPredictor* decode_predictor(std::size_t rep, bool idr = false) const;
  /// MAPE across all per-representation decode predictors. Non-const:
  /// a remote stream answers this with a stats round trip.
  double decode_mape();
  const VafsConfig& config() const { return config_; }

  // ---- PlayerObserver ----

  void on_state_change(stream::PlayerState from, stream::PlayerState to) override;
  void on_segment_request(std::size_t segment, std::size_t rep, std::uint64_t bytes) override;
  void on_segment_complete(std::size_t segment, std::size_t rep,
                           const net::FetchResult& result) override;
  void on_segment_failed(std::size_t segment, std::size_t rep,
                         const net::FetchResult& result) override;
  void on_decode_complete(std::uint64_t frame, double cycles, sim::SimTime wall,
                          bool idr) override;
  void on_frame_dropped(std::uint64_t frame) override;

 private:
  DecisionRequest make_request(DecisionEvent event) const;
  /// Sends the request down the decision stream and actuates the reply:
  /// trace the plan, route decode, write setspeed per cluster (deduped).
  void deliver(const DecisionRequest& request);
  double oracle_decode_hz() const;
  void write_cluster_setspeed(std::size_t cluster, std::uint32_t khz);
  /// Writes `governor` to every policy; true iff every write was accepted.
  bool write_governors(std::string_view governor);
  void note_write_failure();
  void note_deadline_miss();
  /// `cause`: 0 = consecutive write errors, 1 = deadline misses, 2 = the
  /// attach-time governor write was rejected (trace payload only).
  void enter_fallback(std::uint64_t cause);
  void try_reengage();

  sim::Simulator& sim_;
  sysfs::Tree& tree_;
  stream::Player& player_;
  VafsConfig config_;
  obs::Tracer* tracer_ = nullptr;

  // Decision channel: opened at attach() (geometry known then). Default
  // in-process; set_decision_backend() swaps in e.g. the socket client.
  DecisionBackend* backend_ = nullptr;
  LocalDecisionBackend local_backend_;
  std::unique_ptr<DecisionStream> stream_;

  // One entry per policy, in cluster order; the router (null on one
  // cluster) places decode across them.
  struct Cluster {
    std::string dir;
    std::vector<std::uint32_t> available_khz;  // parsed from sysfs, ascending
    std::uint32_t last_written_khz = 0;
  };
  std::vector<Cluster> clusters_;
  sched::ClusterRouter* router_;

  bool attached_ = false;
  bool downloading_ = false;

  /// Oracle GOP-scan memo: the last (rep, window) summed by
  /// oracle_decode_hz() and its result, reused while the window is unmoved.
  mutable std::size_t gop_rep_ = SIZE_MAX;
  mutable std::uint64_t gop_start_ = 0;
  mutable std::uint64_t gop_end_ = 0;
  mutable double gop_cycles_ = 0.0;

  std::uint64_t plans_ = 0;
  std::uint64_t writes_ = 0;

  // Watchdog state.
  bool fallback_ = false;
  std::uint64_t fallback_entries_ = 0;
  sim::SimTime fallback_accum_;
  sim::SimTime fallback_since_;
  sim::SimTime last_incident_;  // most recent miss or write error
  std::uint64_t write_errors_ = 0;
  std::uint32_t consecutive_write_errors_ = 0;
  std::uint32_t miss_count_ = 0;
  sim::SimTime miss_window_start_;
  sim::EventHandle reengage_event_;
};

}  // namespace vafs::core
