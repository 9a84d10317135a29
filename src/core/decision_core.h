// The VAFS decision core — the governor's plan math as a request/response
// service.
//
// VafsController historically computed its frequency plans inline, reading
// the player and simulator directly. This header splits the *decision*
// (what frequency should each cluster run at, given what the pipeline
// looks like right now?) from the *actuation* (sysfs writes, watchdog,
// tracing), so the same decision logic can run
//
//   - in-process, as before (LocalDecisionBackend — the default), or
//   - in a long-lived daemon answering thousands of device streams over a
//     socket (src/serve/), with the controller acting as a thin client.
//
// Determinism contract: a DecisionCore is a pure state machine. Its next
// response is a function of (VafsConfig, DecisionGeometry, the ordered
// request stream so far) and nothing else — no clocks, no allocator
// addresses, no thread identity. Requests carry doubles whose bit
// patterns survive serialization verbatim, and the core performs the
// exact floating-point operations the inline controller performed, in the
// same order. A session whose decisions are answered remotely therefore
// actuates the exact same frequencies at the exact same sim times and
// produces a bit-identical obs digest chain (proved by tests/serve_test).
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "core/predictor.h"
#include "simcore/time.h"

namespace vafs::core {

/// Deadline-miss / actuation watchdog. When enabled, repeated deadline
/// misses or consecutive failed scaling_setspeed writes fail the
/// controller over to a safe mode — hand the policy back to a kernel
/// governor, or stay on userspace pinned at fmax — and re-engage only
/// after a hysteresis window with no further incidents. (Actuation-side:
/// the watchdog lives in VafsController, never in the decision core.)
struct VafsWatchdogConfig {
  bool enabled = false;

  /// Deadline misses within miss_window that trip the failover (the
  /// window tumbles: it restarts at the first miss after a quiet gap).
  std::uint32_t miss_threshold = 8;
  sim::SimTime miss_window = sim::SimTime::seconds(2);

  /// Consecutive rejected scaling_setspeed writes that trip the failover.
  std::uint32_t write_error_threshold = 3;

  /// Clean operation (no miss, no write error) required before the
  /// controller re-takes the policy.
  sim::SimTime hysteresis = sim::SimTime::seconds(5);

  /// kRestoreGovernor hands the policy to fallback_governor for the
  /// fallback's duration; kPinMax keeps the userspace governor but runs
  /// at fmax (safe, not frugal).
  enum class Mode : std::uint8_t { kRestoreGovernor, kPinMax };
  Mode mode = Mode::kRestoreGovernor;
  std::string fallback_governor = "ondemand";
};

struct VafsConfig {
  /// Headroom multiplier over predicted demand (F6 ablates it).
  double safety_margin = 0.15;
  /// Larger headroom before playback starts (startup delay matters more
  /// than energy for the first seconds).
  double startup_margin = 0.5;

  PredictorConfig predictor;

  /// Treat downloads as network-bound (plan only the protocol-processing
  /// rate). When false, a download in flight runs the network cluster at
  /// its top OPP — the load-reactive behaviour this design exists to
  /// avoid (ablation). Decode is planned as usual wherever it runs; on
  /// one cluster that cluster is the network cluster, so it plans f_max.
  bool race_to_idle_downloads = true;

  /// Offline-calibrated network-stack cost. Matches DownloaderParams.
  double protocol_cycles_per_byte = 8.0;

  /// Throughput assumed for download planning before any measurement.
  double default_throughput_mbps = 15.0;

  /// Audio decode cost per frame period, matching
  /// PlayerConfig::audio_cycles_per_frame (offline-calibrated codec cost;
  /// 0 when the player has no audio pipeline).
  double audio_cycles_per_frame = 0.0;

  /// One-OPP boost window after a dropped frame / thin pipeline.
  sim::SimTime boost_duration = sim::SimTime::millis(500);
  /// decoded_ahead() at or below this (while playing) triggers a boost.
  std::uint64_t low_ahead_frames = 1;

  /// Decode-cost observations per representation before the predictor is
  /// trusted; until then the plan floor is cold_start_fraction × f_max.
  std::size_t min_observations = 3;
  double cold_start_fraction = 0.6;

  /// Frame-class-aware prediction: separate predictors for IDR and P
  /// frames, blended by the observed IDR fraction. Tightens prediction on
  /// content with heavy intra frames (short GOPs); ablated in T3.
  bool class_aware = true;

  /// Oracle mode: replace the predictor with the *exact* decode cost of
  /// the upcoming GOP (perfect future knowledge, impossible on a real
  /// device). Combined with safety_margin = 0 this is the offline
  /// lower-bound baseline the evaluation measures VAFS against. The GOP
  /// scan needs the content model, which lives with the session — the
  /// client computes DecisionRequest::oracle_decode_hz and the core
  /// consumes it, so oracle sessions serve remotely like any other.
  bool oracle = false;

  /// Off by default: fault-free sessions keep their exact pre-watchdog
  /// behaviour (a clean VAFS run drops the occasional frame without that
  /// being a failure).
  VafsWatchdogConfig watchdog;
};

/// Hard cap on clusters a decision spans — wide enough for any registry
/// profile (max 3 today), small enough to keep responses fixed-size.
inline constexpr std::size_t kMaxDecisionClusters = 8;

/// Static per-stream device geometry, captured once at stream open (at
/// VafsController::attach, after the sysfs frequency tables are read).
struct DecisionGeometry {
  struct Cluster {
    /// Available OPP frequencies, ascending (scaling_available_frequencies).
    std::vector<std::uint32_t> available_khz;
    /// Reference-cycle inflation on this cluster (ClusterRouter penalty).
    double cycle_penalty = 1.0;
    /// Reference-cycle retire rate at f_max (ClusterRouter::capacity_khz).
    double capacity_khz = 0.0;
  };
  std::vector<Cluster> clusters;  // policy order: [0] is policy0
  /// Router cluster roles: decode's fallback home and the cluster that
  /// runs the network stack. On one cluster both are 0.
  std::uint32_t primary = 0;
  std::uint32_t network = 0;
};

/// Mirror of stream::PlayerState — the decision core must not pull the
/// player stack into the daemon's dependency cone. Values are pinned by
/// static_asserts in vafs_controller.cpp.
enum class DecisionPlayerState : std::uint8_t {
  kIdle,
  kStartup,
  kPlaying,
  kRebuffering,
  kSeeking,
  kFinished,
};

/// What happened in the pipeline to trigger this request. Only the kinds
/// that mutate core state are distinguished; every other trigger (state
/// change, fetch begin/end, explicit replan) is kReplan — the snapshot
/// fields carry all the information those plans use.
enum class DecisionEvent : std::uint8_t {
  kReplan = 0,
  /// A frame finished decoding: feed (observe_rep, observe_cycles,
  /// observe_idr) to the predictor, then plan.
  kDecodeComplete = 1,
  /// A frame was dropped: open the one-OPP boost window, then plan.
  kFrameDropped = 2,
  /// No plan — fill DecisionResponse::decode_mape (end-of-session stats).
  kQueryStats = 3,
};

struct DecisionRequest {
  DecisionEvent event = DecisionEvent::kReplan;
  /// False while the controller cannot actuate (watchdog fallback): the
  /// core applies the event's state mutation but skips the plan, exactly
  /// as the inline controller's early-return did.
  bool want_plan = true;

  // --- Pipeline snapshot (what plan_now used to read directly) ---
  std::int64_t now_us = 0;
  DecisionPlayerState player_state = DecisionPlayerState::kIdle;
  bool downloading = false;
  std::uint64_t decoded_ahead = 0;
  std::uint64_t decoded_frames = 0;
  std::uint64_t total_frames = 0;
  std::int64_t frame_period_us = 0;
  std::uint64_t current_rep = 0;
  /// Measured throughput estimate; <= 0 means "no measurement yet".
  double throughput_mbps = 0.0;
  /// Client-computed oracle decode demand (Hz); consumed only when
  /// VafsConfig::oracle is set.
  double oracle_decode_hz = 0.0;

  // --- kDecodeComplete payload ---
  std::uint64_t observe_rep = 0;
  double observe_cycles = 0.0;
  bool observe_idr = false;
};

struct DecisionResponse {
  /// True iff a plan was computed (want_plan and not kQueryStats).
  bool planned = false;
  bool boosted = false;
  bool latency_critical = false;
  /// Router decode placement (geometry cluster index; 0 single-cluster).
  std::uint32_t decode_cluster = 0;
  std::uint32_t cluster_count = 0;
  /// Target frequency per cluster, geometry order.
  std::uint32_t target_khz[kMaxDecisionClusters] = {};
  /// kQueryStats only: MAPE across the per-representation predictors.
  double decode_mape = 0.0;
};

/// The pure decision state machine: predictor histories, the boost
/// window, and the plan math, over a fixed geometry. One per stream.
class DecisionCore {
 public:
  DecisionCore(const VafsConfig& config, DecisionGeometry geometry);

  DecisionCore(const DecisionCore&) = delete;
  DecisionCore& operator=(const DecisionCore&) = delete;

  DecisionResponse decide(const DecisionRequest& request);

  // ---- Introspection (local mode and tests) ----
  const CycleDemandPredictor* decode_predictor(std::size_t rep, bool idr = false) const;
  double decode_mape() const;
  const VafsConfig& config() const { return config_; }
  const DecisionGeometry& geometry() const { return geometry_; }

 private:
  double decode_demand_hz(const DecisionRequest& req) const;
  double download_demand_hz(const DecisionRequest& req) const;
  double audio_demand_hz(const DecisionRequest& req) const;
  static std::uint32_t snap(const std::vector<std::uint32_t>& table, double required_khz,
                            bool boosted);
  void plan(const DecisionRequest& req, double margin, bool boosted,
            DecisionResponse& out) const;

  VafsConfig config_;
  DecisionGeometry geometry_;
  /// Decode's candidate clusters, every cluster but the primary in
  /// ascending capacity (stable), fixed at construction.
  std::vector<std::uint32_t> candidates_;

  /// Per-representation decode state: separate IDR/P predictors (merged
  /// into `p` when class_aware is off) plus the observed class mix.
  struct DecodeHistory {
    explicit DecodeHistory(const PredictorConfig& config) : p(config), idr(config) {}
    CycleDemandPredictor p;
    CycleDemandPredictor idr;
    std::uint64_t idr_frames = 0;
    std::uint64_t total_frames = 0;
  };
  std::map<std::size_t, DecodeHistory> decode_histories_;

  std::int64_t boost_until_us_ = 0;
};

/// Everything a backend needs to stand up the decision state for one
/// session: the VAFS config (watchdog fields are carried but unused by
/// the core) and the device geometry.
struct DecisionStreamInfo {
  VafsConfig config;
  DecisionGeometry geometry;
};

/// One session's decision channel. decide() may throw (core::SessionError
/// from a remote backend on connection loss or a server-side error); the
/// session surfaces that as a captured task failure.
class DecisionStream {
 public:
  virtual ~DecisionStream() = default;
  virtual DecisionResponse decide(const DecisionRequest& request) = 0;
  /// Local streams expose their core for introspection (predictor
  /// accessors, tests); remote streams return nullptr.
  virtual DecisionCore* local_core() { return nullptr; }
};

/// Factory for decision streams. The default (local) backend services
/// decisions in-process; src/serve's SocketBackend answers them from a
/// daemon over a Unix socket.
class DecisionBackend {
 public:
  virtual ~DecisionBackend() = default;
  virtual std::unique_ptr<DecisionStream> open(const DecisionStreamInfo& info) = 0;
};

/// The in-process backend: a DecisionCore behind the DecisionStream
/// interface — one virtual call of indirection, nothing else.
class LocalDecisionBackend final : public DecisionBackend {
 public:
  std::unique_ptr<DecisionStream> open(const DecisionStreamInfo& info) override;
};

}  // namespace vafs::core
