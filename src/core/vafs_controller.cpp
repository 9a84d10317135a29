#include "core/vafs_controller.h"

#include <algorithm>
#include <cassert>
#include <cmath>

#include "obs/trace.h"

namespace vafs::core {
namespace {

std::vector<std::uint32_t> parse_freq_list(std::string_view text) {
  std::vector<std::uint32_t> out;
  std::uint64_t cur = 0;
  bool in_number = false;
  for (const char c : text) {
    if (c >= '0' && c <= '9') {
      cur = cur * 10 + static_cast<std::uint64_t>(c - '0');
      in_number = true;
    } else if (in_number) {
      out.push_back(static_cast<std::uint32_t>(cur));
      cur = 0;
      in_number = false;
    }
  }
  if (in_number) out.push_back(static_cast<std::uint32_t>(cur));
  std::sort(out.begin(), out.end());
  return out;
}

// DecisionPlayerState mirrors stream::PlayerState value-for-value so the
// snapshot cast below is a plain relabeling (the decision core must not
// depend on the player stack).
constexpr bool state_mirror_ok(stream::PlayerState s, DecisionPlayerState d) {
  return static_cast<int>(s) == static_cast<int>(d);
}
static_assert(state_mirror_ok(stream::PlayerState::kIdle, DecisionPlayerState::kIdle));
static_assert(state_mirror_ok(stream::PlayerState::kStartup, DecisionPlayerState::kStartup));
static_assert(state_mirror_ok(stream::PlayerState::kPlaying, DecisionPlayerState::kPlaying));
static_assert(
    state_mirror_ok(stream::PlayerState::kRebuffering, DecisionPlayerState::kRebuffering));
static_assert(state_mirror_ok(stream::PlayerState::kSeeking, DecisionPlayerState::kSeeking));
static_assert(state_mirror_ok(stream::PlayerState::kFinished, DecisionPlayerState::kFinished));

}  // namespace

VafsController::VafsController(sim::Simulator& simulator, sysfs::Tree& tree,
                               std::vector<std::string> policy_dirs,
                               sched::ClusterRouter* router, stream::Player& player,
                               VafsConfig config)
    : sim_(simulator), tree_(tree), player_(player), config_(config), router_(router) {
  assert(!policy_dirs.empty());
  assert((router == nullptr ? 1 : router->cluster_count()) == policy_dirs.size() &&
         "one policy dir per router cluster, in router order");
  for (auto& dir : policy_dirs) clusters_.push_back(Cluster{std::move(dir), {}, 0});
  player_.add_observer(this);
}

bool VafsController::write_governors(std::string_view governor) {
  bool all_ok = true;
  for (const Cluster& c : clusters_) {
    all_ok = tree_.write(c.dir + "/scaling_governor", governor).ok() && all_ok;
  }
  return all_ok;
}

bool VafsController::attach() {
  for (Cluster& c : clusters_) {
    const auto avail = tree_.read(c.dir + "/scaling_available_frequencies");
    if (!avail.ok()) return false;
    c.available_khz = parse_freq_list(avail.value());
    if (c.available_khz.empty()) return false;
  }

  // The frequency tables are known: open the decision stream now, before
  // the governor takeover, so a watchdog boot-fallback still has a live
  // stream accumulating observations for the eventual re-engage.
  DecisionGeometry geometry;
  geometry.clusters.resize(clusters_.size());
  for (std::size_t c = 0; c < clusters_.size(); ++c) {
    geometry.clusters[c].available_khz = clusters_[c].available_khz;
    if (router_ != nullptr) {
      geometry.clusters[c].cycle_penalty = router_->cycle_penalty(c);
      geometry.clusters[c].capacity_khz = router_->capacity_khz(c);
    }
  }
  if (router_ != nullptr) {
    geometry.primary = static_cast<std::uint32_t>(router_->primary_cluster());
    geometry.network = static_cast<std::uint32_t>(router_->network_cluster());
  }
  DecisionBackend* backend = backend_ != nullptr ? backend_ : &local_backend_;
  stream_ = backend->open(DecisionStreamInfo{config_, std::move(geometry)});

  const bool taken = write_governors("userspace");
  if (!taken && !config_.watchdog.enabled) return false;
  attached_ = true;
  for (Cluster& c : clusters_) c.last_written_khz = 0;
  if (!taken) {
    // Boot straight into safe mode; the hysteresis timer retries the
    // takeover once the actuation channel recovers.
    enter_fallback(2);
    return true;
  }
  plan_now();
  return true;
}

void VafsController::detach(std::string_view restore_governor) {
  if (!attached_) return;
  attached_ = false;
  reengage_event_.cancel();
  if (fallback_) {
    fallback_accum_ += sim_.now() - fallback_since_;
    fallback_ = false;
    if (tracer_ != nullptr) tracer_->record(sim_.now(), obs::EventKind::kFallbackEnd);
  }
  write_governors(restore_governor);
}

double VafsController::oracle_decode_hz() const {
  // Perfect knowledge: mean decode cost of the next GOP's worth of
  // frames, read straight from the content model (the frame timeline is
  // fps-aligned across representations, so indexing by playback frame is
  // exact for fixed-rep sessions and a close bound under ABR).
  if (player_.state() == stream::PlayerState::kFinished) return 0.0;
  const double fps = 1.0 / player_.frame_period().as_seconds_f();
  const std::size_t rep = player_.current_rep();
  const auto& content = player_.content();
  const std::uint64_t start = player_.decoded_frames();
  const std::uint64_t gop = content.params().gop_frames;
  const std::uint64_t end = std::min(start + gop, player_.total_frames());
  if (end <= start) return 0.0;
  // Most plans arrive between decodes (fetch/state triggers), with the
  // window unmoved — reuse the last sum; recompute (identically) when
  // the window advances.
  if (rep != gop_rep_ || start != gop_start_ || end != gop_end_) {
    double cycles = 0.0;
    for (std::uint64_t f = start; f < end; ++f) {
      cycles += content.frame(rep, f).decode_cycles;
    }
    gop_rep_ = rep;
    gop_start_ = start;
    gop_end_ = end;
    gop_cycles_ = cycles;
  }
  return gop_cycles_ / static_cast<double>(end - start) * fps;
}

DecisionRequest VafsController::make_request(DecisionEvent event) const {
  DecisionRequest req;
  req.event = event;
  req.want_plan = attached_ && !fallback_;  // safe mode owns the policy
  req.now_us = sim_.now().as_micros();
  req.player_state = static_cast<DecisionPlayerState>(player_.state());
  req.downloading = downloading_;
  req.decoded_ahead = player_.decoded_ahead();
  req.decoded_frames = player_.decoded_frames();
  req.total_frames = player_.total_frames();
  req.frame_period_us = player_.frame_period().as_micros();
  req.current_rep = player_.current_rep();
  req.throughput_mbps = player_.throughput_estimate_mbps();
  if (config_.oracle) req.oracle_decode_hz = oracle_decode_hz();
  return req;
}

void VafsController::deliver(const DecisionRequest& request) {
  if (stream_ == nullptr) return;  // before attach() no stream exists
  // A plain replan with planning suppressed carries no state mutation:
  // skip the round trip entirely (kDecodeComplete / kFrameDropped must
  // still go through — observations and boosts accumulate in fallback).
  if (!request.want_plan && request.event == DecisionEvent::kReplan) return;

  const DecisionResponse resp = stream_->decide(request);
  if (!resp.planned) return;
  ++plans_;

  if (tracer_ != nullptr) {
    tracer_->record(sim_.now(), obs::EventKind::kVafsPlan,
                    static_cast<std::uint64_t>(request.player_state), resp.boosted ? 1 : 0,
                    resp.latency_critical ? 1 : 0);
  }

  if (router_ != nullptr) router_->set_decode_cluster(resp.decode_cluster);
  for (std::size_t c = 0; c < resp.cluster_count; ++c) {
    write_cluster_setspeed(c, resp.target_khz[c]);
  }
}

void VafsController::plan_now() { deliver(make_request(DecisionEvent::kReplan)); }

void VafsController::write_cluster_setspeed(std::size_t cluster, std::uint32_t khz) {
  Cluster& c = clusters_[cluster];
  if (khz == c.last_written_khz) return;
  const auto status = tree_.write(c.dir + "/scaling_setspeed", std::to_string(khz));
  if (tracer_ != nullptr) {
    tracer_->record(sim_.now(), obs::EventKind::kSetspeedWrite, khz,
                    static_cast<std::uint64_t>(status.error()), cluster);
  }
  if (!status.ok()) {
    // Keep the last-written record unchanged so the next plan retries the
    // write (the dedup short-circuit would otherwise swallow it).
    note_write_failure();
    return;
  }
  consecutive_write_errors_ = 0;
  c.last_written_khz = khz;
  ++writes_;
}

void VafsController::note_write_failure() {
  ++write_errors_;
  ++consecutive_write_errors_;
  const auto& wd = config_.watchdog;
  if (!wd.enabled || !attached_) return;
  last_incident_ = sim_.now();
  if (!fallback_ && consecutive_write_errors_ >= wd.write_error_threshold) enter_fallback(0);
}

void VafsController::note_deadline_miss() {
  const auto& wd = config_.watchdog;
  if (!wd.enabled || !attached_) return;
  last_incident_ = sim_.now();  // misses during fallback delay re-engage
  if (fallback_) return;
  if (sim_.now() - miss_window_start_ > wd.miss_window) {
    miss_window_start_ = sim_.now();
    miss_count_ = 0;
  }
  if (++miss_count_ >= wd.miss_threshold) enter_fallback(1);
}

void VafsController::enter_fallback(std::uint64_t cause) {
  if (fallback_) return;
  fallback_ = true;
  ++fallback_entries_;
  fallback_since_ = sim_.now();
  last_incident_ = sim_.now();
  consecutive_write_errors_ = 0;
  miss_count_ = 0;
  const auto& wd = config_.watchdog;
  if (tracer_ != nullptr) {
    tracer_->record(sim_.now(), obs::EventKind::kFallbackBegin,
                    static_cast<std::uint64_t>(wd.mode), cause);
  }
  if (wd.mode == VafsWatchdogConfig::Mode::kRestoreGovernor) {
    write_governors(wd.fallback_governor);
  } else {
    // Pin fmax; best-effort — the actuation channel may be the very thing
    // that is broken, in which case the CPU rides at its last frequency
    // until re-engage replans.
    for (Cluster& c : clusters_) {
      const std::uint32_t fmax = c.available_khz.back();
      if (tree_.write(c.dir + "/scaling_setspeed", std::to_string(fmax)).ok()) {
        c.last_written_khz = fmax;
      }
    }
  }
  reengage_event_.cancel();
  reengage_event_ = sim_.after(wd.hysteresis, [this] { try_reengage(); });
}

void VafsController::try_reengage() {
  if (!fallback_ || !attached_) return;
  const auto& wd = config_.watchdog;
  const sim::SimTime clean_at = last_incident_ + wd.hysteresis;
  if (sim_.now() < clean_at) {
    reengage_event_ = sim_.after(clean_at - sim_.now(), [this] { try_reengage(); });
    return;
  }
  if (wd.mode == VafsWatchdogConfig::Mode::kRestoreGovernor &&
      !write_governors("userspace")) {
    reengage_event_ = sim_.after(wd.hysteresis, [this] { try_reengage(); });
    return;
  }
  fallback_accum_ += sim_.now() - fallback_since_;
  fallback_ = false;
  if (tracer_ != nullptr) tracer_->record(sim_.now(), obs::EventKind::kFallbackEnd);
  consecutive_write_errors_ = 0;
  miss_count_ = 0;
  miss_window_start_ = sim_.now();
  // The governor switch reset the frequency out from under us: force the
  // next plan to rewrite whatever it targets.
  for (Cluster& c : clusters_) c.last_written_khz = 0;
  plan_now();
}

const CycleDemandPredictor* VafsController::decode_predictor(std::size_t rep, bool idr) const {
  if (stream_ == nullptr) return nullptr;
  DecisionCore* core = stream_->local_core();
  if (core == nullptr) return nullptr;
  return core->decode_predictor(rep, idr);
}

double VafsController::decode_mape() {
  if (stream_ == nullptr) return 0.0;
  if (DecisionCore* core = stream_->local_core()) return core->decode_mape();
  DecisionRequest req;
  req.event = DecisionEvent::kQueryStats;
  req.want_plan = false;
  return stream_->decide(req).decode_mape;
}

void VafsController::on_state_change(stream::PlayerState, stream::PlayerState) { plan_now(); }

void VafsController::on_segment_request(std::size_t, std::size_t, std::uint64_t) {
  downloading_ = true;
  plan_now();
}

void VafsController::on_segment_complete(std::size_t, std::size_t, const net::FetchResult&) {
  downloading_ = false;
  plan_now();
}

void VafsController::on_segment_failed(std::size_t, std::size_t, const net::FetchResult&) {
  // The fetch is dead until the player re-requests it: stop planning for
  // download demand in the meantime.
  downloading_ = false;
  plan_now();
}

void VafsController::on_decode_complete(std::uint64_t frame, double cycles, sim::SimTime,
                                        bool idr) {
  DecisionRequest req = make_request(DecisionEvent::kDecodeComplete);
  req.observe_rep = player_.rep_of_frame(frame);
  req.observe_cycles = cycles;
  req.observe_idr = idr;
  deliver(req);
}

void VafsController::on_frame_dropped(std::uint64_t) {
  // The miss may trip the watchdog (traced fallback writes) before the
  // boost lands in the core; the boost mutation itself is silent and both
  // happen at the same instant, so the observable sequence is unchanged.
  note_deadline_miss();
  deliver(make_request(DecisionEvent::kFrameDropped));
}

}  // namespace vafs::core
