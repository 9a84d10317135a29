#include "core/decision_core.h"

#include <algorithm>
#include <cassert>
#include <stdexcept>

namespace vafs::core {

DecisionCore::DecisionCore(const VafsConfig& config, DecisionGeometry geometry)
    : config_(config), geometry_(std::move(geometry)) {
  const std::size_t n = geometry_.clusters.size();
  if (n == 0 || n > kMaxDecisionClusters) {
    throw std::invalid_argument("DecisionCore: geometry must have 1.." +
                                std::to_string(kMaxDecisionClusters) + " clusters, got " +
                                std::to_string(n));
  }
  for (const auto& c : geometry_.clusters) {
    if (c.available_khz.empty()) {
      throw std::invalid_argument("DecisionCore: cluster with empty frequency table");
    }
  }
  if (geometry_.primary >= n || geometry_.network >= n) {
    throw std::invalid_argument("DecisionCore: primary/network cluster out of range");
  }
  // Insertion after equals keeps ties in index order.
  const auto by_capacity = [this](std::uint32_t a, std::uint32_t b) {
    return geometry_.clusters[a].capacity_khz < geometry_.clusters[b].capacity_khz;
  };
  for (std::uint32_t c = 0; c < n; ++c) {
    if (c == geometry_.primary) continue;
    candidates_.insert(std::upper_bound(candidates_.begin(), candidates_.end(), c, by_capacity),
                       c);
  }
}

double DecisionCore::decode_demand_hz(const DecisionRequest& req) const {
  if (req.player_state == DecisionPlayerState::kFinished) return 0.0;

  const double fps = 1.0 / sim::SimTime(req.frame_period_us).as_seconds_f();
  const std::size_t rep = static_cast<std::size_t>(req.current_rep);

  if (config_.oracle) {
    // Perfect knowledge needs the content model, which lives with the
    // session: the client scanned the upcoming GOP and shipped the mean
    // demand in the request (bit pattern preserved end to end).
    return req.oracle_decode_hz;
  }

  const auto it = decode_histories_.find(rep);
  if (it == decode_histories_.end() ||
      it->second.total_frames < config_.min_observations) {
    // Cold start: signal "no estimate" with a negative value; the planner
    // falls back to the conservative floor.
    return -1.0;
  }
  const DecodeHistory& history = it->second;

  if (!config_.class_aware || history.idr.observations() == 0 ||
      history.p.observations() == 0) {
    // Single-stream prediction (class-aware falls back here until both
    // classes have history; in practice the first frame is an IDR, so this
    // lasts one frame).
    const CycleDemandPredictor& mixed =
        history.p.observations() > 0 ? history.p : history.idr;
    return mixed.predict() * fps;
  }

  // Blend by the observed class mix: the sustained decode rate is the
  // GOP-weighted average of per-class predictions.
  const double idr_fraction = static_cast<double>(history.idr_frames) /
                              static_cast<double>(history.total_frames);
  const double blended = idr_fraction * history.idr.predict() +
                         (1.0 - idr_fraction) * history.p.predict();
  return blended * fps;
}

double DecisionCore::audio_demand_hz(const DecisionRequest& req) const {
  if (config_.audio_cycles_per_frame <= 0) return 0.0;
  if (req.player_state == DecisionPlayerState::kFinished) return 0.0;
  return config_.audio_cycles_per_frame / sim::SimTime(req.frame_period_us).as_seconds_f();
}

double DecisionCore::download_demand_hz(const DecisionRequest& req) const {
  if (!req.downloading) return 0.0;
  double mbps = req.throughput_mbps;
  if (mbps <= 0) mbps = config_.default_throughput_mbps;
  return mbps * 1e6 / 8.0 * config_.protocol_cycles_per_byte;
}

std::uint32_t DecisionCore::snap(const std::vector<std::uint32_t>& table, double required_khz,
                                 bool boosted) {
  assert(!table.empty());
  std::size_t idx = table.size() - 1;
  for (std::size_t i = 0; i < table.size(); ++i) {
    if (static_cast<double>(table[i]) >= required_khz) {
      idx = i;
      break;
    }
  }
  if (boosted && idx + 1 < table.size()) ++idx;
  return table[idx];
}

void DecisionCore::plan(const DecisionRequest& req, double margin, bool boosted,
                        DecisionResponse& out) const {
  const double decode_hz = decode_demand_hz(req);
  const bool cold = decode_hz < 0 && req.player_state != DecisionPlayerState::kFinished;
  const std::size_t n = geometry_.clusters.size();
  const std::size_t net_c = geometry_.network;
  // Ablation arm: a download in flight runs the network cluster flat out,
  // as a load-following governor would.
  const bool burst = !config_.race_to_idle_downloads && req.downloading;
  const auto penalty = [this](std::size_t c) { return geometry_.clusters[c].cycle_penalty; };
  out.cluster_count = static_cast<std::uint32_t>(n);

  // Network and audio work always run on the network cluster (demand in
  // that cluster's own cycles).
  const double net_khz = (download_demand_hz(req) + audio_demand_hz(req)) *
                         penalty(net_c) * (1.0 + margin) / 1000.0;
  // Decode's IPC-inflated demand on cluster c, plus the network stack's
  // when they share it.
  const auto demand_khz = [&](std::size_t c) {
    return std::max(0.0, decode_hz) * penalty(c) * (1.0 + margin) / 1000.0 +
           (c == net_c ? net_khz : 0.0);
  };

  // Decode goes to the least capable cluster that fits it: walk the
  // candidates in ascending capacity and take the first whose demand sits
  // under its top OPP (one step of headroom when boosted). The primary
  // cluster is the fallback, and cold start keeps decode there at the
  // conservative floor until the predictor has history.
  std::size_t chosen = geometry_.primary;
  if (!cold) {
    for (const std::uint32_t c : candidates_) {
      const auto& table = geometry_.clusters[c].available_khz;
      const double cap = static_cast<double>(
          boosted && table.size() >= 2 ? table[table.size() - 2] : table.back());
      if (demand_khz(c) <= cap) {
        chosen = c;
        break;
      }
    }
  }

  out.decode_cluster = static_cast<std::uint32_t>(chosen);
  for (std::size_t c = 0; c < n; ++c) {
    const auto& table = geometry_.clusters[c].available_khz;
    if (burst && c == net_c) {
      out.target_khz[c] = table.back();
    } else if (c == chosen) {
      const double required_khz =
          cold ? config_.cold_start_fraction * static_cast<double>(table.back()) : demand_khz(c);
      out.target_khz[c] = snap(table, required_khz, boosted);
    } else if (c == net_c) {
      out.target_khz[c] = snap(table, net_khz, false);
    } else {
      out.target_khz[c] = table.front();  // idle clusters park at min
    }
  }
}

DecisionResponse DecisionCore::decide(const DecisionRequest& req) {
  // Event mutations precede planning, and happen even when the plan is
  // skipped — observations and boost windows accumulate while the
  // controller is failed over, exactly as the inline histories did.
  if (req.event == DecisionEvent::kDecodeComplete) {
    const std::size_t rep = static_cast<std::size_t>(req.observe_rep);
    auto it = decode_histories_.find(rep);
    if (it == decode_histories_.end()) {
      it = decode_histories_.emplace(rep, DecodeHistory(config_.predictor)).first;
    }
    DecodeHistory& history = it->second;
    ++history.total_frames;
    if (config_.class_aware) {
      if (req.observe_idr) {
        ++history.idr_frames;
        history.idr.observe(req.observe_cycles);
      } else {
        history.p.observe(req.observe_cycles);
      }
    } else {
      history.p.observe(req.observe_cycles);  // single mixed stream
    }
  } else if (req.event == DecisionEvent::kFrameDropped) {
    boost_until_us_ = req.now_us + config_.boost_duration.as_micros();
  }

  DecisionResponse out;
  if (req.event == DecisionEvent::kQueryStats) {
    out.decode_mape = decode_mape();
    return out;
  }
  if (!req.want_plan) return out;

  const auto state = req.player_state;
  // Startup and seek-resume races: a fast refill matters more than energy
  // for the second or two they last.
  const bool latency_critical = state == DecisionPlayerState::kStartup ||
                                state == DecisionPlayerState::kSeeking;
  const double margin = latency_critical ? config_.startup_margin : config_.safety_margin;

  const bool playing = state == DecisionPlayerState::kPlaying;
  const bool thin_pipeline = playing && req.decoded_ahead <= config_.low_ahead_frames &&
                             req.decoded_frames < req.total_frames;
  const bool boosted = req.now_us < boost_until_us_ || thin_pipeline;

  out.planned = true;
  out.boosted = boosted;
  out.latency_critical = latency_critical;
  plan(req, margin, boosted, out);
  return out;
}

const CycleDemandPredictor* DecisionCore::decode_predictor(std::size_t rep, bool idr) const {
  const auto it = decode_histories_.find(rep);
  if (it == decode_histories_.end()) return nullptr;
  return idr ? &it->second.idr : &it->second.p;
}

double DecisionCore::decode_mape() const {
  sim::OnlineStats merged;
  for (const auto& [rep, history] : decode_histories_) {
    merged.merge(history.p.ape_stats());
    merged.merge(history.idr.ape_stats());
  }
  return merged.mean();
}

namespace {

class LocalDecisionStream final : public DecisionStream {
 public:
  explicit LocalDecisionStream(const DecisionStreamInfo& info)
      : core_(info.config, info.geometry) {}

  DecisionResponse decide(const DecisionRequest& request) override {
    return core_.decide(request);
  }

  DecisionCore* local_core() override { return &core_; }

 private:
  DecisionCore core_;
};

}  // namespace

std::unique_ptr<DecisionStream> LocalDecisionBackend::open(const DecisionStreamInfo& info) {
  return std::make_unique<LocalDecisionStream>(info);
}

}  // namespace vafs::core
