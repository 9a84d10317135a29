#include "serve/wire.h"

#include <bit>
#include <cstring>

#include "simcore/fnv.h"

namespace vafs::serve {
namespace {

void put_u32(std::uint8_t* out, std::uint32_t v) {
  out[0] = static_cast<std::uint8_t>(v);
  out[1] = static_cast<std::uint8_t>(v >> 8);
  out[2] = static_cast<std::uint8_t>(v >> 16);
  out[3] = static_cast<std::uint8_t>(v >> 24);
}

void put_u64(std::uint8_t* out, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) out[i] = static_cast<std::uint8_t>(v >> (8 * i));
}

std::uint32_t get_u32(const std::uint8_t* in) {
  return static_cast<std::uint32_t>(in[0]) | static_cast<std::uint32_t>(in[1]) << 8 |
         static_cast<std::uint32_t>(in[2]) << 16 | static_cast<std::uint32_t>(in[3]) << 24;
}

std::uint64_t get_u64(const std::uint8_t* in) {
  std::uint64_t v = 0;
  for (int i = 0; i < 8; ++i) v |= static_cast<std::uint64_t>(in[i]) << (8 * i);
  return v;
}

bool valid_type(std::uint8_t t) {
  return t >= static_cast<std::uint8_t>(MsgType::kHello) &&
         t <= static_cast<std::uint8_t>(MsgType::kPong);
}

}  // namespace

const char* wire_error_name(WireError e) {
  switch (e) {
    case WireError::kNone: return "none";
    case WireError::kBadMagic: return "bad_magic";
    case WireError::kBadVersion: return "bad_version";
    case WireError::kBadType: return "bad_type";
    case WireError::kOversized: return "oversized";
    case WireError::kBadChecksum: return "bad_checksum";
    case WireError::kShortPayload: return "short_payload";
    case WireError::kUnknownStream: return "unknown_stream";
    case WireError::kDuplicateStream: return "duplicate_stream";
    case WireError::kBadGeometry: return "bad_geometry";
    case WireError::kServerOverloaded: return "server_overloaded";
    case WireError::kServerDraining: return "server_draining";
  }
  return "?";
}

std::uint64_t frame_checksum(std::uint8_t version, MsgType type, std::uint64_t stream_id,
                             const std::uint8_t* payload, std::size_t len) {
  std::uint8_t head[10];
  head[0] = version;
  head[1] = static_cast<std::uint8_t>(type);
  put_u64(head + 2, stream_id);
  return sim::fnv1a(sim::fnv1a(sim::kFnvOffset, head, sizeof(head)), payload, len);
}

void encode_frame(std::vector<std::uint8_t>& out, MsgType type, std::uint64_t stream_id,
                  const std::vector<std::uint8_t>& payload) {
  const std::size_t base = out.size();
  out.resize(base + kWireHeaderSize + payload.size());
  std::uint8_t* p = out.data() + base;
  put_u32(p, static_cast<std::uint32_t>(payload.size()));
  p[4] = kWireMagic0;
  p[5] = kWireMagic1;
  p[6] = kWireVersion;
  p[7] = static_cast<std::uint8_t>(type);
  put_u64(p + 8, stream_id);
  put_u64(p + 16,
          frame_checksum(kWireVersion, type, stream_id, payload.data(), payload.size()));
  if (!payload.empty()) std::memcpy(p + kWireHeaderSize, payload.data(), payload.size());
}

WireError decode_header(const std::uint8_t* buf, FrameHeader& header) {
  header.payload_len = get_u32(buf);
  if (buf[4] != kWireMagic0 || buf[5] != kWireMagic1) return WireError::kBadMagic;
  header.version = buf[6];
  if (header.version != kWireVersion) return WireError::kBadVersion;
  if (!valid_type(buf[7])) return WireError::kBadType;
  header.type = static_cast<MsgType>(buf[7]);
  if (header.payload_len > kMaxPayload) return WireError::kOversized;
  header.stream_id = get_u64(buf + 8);
  header.checksum = get_u64(buf + 16);
  return WireError::kNone;
}

WireError verify_payload(const FrameHeader& header, const std::uint8_t* payload,
                         std::size_t len) {
  if (len != header.payload_len) return WireError::kShortPayload;
  if (frame_checksum(header.version, header.type, header.stream_id, payload, len) !=
      header.checksum) {
    return WireError::kBadChecksum;
  }
  return WireError::kNone;
}

void WireWriter::u32(std::uint32_t v) {
  std::uint8_t buf[4];
  put_u32(buf, v);
  out_.insert(out_.end(), buf, buf + 4);
}

void WireWriter::u64(std::uint64_t v) {
  std::uint8_t buf[8];
  put_u64(buf, v);
  out_.insert(out_.end(), buf, buf + 8);
}

void WireWriter::f64(double v) { u64(std::bit_cast<std::uint64_t>(v)); }

bool WireReader::u8(std::uint8_t& v) {
  if (!ok_ || size_ - pos_ < 1) return ok_ = false;
  v = data_[pos_++];
  return true;
}

bool WireReader::flag(bool& v) {
  std::uint8_t b = 0;
  if (!u8(b) || b > 1) return ok_ = false;
  v = b != 0;
  return true;
}

bool WireReader::u32(std::uint32_t& v) {
  if (!ok_ || size_ - pos_ < 4) return ok_ = false;
  v = get_u32(data_ + pos_);
  pos_ += 4;
  return true;
}

bool WireReader::u64(std::uint64_t& v) {
  if (!ok_ || size_ - pos_ < 8) return ok_ = false;
  v = get_u64(data_ + pos_);
  pos_ += 8;
  return true;
}

bool WireReader::i64(std::int64_t& v) {
  std::uint64_t u = 0;
  if (!u64(u)) return false;
  v = static_cast<std::int64_t>(u);
  return true;
}

bool WireReader::f64(double& v) {
  std::uint64_t u = 0;
  if (!u64(u)) return false;
  v = std::bit_cast<double>(u);
  return true;
}

// ---- DecisionStreamInfo --------------------------------------------------

void encode_stream_info(std::vector<std::uint8_t>& out, const core::DecisionStreamInfo& info) {
  WireWriter w(out);
  const core::VafsConfig& c = info.config;
  w.f64(c.safety_margin);
  w.f64(c.startup_margin);
  w.u8(static_cast<std::uint8_t>(c.predictor.kind));
  w.u64(c.predictor.window);
  w.f64(c.predictor.ewma_alpha);
  w.f64(c.predictor.quantile);
  w.u8(c.race_to_idle_downloads ? 1 : 0);
  w.f64(c.protocol_cycles_per_byte);
  w.f64(c.default_throughput_mbps);
  w.f64(c.audio_cycles_per_frame);
  w.i64(c.boost_duration.as_micros());
  w.u64(c.low_ahead_frames);
  w.u64(c.min_observations);
  w.f64(c.cold_start_fraction);
  w.u8(c.class_aware ? 1 : 0);
  w.u8(c.oracle ? 1 : 0);

  const core::DecisionGeometry& g = info.geometry;
  w.u32(static_cast<std::uint32_t>(g.clusters.size()));
  for (const auto& cl : g.clusters) {
    w.u32(static_cast<std::uint32_t>(cl.available_khz.size()));
    for (const std::uint32_t khz : cl.available_khz) w.u32(khz);
    w.f64(cl.cycle_penalty);
    w.f64(cl.capacity_khz);
  }
  w.u32(g.primary);
  w.u32(g.network);
}

bool decode_stream_info(const std::uint8_t* data, std::size_t size,
                        core::DecisionStreamInfo& info) {
  WireReader r(data, size);
  core::VafsConfig& c = info.config;
  std::uint8_t kind = 0;
  std::uint64_t window = 0, low_ahead = 0, min_obs = 0;
  std::int64_t boost_us = 0;
  r.f64(c.safety_margin);
  r.f64(c.startup_margin);
  r.u8(kind);
  r.u64(window);
  r.f64(c.predictor.ewma_alpha);
  r.f64(c.predictor.quantile);
  r.flag(c.race_to_idle_downloads);
  r.f64(c.protocol_cycles_per_byte);
  r.f64(c.default_throughput_mbps);
  r.f64(c.audio_cycles_per_frame);
  r.i64(boost_us);
  r.u64(low_ahead);
  r.u64(min_obs);
  r.f64(c.cold_start_fraction);
  r.flag(c.class_aware);
  r.flag(c.oracle);
  if (!r.ok()) return false;
  if (kind > static_cast<std::uint8_t>(core::PredictorKind::kQuantile)) return false;
  c.predictor.kind = static_cast<core::PredictorKind>(kind);
  c.predictor.window = static_cast<std::size_t>(window);
  c.boost_duration = sim::SimTime::micros(boost_us);
  c.low_ahead_frames = low_ahead;
  c.min_observations = static_cast<std::size_t>(min_obs);

  core::DecisionGeometry& g = info.geometry;
  std::uint32_t n = 0;
  if (!r.u32(n)) return false;
  if (n == 0 || n > core::kMaxDecisionClusters) return false;
  g.clusters.clear();
  g.clusters.resize(n);
  for (auto& cl : g.clusters) {
    std::uint32_t freqs = 0;
    if (!r.u32(freqs)) return false;
    // A table longer than the remaining payload is corrupt; bound before
    // allocating.
    if (freqs == 0 || static_cast<std::size_t>(freqs) * 4 > r.remaining()) return false;
    cl.available_khz.resize(freqs);
    for (auto& khz : cl.available_khz) r.u32(khz);
    r.f64(cl.cycle_penalty);
    r.f64(cl.capacity_khz);
  }
  r.u32(g.primary);
  r.u32(g.network);
  if (!r.done()) return false;
  return g.primary < n && g.network < n;
}

// ---- DecisionRequest -----------------------------------------------------

void encode_request(std::vector<std::uint8_t>& out, const core::DecisionRequest& req) {
  WireWriter w(out);
  w.u8(static_cast<std::uint8_t>(req.event));
  w.u8(req.want_plan ? 1 : 0);
  w.i64(req.now_us);
  w.u8(static_cast<std::uint8_t>(req.player_state));
  w.u8(req.downloading ? 1 : 0);
  w.u64(req.decoded_ahead);
  w.u64(req.decoded_frames);
  w.u64(req.total_frames);
  w.i64(req.frame_period_us);
  w.u64(req.current_rep);
  w.f64(req.throughput_mbps);
  w.f64(req.oracle_decode_hz);
  w.u64(req.observe_rep);
  w.f64(req.observe_cycles);
  w.u8(req.observe_idr ? 1 : 0);
}

bool decode_request(const std::uint8_t* data, std::size_t size, core::DecisionRequest& req) {
  WireReader r(data, size);
  std::uint8_t event = 0, state = 0;
  r.u8(event);
  r.flag(req.want_plan);
  r.i64(req.now_us);
  r.u8(state);
  r.flag(req.downloading);
  r.u64(req.decoded_ahead);
  r.u64(req.decoded_frames);
  r.u64(req.total_frames);
  r.i64(req.frame_period_us);
  r.u64(req.current_rep);
  r.f64(req.throughput_mbps);
  r.f64(req.oracle_decode_hz);
  r.u64(req.observe_rep);
  r.f64(req.observe_cycles);
  r.flag(req.observe_idr);
  if (!r.done()) return false;
  if (event > static_cast<std::uint8_t>(core::DecisionEvent::kQueryStats)) return false;
  if (state > static_cast<std::uint8_t>(core::DecisionPlayerState::kFinished)) return false;
  req.event = static_cast<core::DecisionEvent>(event);
  req.player_state = static_cast<core::DecisionPlayerState>(state);
  return true;
}

// ---- DecisionResponse ----------------------------------------------------

void encode_response(std::vector<std::uint8_t>& out, const core::DecisionResponse& resp) {
  WireWriter w(out);
  w.u8(resp.planned ? 1 : 0);
  w.u8(resp.boosted ? 1 : 0);
  w.u8(resp.latency_critical ? 1 : 0);
  w.u32(resp.decode_cluster);
  w.u32(resp.cluster_count);
  for (const std::uint32_t khz : resp.target_khz) w.u32(khz);
  w.f64(resp.decode_mape);
}

bool decode_response(const std::uint8_t* data, std::size_t size, core::DecisionResponse& resp) {
  WireReader r(data, size);
  r.flag(resp.planned);
  r.flag(resp.boosted);
  r.flag(resp.latency_critical);
  r.u32(resp.decode_cluster);
  r.u32(resp.cluster_count);
  for (auto& khz : resp.target_khz) r.u32(khz);
  r.f64(resp.decode_mape);
  return r.done() && resp.cluster_count <= core::kMaxDecisionClusters;
}

void encode_error(std::vector<std::uint8_t>& out, WireError code) {
  WireWriter w(out);
  w.u32(static_cast<std::uint32_t>(code));
}

bool decode_error(const std::uint8_t* data, std::size_t size, WireError& code) {
  WireReader r(data, size);
  std::uint32_t v = 0;
  r.u32(v);
  if (!r.done() || v > static_cast<std::uint32_t>(WireError::kServerDraining)) return false;
  code = static_cast<WireError>(v);
  return true;
}

}  // namespace vafs::serve
