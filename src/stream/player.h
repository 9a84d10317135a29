// The streaming player: wires downloader, playback buffer, decoder and
// display into one pipeline and produces the QoE record.
//
// Pipeline, per session:
//   startup:  fetch segments until the buffer reaches startup_buffer and
//             the first frame is decoded, then start the playback clock
//   playing:  one vsync per frame period; the due frame is presented if
//             decoded, dropped (with a deadline-miss) if its data arrived
//             but decoding is late, and playback stalls (rebuffer) if the
//             data itself is missing
//   decode:   strictly in order, one frame at a time, at most
//             decode_ahead_frames past the playhead; each frame is a CPU
//             task of its ContentModel cycle cost
//   download: keep the buffer at buffer_target; one segment in flight;
//             bitrate chosen by the ABR algorithm per segment
//
// All representations must share one fps (asserted) so the frame timeline
// is representation-independent.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "cpu/cpu_sink.h"
#include "net/downloader.h"
#include "simcore/simulator.h"
#include "stream/abr.h"
#include "video/buffer.h"
#include "video/content.h"
#include "video/qoe.h"

namespace vafs::obs {
class Tracer;
}

namespace vafs::stream {

enum class PlayerState { kIdle, kStartup, kPlaying, kRebuffering, kSeeking, kFinished };

const char* player_state_name(PlayerState s);

struct PlayerConfig {
  sim::SimTime buffer_target = sim::SimTime::seconds(12);
  sim::SimTime startup_buffer = sim::SimTime::seconds(4);
  sim::SimTime rebuffer_resume = sim::SimTime::seconds(4);
  unsigned decode_ahead_frames = 4;
  /// Throughput EWMA weight for the ABR context.
  double throughput_ewma_alpha = 0.4;

  /// Live mode: segment n only becomes fetchable once the encoder has
  /// produced it — at media time (n+1)·segment_duration plus
  /// live_encode_delay after the session starts (the viewer joins at
  /// stream start). Caps how far ahead the player can buffer and makes
  /// end-to-end latency a QoE dimension (see Player::live_latency()).
  bool live = false;
  sim::SimTime live_encode_delay = sim::SimTime::millis(500);

  /// Audio decode cost per video-frame period (0 disables the audio
  /// pipeline). ~1.2 Mcycles/frame ≈ an AAC stream's ~36 MHz at 30 fps.
  /// Audio never gates presentation (it is never the bottleneck); it adds
  /// the steady background load a real player carries.
  double audio_cycles_per_frame = 0.0;

  /// Pause before re-requesting a segment whose fetch exhausted the
  /// downloader's retries (a beat for the link to recover; real players
  /// back off before re-issuing a failed request).
  sim::SimTime fetch_retry_delay = sim::SimTime::millis(250);
};

/// Observer hooks — the interface the VAFS governor and test probes
/// subscribe to. All callbacks fire synchronously inside player events.
class PlayerObserver {
 public:
  virtual ~PlayerObserver() = default;
  virtual void on_state_change(PlayerState /*from*/, PlayerState /*to*/) {}
  virtual void on_segment_request(std::size_t /*segment*/, std::size_t /*rep*/,
                                  std::uint64_t /*bytes*/) {}
  virtual void on_segment_complete(std::size_t /*segment*/, std::size_t /*rep*/,
                                   const net::FetchResult& /*result*/) {}
  /// A fetch exhausted the downloader's retries; the player will re-request
  /// after its fetch_retry_delay.
  virtual void on_segment_failed(std::size_t /*segment*/, std::size_t /*rep*/,
                                 const net::FetchResult& /*result*/) {}
  virtual void on_decode_start(std::uint64_t /*frame*/) {}
  /// `idr` distinguishes intra frames from predicted frames — a userspace
  /// policy gets this from the demuxer on a real device.
  virtual void on_decode_complete(std::uint64_t /*frame*/, double /*cycles*/,
                                  sim::SimTime /*wall*/, bool /*idr*/) {}
  virtual void on_frame_presented(std::uint64_t /*frame*/) {}
  virtual void on_frame_dropped(std::uint64_t /*frame*/) {}
};

class Player {
 public:
  /// All dependencies must outlive the player. `abr` is owned.
  Player(sim::Simulator& simulator, cpu::CpuSink& cpu_model, net::Downloader& downloader,
         const video::ContentModel& content, std::unique_ptr<AbrAlgorithm> abr,
         PlayerConfig config = {});

  Player(const Player&) = delete;
  Player& operator=(const Player&) = delete;

  /// Begins the session; `on_finished` fires when the last frame presents.
  void start(std::function<void()> on_finished = nullptr);

  /// Seeks to `target` media time (snapped down to a segment boundary,
  /// where decode can restart on an IDR frame). Flushes the buffer and the
  /// decode pipeline; any in-flight segment download becomes stale and is
  /// ignored on completion (its radio/CPU cost has already been paid — the
  /// model does not abort transfers, mirroring players that let the
  /// request drain). Playback resumes once enough data is re-buffered;
  /// the stall is accounted as QoeStats::seek_time, not rebuffering.
  /// Only valid while playing, rebuffering or already seeking; returns
  /// false (and does nothing) otherwise.
  bool seek(sim::SimTime target);

  // ---- Introspection (consumed by VAFS and the harness) ----

  PlayerState state() const { return state_; }
  const video::QoeStats& qoe() const { return qoe_; }
  sim::SimTime buffer_level() const { return buffer_.level(); }
  sim::SimTime frame_period() const { return frame_period_; }
  std::uint64_t playhead_frame() const { return playhead_; }
  std::uint64_t decoded_frames() const { return decoded_count_; }
  /// Frames decoded beyond the playhead (the decode pipeline's slack).
  std::uint64_t decoded_ahead() const {
    return decoded_count_ > playhead_ ? decoded_count_ - playhead_ : 0;
  }
  std::uint64_t total_frames() const { return total_frames_; }
  /// Representation of the segment the playhead is in (or of the last
  /// requested segment before playback starts).
  std::size_t current_rep() const;
  /// Media time played so far.
  sim::SimTime played() const { return frame_period_ * static_cast<std::int64_t>(playhead_); }
  /// Representation a downloaded playback-sequence frame belongs to.
  /// Requires at least one downloaded segment.
  std::size_t rep_of_frame(std::uint64_t frame) const { return record_for_frame(frame).rep; }
  const video::ContentModel& content() const { return content_; }
  const PlayerConfig& config() const { return config_; }
  double throughput_estimate_mbps() const { return throughput_mbps_; }
  /// Live mode: how far behind the live edge playback currently is
  /// (wall time since start minus media time played). Startup delay plus
  /// accumulated stalls.
  sim::SimTime live_latency() const { return (sim_.now() - session_start_) - played(); }

  /// Registers an observer (not owned; must outlive the player).
  void add_observer(PlayerObserver* observer);

  /// Optional tracer (not owned, may be null): segment/decode spans, state
  /// changes, drops and the buffer-level series are recorded through it.
  void set_tracer(obs::Tracer* tracer) { tracer_ = tracer; }

  /// Installs a decode-cost multiplier sampled at decode-submit time
  /// (fault injection: decode-cost spikes). Call before start().
  void set_decode_scale(std::function<double(sim::SimTime)> scale) {
    decode_scale_ = std::move(scale);
  }

 private:
  struct SegmentRecord {
    std::size_t segment_index;
    std::size_t rep;
    std::uint64_t first_frame;  // playback-sequence frame number
    std::uint64_t frames;
    std::uint64_t bytes;
  };

  void set_state(PlayerState next);
  void maybe_fetch();
  void on_segment_done(std::size_t segment, std::size_t rep, std::uint64_t epoch,
                       const net::FetchResult& result);
  void maybe_start_playback();
  void maybe_resume_seek();
  void maybe_decode();
  void on_frame_decoded(std::uint64_t frame, double cycles, sim::SimTime started, bool idr,
                        std::uint64_t epoch);
  void schedule_vsync();
  void on_vsync();
  void finish();

  /// The (rep, per-rep frame index) a playback-sequence frame maps to.
  const SegmentRecord& record_for_frame(std::uint64_t frame) const;

  sim::Simulator& sim_;
  cpu::CpuSink& cpu_;
  net::Downloader& downloader_;
  const video::ContentModel& content_;
  std::unique_ptr<AbrAlgorithm> abr_;
  PlayerConfig config_;

  PlayerState state_ = PlayerState::kIdle;
  video::PlaybackBuffer buffer_;
  video::QoeStats qoe_;
  std::function<void()> on_finished_;
  std::vector<PlayerObserver*> observers_;

  sim::SimTime frame_period_;
  std::uint64_t total_frames_ = 0;

  /// Pushes the current buffer level onto the tracer's timeline (no-op
  /// when detached or when the tracer keeps no timeline).
  void trace_buffer_level();

  obs::Tracer* tracer_ = nullptr;

  // Download state.
  bool fetch_inflight_ = false;
  std::size_t fetch_segment_ = 0;  // segment of the in-flight fetch (trace span id)
  std::size_t last_rep_ = 0;
  double throughput_mbps_ = 0.0;
  sim::EventHandle refetch_event_;  // delayed re-request after a failed fetch
  std::function<double(sim::SimTime)> decode_scale_;

  // Decode state.
  std::vector<SegmentRecord> records_;
  std::uint64_t frames_downloaded_ = 0;  // frames whose bytes have arrived
  std::uint64_t decode_cursor_ = 0;      // next frame to decode
  std::uint64_t decoded_count_ = 0;      // frames fully decoded (in order)
  bool decode_inflight_ = false;
  std::uint64_t decode_task_id_ = 0;     // for cancellation on seek
  std::uint64_t pipeline_epoch_ = 0;     // bumped by seek; stales callbacks

  // Playback state.
  std::uint64_t playhead_ = 0;  // next frame due for presentation
  sim::SimTime session_start_;
  sim::SimTime rebuffer_start_;
  sim::SimTime seek_start_;
  sim::EventHandle vsync_event_;
  sim::EventHandle live_wait_event_;  // re-check fetch at availability time
  double bitrate_weighted_sum_ = 0.0;  // presented frames × their kbps
};

}  // namespace vafs::stream
