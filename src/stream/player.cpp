#include "stream/player.h"

#include <cassert>
#include <cmath>

#include "obs/trace.h"

namespace vafs::stream {

const char* player_state_name(PlayerState s) {
  switch (s) {
    case PlayerState::kIdle: return "IDLE";
    case PlayerState::kStartup: return "STARTUP";
    case PlayerState::kPlaying: return "PLAYING";
    case PlayerState::kRebuffering: return "REBUFFERING";
    case PlayerState::kSeeking: return "SEEKING";
    case PlayerState::kFinished: return "FINISHED";
  }
  return "?";
}

Player::Player(sim::Simulator& simulator, cpu::CpuSink& cpu_model, net::Downloader& downloader,
               const video::ContentModel& content, std::unique_ptr<AbrAlgorithm> abr,
               PlayerConfig config)
    : sim_(simulator),
      cpu_(cpu_model),
      downloader_(downloader),
      content_(content),
      abr_(std::move(abr)),
      config_(config) {
  assert(abr_ != nullptr);
  const auto& manifest = content_.manifest();
  const double fps = manifest.representation(0).fps;
  for (const auto& rep : manifest.representations()) {
    assert(rep.fps == fps && "all representations must share one fps");
    (void)rep;
  }
  frame_period_ = sim::SimTime::micros(static_cast<std::int64_t>(std::llround(1e6 / fps)));
  total_frames_ = 0;
  for (std::size_t s = 0; s < manifest.segment_count(); ++s) {
    total_frames_ += manifest.frames_in_segment(0, s);
  }
}

void Player::add_observer(PlayerObserver* observer) { observers_.push_back(observer); }

void Player::set_state(PlayerState next) {
  if (state_ == next) return;
  const PlayerState prev = state_;
  state_ = next;
  if (tracer_ != nullptr) {
    tracer_->record(sim_.now(), obs::EventKind::kPlayerState,
                    static_cast<std::uint64_t>(prev), static_cast<std::uint64_t>(next));
  }
  for (auto* o : observers_) o->on_state_change(prev, next);
}

void Player::trace_buffer_level() {
  if (tracer_ == nullptr || !tracer_->keeps_timeline()) return;
  tracer_->timeline().push(obs::SeriesId::kBufferSeconds, sim_.now(),
                           buffer_.level().as_seconds_f());
}

void Player::start(std::function<void()> on_finished) {
  assert(state_ == PlayerState::kIdle && "player already started");
  on_finished_ = std::move(on_finished);
  session_start_ = sim_.now();
  set_state(PlayerState::kStartup);
  maybe_fetch();
}

std::size_t Player::current_rep() const {
  if (records_.empty()) return last_rep_;
  const std::uint64_t frame = playhead_ < total_frames_ ? playhead_ : total_frames_ - 1;
  return record_for_frame(frame).rep;
}

const Player::SegmentRecord& Player::record_for_frame(std::uint64_t frame) const {
  assert(!records_.empty());
  // Records are in playback order; linear scan from the back is O(1)
  // amortized because callers ask near the frontier.
  for (auto it = records_.rbegin(); it != records_.rend(); ++it) {
    if (it->first_frame <= frame) return *it;
  }
  return records_.front();
}

void Player::maybe_fetch() {
  if (fetch_inflight_ || state_ == PlayerState::kFinished) return;
  const auto& manifest = content_.manifest();
  const std::size_t next = buffer_.next_segment_index();
  if (next >= manifest.segment_count()) return;
  if (buffer_.level() >= config_.buffer_target) return;  // vsync re-checks

  if (config_.live) {
    // The encoder publishes segment n once it has fully elapsed.
    const sim::SimTime available_at =
        session_start_ +
        manifest.nominal_segment_duration() * static_cast<std::int64_t>(next + 1) +
        config_.live_encode_delay;
    if (sim_.now() < available_at) {
      live_wait_event_.cancel();
      live_wait_event_ = sim_.at(available_at, [this] { maybe_fetch(); });
      return;
    }
  }

  AbrContext ctx;
  ctx.throughput_mbps = throughput_mbps_;
  ctx.buffer_level = buffer_.level();
  ctx.last_rep = last_rep_;
  ctx.next_segment = next;
  ctx.manifest = &manifest;
  const std::size_t rep = abr_->choose(ctx);
  assert(rep < manifest.representation_count());

  const std::uint64_t bytes = content_.segment_bytes(rep, next);
  fetch_inflight_ = true;
  fetch_segment_ = next;
  if (tracer_ != nullptr) {
    tracer_->record(sim_.now(), obs::EventKind::kSegmentBegin, next, rep, bytes);
  }
  for (auto* o : observers_) o->on_segment_request(next, rep, bytes);
  downloader_.fetch(bytes,
                    [this, next, rep, epoch = pipeline_epoch_](const net::FetchResult& result) {
                      on_segment_done(next, rep, epoch, result);
                    });
}

void Player::on_segment_done(std::size_t segment, std::size_t rep, std::uint64_t epoch,
                             const net::FetchResult& result) {
  if (epoch != pipeline_epoch_) return;  // stale pre-seek fetch: drop it
  fetch_inflight_ = false;
  qoe_.fetch_retries += result.attempts > 0 ? result.attempts - 1 : 0;

  if (!result.ok) {
    // The downloader exhausted its retries. Stay in the current state
    // (startup/rebuffering stalls continue, playing drains the buffer)
    // and re-request the same segment after a short pause — the session
    // degrades to a longer stall instead of wedging on a dead fetch.
    ++qoe_.fetch_failures;
    if (tracer_ != nullptr) {
      tracer_->record(sim_.now(), obs::EventKind::kSegmentEnd, segment, 1, result.attempts);
    }
    for (auto* o : observers_) o->on_segment_failed(segment, rep, result);
    refetch_event_.cancel();
    refetch_event_ = sim_.after(config_.fetch_retry_delay, [this, epoch] {
      if (epoch == pipeline_epoch_) maybe_fetch();
    });
    return;
  }

  // Throughput EWMA for the ABR context.
  const double mbps = result.throughput_mbps();
  if (mbps > 0) {
    throughput_mbps_ = throughput_mbps_ <= 0
                           ? mbps
                           : config_.throughput_ewma_alpha * mbps +
                                 (1 - config_.throughput_ewma_alpha) * throughput_mbps_;
  }

  if (!records_.empty() && records_.back().rep != rep) ++qoe_.quality_switches;
  last_rep_ = rep;

  const auto& manifest = content_.manifest();
  const std::uint64_t frames = manifest.frames_in_segment(rep, segment);
  records_.push_back(SegmentRecord{segment, rep,
                                   frames_downloaded_, frames, result.bytes});
  frames_downloaded_ += frames;
  buffer_.push(video::BufferedSegment{segment, rep, manifest.segment_duration(segment),
                                      result.bytes});
  if (tracer_ != nullptr) {
    tracer_->record(sim_.now(), obs::EventKind::kSegmentEnd, segment, 0, result.attempts);
    trace_buffer_level();
  }
  for (auto* o : observers_) o->on_segment_complete(segment, rep, result);

  maybe_decode();
  maybe_start_playback();
  maybe_resume_seek();
  if (state_ == PlayerState::kRebuffering) {
    const bool everything_fetched = buffer_.next_segment_index() >= manifest.segment_count();
    if (buffer_.level() >= config_.rebuffer_resume || everything_fetched) {
      qoe_.rebuffer_time += sim_.now() - rebuffer_start_;
      set_state(PlayerState::kPlaying);
      schedule_vsync();
    }
  }
  maybe_fetch();
}

void Player::maybe_resume_seek() {
  if (state_ != PlayerState::kSeeking) return;
  const auto& manifest = content_.manifest();
  const bool everything_fetched = buffer_.next_segment_index() >= manifest.segment_count();
  const bool buffered = buffer_.level() >= config_.rebuffer_resume || everything_fetched;
  if (buffered && decoded_count_ > playhead_) {
    qoe_.seek_time += sim_.now() - seek_start_;
    set_state(PlayerState::kPlaying);
    schedule_vsync();
  }
}

void Player::maybe_start_playback() {
  if (state_ != PlayerState::kStartup) return;
  const auto& manifest = content_.manifest();
  const bool everything_fetched = buffer_.next_segment_index() >= manifest.segment_count();
  const bool buffered_enough = buffer_.level() >= config_.startup_buffer || everything_fetched;
  if (buffered_enough && decoded_count_ > 0) {
    qoe_.startup_delay = sim_.now() - session_start_;
    set_state(PlayerState::kPlaying);
    schedule_vsync();
  }
}

void Player::maybe_decode() {
  if (decode_inflight_) return;
  if (decode_cursor_ >= frames_downloaded_) return;  // nothing arrived yet
  if (decode_cursor_ >= playhead_ + config_.decode_ahead_frames) return;  // far enough ahead

  const std::uint64_t frame = decode_cursor_;
  const SegmentRecord& rec = record_for_frame(frame);
  const auto& manifest = content_.manifest();
  const std::uint64_t rep_frame =
      manifest.first_frame_of_segment(rec.rep, rec.segment_index) + (frame - rec.first_frame);
  const video::FrameInfo info = content_.frame(rec.rep, rep_frame);
  // Fault-injected decode-cost spikes scale the submitted cycles; the
  // observer callback reports the scaled cost (what a device would see).
  const double decode_cycles =
      decode_scale_ ? info.decode_cycles * decode_scale_(sim_.now()) : info.decode_cycles;

  decode_inflight_ = true;
  const sim::SimTime started = sim_.now();
  if (tracer_ != nullptr) tracer_->record(sim_.now(), obs::EventKind::kDecodeBegin, frame);
  for (auto* o : observers_) o->on_decode_start(frame);
  decode_task_id_ = cpu_.submit(
      "decode", decode_cycles,
      [this, frame, cycles = decode_cycles, started, idr = info.is_idr,
       epoch = pipeline_epoch_] { on_frame_decoded(frame, cycles, started, idr, epoch); });
  if (config_.audio_cycles_per_frame > 0) {
    cpu_.submit("audio", config_.audio_cycles_per_frame, nullptr);
  }
}

void Player::on_frame_decoded(std::uint64_t frame, double cycles, sim::SimTime started,
                              bool idr, std::uint64_t epoch) {
  if (epoch != pipeline_epoch_) return;  // stale pre-seek decode
  decode_inflight_ = false;
  assert(frame == decode_cursor_);
  ++decode_cursor_;
  decoded_count_ = decode_cursor_;
  if (tracer_ != nullptr) {
    tracer_->record(sim_.now(), obs::EventKind::kDecodeEnd, frame,
                    static_cast<std::uint64_t>(std::llround(cycles)), idr ? 1 : 0);
  }
  for (auto* o : observers_) o->on_decode_complete(frame, cycles, sim_.now() - started, idr);
  maybe_decode();
  maybe_start_playback();
  maybe_resume_seek();
}

bool Player::seek(sim::SimTime target) {
  if (state_ != PlayerState::kPlaying && state_ != PlayerState::kRebuffering &&
      state_ != PlayerState::kSeeking) {
    return false;
  }
  const auto& manifest = content_.manifest();

  // Close whatever stall we were in.
  if (state_ == PlayerState::kRebuffering) qoe_.rebuffer_time += sim_.now() - rebuffer_start_;
  if (state_ == PlayerState::kSeeking) qoe_.seek_time += sim_.now() - seek_start_;

  // Snap to the containing segment (decode restarts on its IDR).
  if (target.is_negative()) target = sim::SimTime::zero();
  std::size_t seg = static_cast<std::size_t>(target.as_micros() /
                                             manifest.nominal_segment_duration().as_micros());
  seg = std::min(seg, manifest.segment_count() - 1);

  ++pipeline_epoch_;  // stales in-flight fetch + decode callbacks
  ++qoe_.seek_count;
  seek_start_ = sim_.now();
  vsync_event_.cancel();
  live_wait_event_.cancel();
  refetch_event_.cancel();
  if (tracer_ != nullptr) {
    // Close the spans the seek abandons, so the trace stays well-formed.
    if (fetch_inflight_) {
      tracer_->record(sim_.now(), obs::EventKind::kSegmentEnd, fetch_segment_, 2, 0);
    }
    if (decode_inflight_) {
      tracer_->record(sim_.now(), obs::EventKind::kDecodeEnd, decode_cursor_, 0, 2);
    }
    tracer_->record(sim_.now(), obs::EventKind::kSeek, seg);
  }
  if (decode_inflight_) {
    cpu_.cancel(decode_task_id_);
    decode_inflight_ = false;
  }

  playhead_ = manifest.first_frame_of_segment(0, seg);
  decode_cursor_ = playhead_;
  decoded_count_ = playhead_;
  frames_downloaded_ = playhead_;
  records_.clear();
  buffer_.reset(seg);
  fetch_inflight_ = false;  // the old fetch (if any) is epoch-stale now

  set_state(PlayerState::kSeeking);
  maybe_fetch();
  return true;
}

void Player::schedule_vsync() {
  // A periodic series: ticks stay armed across frames without a fresh
  // schedule per tick. Paths that leave kPlaying cancel the series.
  vsync_event_.cancel();
  vsync_event_ = sim_.every(frame_period_, [this] { on_vsync(); });
}

void Player::on_vsync() {
  if (state_ != PlayerState::kPlaying) {
    vsync_event_.cancel();  // defensive: a state change should have cancelled
    return;
  }
  if (playhead_ >= total_frames_) {
    finish();  // cancels the series
    return;
  }

  if (decoded_count_ > playhead_) {
    // The due frame is ready: present it.
    const SegmentRecord& rec = record_for_frame(playhead_);
    bitrate_weighted_sum_ +=
        static_cast<double>(content_.manifest().representation(rec.rep).bitrate_kbps);
    ++qoe_.frames_presented;
    for (auto* o : observers_) o->on_frame_presented(playhead_);
    ++playhead_;
    buffer_.drain(frame_period_);
    trace_buffer_level();
    maybe_decode();  // the ahead-window moved
    maybe_fetch();   // the buffer drained
    if (playhead_ >= total_frames_) finish();
    return;  // otherwise the periodic series carries the next tick
  }

  if (playhead_ < frames_downloaded_) {
    // Data arrived but decoding is late: drop the frame and move on.
    ++qoe_.deadline_misses;
    ++qoe_.frames_dropped;
    if (tracer_ != nullptr) tracer_->record(sim_.now(), obs::EventKind::kFrameDrop, playhead_);
    for (auto* o : observers_) o->on_frame_dropped(playhead_);
    ++playhead_;
    buffer_.drain(frame_period_);
    trace_buffer_level();
    maybe_decode();
    maybe_fetch();
    if (playhead_ >= total_frames_) finish();
    return;
  }

  // The due frame has not even been downloaded: stall.
  ++qoe_.rebuffer_events;
  rebuffer_start_ = sim_.now();
  vsync_event_.cancel();  // ticks stop until playback resumes
  set_state(PlayerState::kRebuffering);
  maybe_fetch();
}

void Player::finish() {
  vsync_event_.cancel();
  live_wait_event_.cancel();
  refetch_event_.cancel();
  if (qoe_.frames_presented > 0) {
    qoe_.mean_bitrate_kbps = bitrate_weighted_sum_ / static_cast<double>(qoe_.frames_presented);
  }
  set_state(PlayerState::kFinished);
  if (on_finished_) on_finished_();
}

}  // namespace vafs::stream
