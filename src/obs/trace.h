// Structured session tracing — the observability core.
//
// A Tracer records a typed event stream (spans, instants, counters) with
// sim-time stamps into a per-session ring buffer, and folds every event
// into a streaming 64-bit digest at record time. The digest is a canonical
// fingerprint of the session's *behaviour*: two runs produce the same
// digest iff they executed the same events with the same integer payloads
// in the same order, so it detects regressions that shift trajectories
// without moving any aggregate metric (frequency oscillation, watchdog
// flapping, retry-pattern changes).
//
// Determinism contract: events carry only integral payloads (micros, kHz,
// counts, ids, enum codes — doubles are quantized by the call site before
// recording), so the digest is bit-identical across compilers, optimization
// levels and --jobs widths. The digest streams, so ring-buffer eviction
// never changes it. A Tracer with ring_capacity = 0 is a digest-only sink
// (the mode the experiment runner uses per task): it keeps the digest, the
// event count and the checkpoint list, but no events and no timeline —
// timelines exist iff a ring does, so instrumented components skip their
// series pushes (and the probes feeding them) entirely.
//
// Instrumented components hold a null-initialized `Tracer*` and guard
// every record with a pointer test — a detached session pays one untaken
// branch per site and is bit-identical to an uninstrumented build
// (verified by the observer-effect property tests and the perf gate).
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "obs/timeline.h"
#include "simcore/time.h"

namespace vafs::obs {

/// Logical track an event belongs to — rendered as one row ("thread") per
/// track in the Chrome trace export.
enum class Track : std::uint8_t {
  kSession,
  kPlayer,
  kDecode,
  kNet,
  kGovernor,
  kCpu,
  kVafs,
  kWatchdog,
  kThermal,
  kFault,
  // Appended in PR 8 (after every sim-facing track, so sim-event digests
  // are unchanged): supervisor-side worker lifecycle, stamped with wall
  // milliseconds since run start rather than sim time.
  kHarness,
  // Appended in PR 10: decision-daemon request spans and connection
  // lifecycle (src/serve), stamped with wall microseconds since server
  // start — never part of a session's own digest.
  kServe,
};
inline constexpr std::size_t kTrackCount = 12;

const char* track_name(Track track);

/// Chrome trace_event phase class of an event kind. Sync begin/end pairs
/// (kBegin/kEnd) require strict stack nesting per track and are used only
/// for strictly serial spans (decode, watchdog fallback, the session
/// itself); overlappable spans (fetches, attempts, segments) use async
/// begin/end (kAsyncBegin/kAsyncEnd) paired by their first argument.
enum class Phase : std::uint8_t {
  kInstant,
  kBegin,
  kEnd,
  kAsyncBegin,
  kAsyncEnd,
  kComplete,  // self-contained span; arg1 carries the duration in micros
};

/// The event taxonomy. Argument meanings (a, b, c) per kind are listed in
/// event_info(); every argument is integral by construction.
enum class EventKind : std::uint8_t {
  // Session track.
  kSessionBegin,     // a=seed, b=media_us
  kSessionEnd,
  kFaultWindow,      // a=fault kind, b=duration_us, c=magnitude_ppm
  // Player track.
  kPlayerState,      // a=from, b=to (PlayerState codes)
  kSegmentBegin,     // async id=a: a=segment, b=rep, c=bytes
  kSegmentEnd,       // async id=a: a=segment, b=status(0 ok,1 failed,2 stale), c=attempts
  kSeek,             // a=target segment
  kFrameDrop,        // a=frame
  // Decode track (strictly serial: sync span).
  kDecodeBegin,      // a=frame
  kDecodeEnd,        // a=frame, b=cycles, c=class(0 P,1 IDR,2 cancelled)
  // Net track.
  kFetchBegin,       // async id=a: a=job, b=bytes
  kFetchEnd,         // async id=a: a=job, b=error(FetchError), c=attempts
  kAttemptBegin,     // async id=a: a=job, b=attempt, c=fate(FetchFate)
  kAttemptEnd,       // async id=a: a=job, b=attempt, c=error(FetchError)
  kRetryBackoff,     // a=job, b=backoff_us, c=next attempt
  // Governor track.
  kGovernorSample,   // a=khz before the sample, b=khz after
  kGovernorDecision, // a=requested khz, b=relation, c=resolved khz
  // Cpu track.
  kFreqChange,       // a=old khz, b=new khz, c=cluster(0 big,1 little)
  // Vafs track.
  kVafsPlan,         // a=player state, b=boosted, c=latency_critical
  kSetspeedWrite,    // a=khz, b=errno(0 ok), c=cluster
  // Watchdog track (serial: sync span).
  kFallbackBegin,    // a=mode, b=cause(0 writes,1 misses,2 attach)
  kFallbackEnd,
  // Thermal track.
  kThrottleStep,     // a=step, b=capped khz
  // Fault track (runtime injections; planned windows are kFaultWindow).
  kInjectFetchFail,  // a=injected delay_us
  kInjectFetchHang,
  kInjectSysfsError, // a=errno code
  // Harness track (appended in PR 8; supervisor-recorded, wall-time
  // stamped — never part of a session's own digest).
  kWorkerSpawn,       // a=worker slot, b=pid
  kWorkerExit,        // a=worker slot, b=WorkerFate code, c=status/signal
  kTaskDispatch,      // a=task index, b=worker slot, c=attempt
  kTaskRetry,         // a=task index, b=attempt, c=WorkerFate code
  kTaskQuarantine,    // a=task index, b=attempts
  kHeartbeatMiss,     // a=worker slot, b=silent_ms
  kTaskDeadline,      // a=task index, b=worker slot, c=deadline_ms
  kWorkerOverBudget,  // a=worker slot, b=rss_mib, c=limit_mib
  // Serve track (appended in PR 10; daemon-recorded, wall-time stamped).
  kServeConnect,      // a=connection id
  kServeDisconnect,   // a=connection id, b=requests served
  kServeRequest,      // a=stream id, b=duration_us, c=frame type
  kServeReject,       // a=connection id, b=reason(0 capacity)
  kServeError,        // a=connection id, b=WireError code
};
inline constexpr std::size_t kEventKindCount = 39;

/// Static descriptor of an event kind: display name, track, phase and
/// argument names (nullptr = unused). Drives the Chrome exporter, the
/// golden-diff pretty printer and the span-nesting checker.
struct EventInfo {
  const char* name;
  Track track;
  Phase phase;
  const char* arg_a;
  const char* arg_b;
  const char* arg_c;
};

const EventInfo& event_info(EventKind kind);

/// Folds one session digest into a running chain with the same
/// avalanche-and-multiply step the per-event digest uses. Chaining the
/// per-session digests of a grid in canonical (scenario, seed) order gives
/// a single order-sensitive fingerprint of the whole run — the quantity
/// fleet checkpoints carry and the nightly kill/resume job compares.
/// chain_digest(0, ...) starts a fresh chain.
std::uint64_t chain_digest(std::uint64_t chain, std::uint64_t session_digest);

struct TraceEvent {
  std::int64_t t_us = 0;
  EventKind kind = EventKind::kSessionBegin;
  std::uint64_t a = 0;
  std::uint64_t b = 0;
  std::uint64_t c = 0;
};

class Tracer {
 public:
  struct Config {
    /// Events retained for export/diffing; older events are evicted (the
    /// digest is unaffected). 0 = digest-only mode: no event storage and
    /// no timeline — the mode grid runs use.
    std::size_t ring_capacity = 1 << 16;
  };

  /// Running digest checkpoint cadence: checkpoints() holds the digest
  /// after every kCheckpointInterval-th event, letting a golden mismatch
  /// be localized to a small window without storing reference streams.
  static constexpr std::uint64_t kCheckpointInterval = 64;

  Tracer() : Tracer(Config{}) {}
  explicit Tracer(Config config);

  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  void record(sim::SimTime at, EventKind kind, std::uint64_t a = 0, std::uint64_t b = 0,
              std::uint64_t c = 0);

  /// Canonical 64-bit digest of the full ordered event stream so far.
  std::uint64_t digest() const { return digest_; }
  /// Events recorded (including any evicted from the ring).
  std::uint64_t recorded() const { return recorded_; }
  /// Events evicted from the ring (0 in digest-only mode counts nothing
  /// as stored, so everything recorded counts as dropped there).
  std::uint64_t dropped() const { return dropped_; }

  /// Digest after event (i+1)*kCheckpointInterval, for each full block.
  const std::vector<std::uint64_t>& checkpoints() const { return checkpoints_; }

  /// Mirrors each digest checkpoint (event count + digest) into the given
  /// atomics as it is taken — the supervised worker's heartbeat thread
  /// reads them to report the in-flight task's "last obs checkpoint
  /// window" without touching the (single-threaded) tracer itself. The
  /// atomics must outlive the tracer; pass nullptrs to detach.
  void mirror_checkpoints(std::atomic<std::uint64_t>* events, std::atomic<std::uint64_t>* digest) {
    mirror_events_ = events;
    mirror_digest_ = digest;
  }

  // Retained events, oldest first.
  std::size_t size() const { return ring_.size(); }
  /// i in [0, size()); index 0 is the oldest retained event. The absolute
  /// stream index of event(i) is recorded() - size() + i.
  const TraceEvent& event(std::size_t i) const;

  /// True iff this tracer keeps timeline series: a timeline exists iff a
  /// ring does. Instrumented components test this before sampling, so a
  /// digest-only tracer costs only the digest fold per event.
  bool keeps_timeline() const { return capacity_ != 0; }

  /// Timeline series (frequency / buffer / bandwidth / power) attached to
  /// this tracer; instrumented components push samples here when
  /// keeps_timeline(). Every series stays empty on a digest-only tracer.
  Timeline& timeline() { return timeline_; }
  const Timeline& timeline() const { return timeline_; }

 private:
  std::size_t capacity_;
  std::vector<TraceEvent> ring_;
  std::size_t head_ = 0;  // slot the next event lands in once the ring is full
  std::uint64_t recorded_ = 0;
  std::uint64_t dropped_ = 0;
  std::uint64_t digest_;
  std::vector<std::uint64_t> checkpoints_;
  std::atomic<std::uint64_t>* mirror_events_ = nullptr;
  std::atomic<std::uint64_t>* mirror_digest_ = nullptr;
  Timeline timeline_;
};

}  // namespace vafs::obs
