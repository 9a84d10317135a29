#include "net/downloader.h"

#include <algorithm>
#include <cassert>
#include <cmath>

#include "obs/trace.h"

namespace vafs::net {
namespace {

double mbps_to_bytes_per_us(double mbps) { return mbps * 1e6 / 8.0 / 1e6; }

}  // namespace

const char* fetch_error_name(FetchError e) {
  switch (e) {
    case FetchError::kNone: return "none";
    case FetchError::kTimeout: return "timeout";
    case FetchError::kInjected: return "injected";
  }
  return "?";
}

Downloader::Downloader(sim::Simulator& simulator, RadioModel& radio,
                       BandwidthProcess& bandwidth, cpu::CpuSink* cpu_model,
                       DownloaderParams params, FetchFaultHook* faults,
                       std::uint64_t retry_seed)
    : sim_(simulator),
      radio_(radio),
      bandwidth_(bandwidth),
      cpu_(cpu_model),
      params_(params),
      faults_(faults),
      retry_seed_(retry_seed) {}

Downloader::Job* Downloader::find_job(std::uint64_t id) {
  for (auto& j : jobs_) {
    if (j.id == id) return &j;
  }
  return nullptr;
}

void Downloader::fetch(std::uint64_t bytes, std::function<void(const FetchResult&)> on_done) {
  const std::uint64_t id = next_id_++;
  Job job;
  job.id = id;
  job.result.bytes = bytes;
  job.result.started = sim_.now();
  job.bytes_remaining = static_cast<double>(bytes);
  job.on_done = std::move(on_done);
  jobs_.push_back(std::move(job));
  if (tracer_ != nullptr) tracer_->record(sim_.now(), obs::EventKind::kFetchBegin, id, bytes);
  start_attempt(jobs_.back());
}

void Downloader::start_attempt(Job& job) {
  ++job.attempts;
  job.attempt_epoch = ++attempt_seq_;
  job.bytes_remaining = static_cast<double>(job.result.bytes);
  job.fate = FetchFate::kOk;
  job.fail_delay = sim::SimTime::zero();
  if (faults_ != nullptr) {
    job.fate = faults_->fetch_attempt_fate(sim_.now(), job.id, job.attempts, &job.fail_delay);
  }
  if (tracer_ != nullptr) {
    tracer_->record(sim_.now(), obs::EventKind::kAttemptBegin, job.id, job.attempts,
                    static_cast<std::uint64_t>(job.fate));
  }

  const std::uint64_t id = job.id;
  const std::uint64_t epoch = job.attempt_epoch;
  if (params_.attempt_timeout != sim::SimTime::max()) {
    job.timeout_event = sim_.after(params_.attempt_timeout, [this, id, epoch] {
      attempt_failed(id, epoch, FetchError::kTimeout);
    });
  }
  job.radio = RadioHold::kAcquiring;
  // May fire synchronously (radio already active) — don't touch `job`
  // through the reference after this call.
  radio_.acquire([this, id, epoch] { on_radio_ready(id, epoch); });
}

void Downloader::on_radio_ready(std::uint64_t id, std::uint64_t epoch) {
  Job* job = find_job(id);
  if (job == nullptr || job->attempt_epoch != epoch) {
    // The attempt this acquire belonged to was aborted (or the whole fetch
    // gave up) while the radio was promoting: balance the acquire.
    radio_.release();
    return;
  }
  job->radio = RadioHold::kHeld;
  sim_.after(params_.rtt, [this, id, epoch] { begin_receive(id, epoch); });
}

void Downloader::begin_receive(std::uint64_t id, std::uint64_t epoch) {
  {
    Job* job = find_job(id);
    if (job == nullptr || job->attempt_epoch != epoch) return;  // attempt aborted mid-RTT
    if (job->fate == FetchFate::kHang) return;  // server went silent; only the timeout rescues
    if (job->fate == FetchFate::kFail) {
      const sim::SimTime delay = job->fail_delay;
      job->fail_event = sim_.after(delay, [this, id, epoch] {
        attempt_failed(id, epoch, FetchError::kInjected);
      });
      return;
    }
  }
  pump();  // settle existing receivers before the receiver set changes
  Job* job = find_job(id);  // pump may finish jobs and shift the vector
  assert(job != nullptr && job->attempt_epoch == epoch);
  job->receiving = true;
  job->result.first_byte = sim_.now();
  if (cpu_ != nullptr && params_.cpu_cycles_per_request > 0) {
    cpu_->submit("http-request", params_.cpu_cycles_per_request, nullptr);
  }
  if (job->bytes_remaining <= 0) {
    job->receiving = false;
    finish_job(id);  // zero-byte fetch completes straight away
    return;
  }
  pump();  // re-arm with the new receiver set
}

void Downloader::attempt_failed(std::uint64_t id, std::uint64_t epoch, FetchError error) {
  Job* job = find_job(id);
  if (job == nullptr || job->attempt_epoch != epoch) return;

  job->timeout_event.cancel();
  job->fail_event.cancel();
  if (job->receiving) {
    pump();  // settle arrivals (and other jobs) through now
    job = find_job(id);
    assert(job != nullptr);
    job->receiving = false;
  }
  if (job->radio == RadioHold::kHeld) radio_.release();
  // kAcquiring: the pending ready callback sees the bumped epoch below and
  // releases; kNone: nothing to balance.
  job->radio = RadioHold::kNone;
  job->attempt_epoch = ++attempt_seq_;  // stales this attempt's callbacks

  if (error == FetchError::kTimeout) ++timeouts_;
  if (tracer_ != nullptr) {
    tracer_->record(sim_.now(), obs::EventKind::kAttemptEnd, job->id, job->attempts,
                    static_cast<std::uint64_t>(error));
  }

  if (job->attempts >= params_.max_attempts) {
    ++failed_fetches_;
    const std::uint64_t jid = job->id;
    for (auto it = jobs_.begin(); it != jobs_.end(); ++it) {
      if (it->id != jid) continue;
      Job failed = std::move(*it);
      jobs_.erase(it);
      failed.result.completed = sim_.now();
      failed.result.ok = false;
      failed.result.error = error;
      failed.result.attempts = failed.attempts;
      if (tracer_ != nullptr) {
        tracer_->record(sim_.now(), obs::EventKind::kFetchEnd, jid,
                        static_cast<std::uint64_t>(error), failed.attempts);
      }
      if (failed.on_done) failed.on_done(failed.result);
      return;
    }
    assert(false && "attempt_failed: job vanished");
    return;
  }

  ++retries_;
  const double expo = std::pow(params_.backoff_factor, static_cast<double>(job->attempts - 1));
  double backoff_us =
      static_cast<double>(params_.backoff_base.as_micros()) * std::max(1.0, expo);
  if (params_.backoff_jitter > 0) {
    // Keyed draw: this retry's jitter depends only on (seed, fetch,
    // attempt), so any other fetch's retry history leaves it untouched.
    sim::Rng jitter(sim::mix_stream(retry_seed_, job->id, job->attempts));
    backoff_us *= 1.0 + params_.backoff_jitter * (jitter.uniform() * 2.0 - 1.0);
  }
  const auto delay = sim::SimTime::micros(
      std::max<std::int64_t>(1, static_cast<std::int64_t>(std::llround(backoff_us))));
  if (tracer_ != nullptr) {
    tracer_->record(sim_.now(), obs::EventKind::kRetryBackoff, id,
                    static_cast<std::uint64_t>(delay.as_micros()), job->attempts + 1);
  }
  job->retry_event = sim_.after(delay, [this, id] {
    Job* j = find_job(id);
    if (j != nullptr) start_attempt(*j);
  });
}

void Downloader::pump() {
  const sim::SimTime now = sim_.now();
  const sim::SimTime elapsed = now - last_pump_;

  // Count receivers *before* this pump's boundary changes.
  std::size_t receivers = 0;
  for (const auto& j : jobs_) {
    if (j.receiving) ++receivers;
  }

  if (elapsed > sim::SimTime::zero() && receivers > 0) {
    // Rate was constant over [last_pump_, now]: pump events are armed at
    // every bandwidth change point and at every receiver-set change.
    const double rate = bandwidth_.current_mbps(last_pump_);
    if (tracer_ != nullptr && tracer_->keeps_timeline()) {
      // Passive capture: the rate was read for byte accounting anyway, so
      // sampling it here perturbs nothing.
      tracer_->timeline().push(obs::SeriesId::kBandwidthMbps, last_pump_, rate);
    }
    const double per_job_bytes = mbps_to_bytes_per_us(rate) *
                                 static_cast<double>(elapsed.as_micros()) /
                                 static_cast<double>(receivers);
    std::vector<std::uint64_t> finished;
    for (auto& j : jobs_) {
      if (!j.receiving) continue;
      const double arrived = std::min(per_job_bytes, j.bytes_remaining);
      j.bytes_remaining -= arrived;
      if (cpu_ != nullptr && arrived > 0) {
        const double cycles = arrived * params_.cpu_cycles_per_byte;
        if (j.bytes_remaining <= 0.5) {
          // Final chunk: completion is gated on its CPU processing. The
          // payload is fully down, so the attempt can no longer time out.
          const std::uint64_t id = j.id;
          j.bytes_remaining = 0;
          j.receiving = false;  // stop accruing
          j.timeout_event.cancel();
          cpu_->submit("http-recv-final", cycles, [this, id] { finish_job(id); });
        } else {
          cpu_->submit("http-recv", cycles, nullptr);
        }
      } else if (j.bytes_remaining <= 0.5) {
        j.bytes_remaining = 0;
        j.receiving = false;
        finished.push_back(j.id);
      }
    }
    for (const auto id : finished) finish_job(id);
  }
  last_pump_ = now;

  // Re-arm: next bandwidth change or earliest completion.
  receivers = 0;
  for (const auto& j : jobs_) {
    if (j.receiving) ++receivers;
  }
  if (receivers == 0) {
    pump_event_.cancel();
    return;
  }

  const double rate = bandwidth_.current_mbps(now);
  sim::SimTime next = bandwidth_.next_change(now);
  if (rate > 0) {
    const double per_job_rate = mbps_to_bytes_per_us(rate) / static_cast<double>(receivers);
    double min_remaining = -1;
    for (const auto& j : jobs_) {
      if (j.receiving && (min_remaining < 0 || j.bytes_remaining < min_remaining)) {
        min_remaining = j.bytes_remaining;
      }
    }
    // Compare in double against the horizon and convert only a completion
    // that comes first: at a tiny rate the completion lies past 2^63 µs,
    // where the integer cast (and now + done) would overflow.
    const double done_us = std::max(1.0, std::ceil(min_remaining / per_job_rate));
    if (done_us < static_cast<double>((next - now).as_micros())) {
      next = now + sim::SimTime::micros(static_cast<std::int64_t>(done_us));
    }
  }
  if (next == sim::SimTime::max()) {  // outage with no scheduled recovery
    pump_event_.cancel();
    return;
  }
  // Re-arm in place when a pump is pending (the common case when a new job
  // or an early wake moved the horizon); fresh schedule otherwise.
  if (!sim_.reschedule(pump_event_, next)) {
    pump_event_ = sim_.at(next, [this] { pump(); });
  }
}

void Downloader::finish_job(std::uint64_t id) {
  for (auto it = jobs_.begin(); it != jobs_.end(); ++it) {
    if (it->id != id) continue;
    Job job = std::move(*it);
    jobs_.erase(it);
    job.timeout_event.cancel();
    job.fail_event.cancel();
    job.result.completed = sim_.now();
    job.result.attempts = job.attempts;
    total_bytes_ += job.result.bytes;
    radio_.release();
    if (tracer_ != nullptr) {
      tracer_->record(sim_.now(), obs::EventKind::kAttemptEnd, id, job.attempts, 0);
      tracer_->record(sim_.now(), obs::EventKind::kFetchEnd, id, 0, job.attempts);
    }
    if (job.on_done) job.on_done(job.result);
    return;
  }
  assert(false && "finish_job: unknown job");
}

}  // namespace vafs::net
