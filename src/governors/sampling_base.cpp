#include "governors/sampling_base.h"

#include <algorithm>

#include "obs/trace.h"

namespace vafs::governors {

void SamplingGovernorBase::start(cpu::CpufreqPolicy& policy) {
  policy_ = &policy;
  last_busy_ = policy_->cpu().total_busy_time();
  last_wall_ = policy_->simulator().now();
  on_start();
  arm_next();
}

void SamplingGovernorBase::stop() {
  timer_.cancel();
  policy_ = nullptr;
}

void SamplingGovernorBase::arm_next() {
  // A periodic series: one armed event carried across samples instead of a
  // fresh schedule per sample. The period is fixed at arm time; tunable
  // writes that change it go through rearm(), which re-creates the series,
  // and stop() cancels it (detaching mid-sample included).
  timer_.cancel();
  timer_ = policy_->simulator().every(sampling_period(), [this] { sample(); });
}

void SamplingGovernorBase::sample() {
  obs::Tracer* tracer = policy_->tracer();
  if (tracer == nullptr) {
    on_sample();
    return;
  }
  const std::uint32_t before_khz = policy_->cur_khz();
  on_sample();
  tracer->record(policy_->simulator().now(), obs::EventKind::kGovernorSample, before_khz,
                 policy_->cur_khz());
}

void SamplingGovernorBase::rearm() {
  if (policy_ == nullptr) return;
  arm_next();
}

double SamplingGovernorBase::window_load() {
  const sim::SimTime busy = policy_->cpu().total_busy_time();
  const sim::SimTime wall = policy_->simulator().now();
  const sim::SimTime d_busy = busy - last_busy_;
  const sim::SimTime d_wall = wall - last_wall_;
  last_busy_ = busy;
  last_wall_ = wall;
  if (d_wall <= sim::SimTime::zero()) return 0.0;
  return std::min(1.0, d_busy.as_seconds_f() / d_wall.as_seconds_f());
}

}  // namespace vafs::governors
