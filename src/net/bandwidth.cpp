#include "net/bandwidth.h"

#include <algorithm>
#include <cassert>
#include <cmath>

namespace vafs::net {

MarkovBandwidth::MarkovBandwidth(Params params, sim::Rng rng)
    : p_(params), rng_(rng), cur_mbps_(params.mean_mbps), cur_until_(sim::SimTime::zero()) {
  assert(p_.min_mbps > 0 && p_.min_mbps <= p_.mean_mbps && p_.mean_mbps <= p_.max_mbps);
}

void MarkovBandwidth::advance_to(sim::SimTime now) {
  while (cur_until_ <= now) {
    // Multiplicative step with mean reversion: log-rate walks toward the
    // log-mean, bounded to [min, max].
    const double log_cur = std::log(cur_mbps_);
    const double log_mean = std::log(p_.mean_mbps);
    const double pulled = log_cur + p_.reversion * (log_mean - log_cur);
    const double stepped = pulled + rng_.normal(0.0, p_.volatility);
    cur_mbps_ = std::clamp(std::exp(stepped), p_.min_mbps, p_.max_mbps);

    const double dwell_us = rng_.exponential(p_.mean_dwell.as_seconds_f() * 1e6);
    cur_until_ += sim::SimTime::micros(std::max<std::int64_t>(1000, static_cast<std::int64_t>(dwell_us)));
  }
}

double MarkovBandwidth::current_mbps(sim::SimTime now) {
  advance_to(now);
  return cur_mbps_;
}

sim::SimTime MarkovBandwidth::next_change(sim::SimTime now) {
  advance_to(now);
  return cur_until_;
}

TraceBandwidth::TraceBandwidth(std::vector<Step> steps, bool loop)
    : steps_(std::move(steps)), loop_(loop) {
  assert(!steps_.empty());
  assert(steps_.front().at == sim::SimTime::zero() && "trace must start at t=0");
  for (std::size_t i = 1; i < steps_.size(); ++i) {
    assert(steps_[i].at > steps_[i - 1].at && "trace steps must be increasing");
  }
  // Loop period: one more step-length past the last change point, estimated
  // as the median step so short traces loop smoothly.
  if (steps_.size() >= 2) {
    duration_ = steps_.back().at + (steps_.back().at - steps_[steps_.size() - 2].at);
  } else {
    duration_ = std::max(steps_.back().at, sim::SimTime::seconds(1)) + sim::SimTime::seconds(1);
  }
}

std::size_t TraceBandwidth::locate(sim::SimTime now, sim::SimTime* remaining) const {
  sim::SimTime t = now;
  if (loop_ && duration_ > sim::SimTime::zero()) {
    t = sim::SimTime(now.as_micros() % duration_.as_micros());
  }
  // The last step at or before t (binary search: the steps are sorted).
  const auto after = std::upper_bound(steps_.begin(), steps_.end(), t,
                                      [](sim::SimTime at, const Step& s) { return at < s.at; });
  const std::size_t idx =
      after == steps_.begin() ? 0 : static_cast<std::size_t>(after - steps_.begin()) - 1;
  const sim::SimTime seg_end = (idx + 1 < steps_.size()) ? steps_[idx + 1].at : duration_;
  *remaining = seg_end - t;
  return idx;
}

double TraceBandwidth::current_mbps(sim::SimTime now) {
  if (!loop_ && now >= steps_.back().at) return steps_.back().mbps;
  sim::SimTime remaining;
  return steps_[locate(now, &remaining)].mbps;
}

sim::SimTime TraceBandwidth::next_change(sim::SimTime now) {
  if (!loop_ && now >= steps_.back().at) return sim::SimTime::max();
  sim::SimTime remaining;
  locate(now, &remaining);
  if (remaining <= sim::SimTime::zero()) remaining = sim::SimTime::micros(1);
  return now + remaining;
}

}  // namespace vafs::net
