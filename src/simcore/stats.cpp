#include "simcore/stats.h"

#include <algorithm>
#include <cmath>

namespace vafs::sim {

void OnlineStats::add(double x) {
  if (n_ == 0) {
    min_ = max_ = x;
  } else {
    min_ = std::min(min_, x);
    max_ = std::max(max_, x);
  }
  ++n_;
  const double delta = x - mean_;
  mean_ += delta / static_cast<double>(n_);
  m2_ += delta * (x - mean_);
}

void OnlineStats::add_n(const double* xs, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) add(xs[i]);
}

double OnlineStats::variance() const {
  if (n_ < 2) return 0.0;
  return m2_ / static_cast<double>(n_ - 1);
}

double OnlineStats::stddev() const { return std::sqrt(variance()); }

void OnlineStats::merge(const OnlineStats& other) {
  if (other.n_ == 0) return;
  if (n_ == 0) {
    *this = other;
    return;
  }
  const double na = static_cast<double>(n_);
  const double nb = static_cast<double>(other.n_);
  const double delta = other.mean_ - mean_;
  const double total = na + nb;
  mean_ += delta * nb / total;
  m2_ += other.m2_ + delta * delta * na * nb / total;
  n_ += other.n_;
  min_ = std::min(min_, other.min_);
  max_ = std::max(max_, other.max_);
}

OnlineStats::State OnlineStats::state() const {
  return State{static_cast<std::uint64_t>(n_), mean_, m2_, min_, max_};
}

OnlineStats OnlineStats::from_state(const State& s) {
  OnlineStats stats;
  stats.n_ = static_cast<std::size_t>(s.n);
  stats.mean_ = s.mean;
  stats.m2_ = s.m2;
  stats.min_ = s.min;
  stats.max_ = s.max;
  return stats;
}

}  // namespace vafs::sim
