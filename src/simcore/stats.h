// Online statistics used throughout the evaluation harness.
#pragma once

#include <cstddef>
#include <cstdint>

namespace vafs::sim {

/// Welford-style running mean/variance with min/max tracking.
class OnlineStats {
 public:
  void add(double x);

  /// Folds `n` samples in one call — identical arithmetic to n add()
  /// calls (bit-for-bit), but one non-inlined call per block instead of
  /// one per sample. The flush path of StatsBatch.
  void add_n(const double* xs, std::size_t n);

  std::size_t count() const { return n_; }
  double mean() const { return n_ ? mean_ : 0.0; }
  /// Sample variance (n-1 denominator); 0 for fewer than 2 samples.
  double variance() const;
  double stddev() const;
  double min() const { return n_ ? min_ : 0.0; }
  double max() const { return n_ ? max_ : 0.0; }
  double sum() const { return n_ ? mean_ * static_cast<double>(n_) : 0.0; }

  /// Merges another accumulator into this one (parallel Welford).
  void merge(const OnlineStats& other);

  /// The full internal state, exposed for bit-exact serialization (fleet
  /// checkpoints store the raw double bit patterns). A state()/from_state()
  /// round trip reproduces the accumulator exactly — subsequent add() and
  /// merge() calls are bit-identical to the original's.
  struct State {
    std::uint64_t n = 0;
    double mean = 0.0;
    double m2 = 0.0;
    double min = 0.0;
    double max = 0.0;
  };
  State state() const;
  static OnlineStats from_state(const State& s);

 private:
  std::size_t n_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
};

/// Fixed-size staging buffer in front of an OnlineStats: per-tick samplers
/// (thermal integrator, residency probes) append to the buffer — one store
/// and a bounds check — and pay the accumulator call once per block rather
/// than once per sample. Results are bit-identical to unbatched add()
/// calls; flush() before reading the target accumulator.
template <std::size_t N = 64>
class StatsBatch {
 public:
  void add(double x, OnlineStats& into) {
    buf_[n_++] = x;
    if (n_ == N) flush(into);
  }
  void flush(OnlineStats& into) {
    into.add_n(buf_, n_);
    n_ = 0;
  }
  std::size_t buffered() const { return n_; }

 private:
  double buf_[N];
  std::size_t n_ = 0;
};

}  // namespace vafs::sim
