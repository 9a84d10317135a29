// Shared machinery for sampling governors: a periodic timer plus the
// windowed-load computation (busy fraction since the previous sample) that
// ondemand-family governors are built on.
#pragma once

#include <cstdint>

#include "cpu/cpufreq_policy.h"
#include "cpu/governor.h"
#include "simcore/parse.h"
#include "simcore/simulator.h"

namespace vafs::governors {

class SamplingGovernorBase : public cpu::Governor {
 public:
  void start(cpu::CpufreqPolicy& policy) override;
  void stop() override;

 protected:
  /// Per-governor sampling period (read each re-arm, so tunable changes
  /// take effect at the next sample).
  virtual sim::SimTime sampling_period() const = 0;

  /// Called every sampling period while attached.
  virtual void on_sample() = 0;

  /// Hook for initial frequency choice; default leaves the frequency alone.
  virtual void on_start() {}

  /// Busy fraction of wall time since the previous call (or since start).
  /// Matches what the kernel derives from idle-time deltas. Returns 0 for
  /// an empty window.
  double window_load();

  cpu::CpufreqPolicy* policy() { return policy_; }

  /// Cancels and re-arms the timer (used after tunable writes that change
  /// the period).
  void rearm();

 private:
  void arm_next();
  /// Timer tick: runs on_sample(), bracketing it with a trace record when a
  /// tracer is attached to the policy.
  void sample();

  cpu::CpufreqPolicy* policy_ = nullptr;
  sim::EventHandle timer_;
  sim::SimTime last_busy_ = sim::SimTime::zero();
  sim::SimTime last_wall_ = sim::SimTime::zero();
};

/// Largest value a microsecond tunable accepts: the kernel's attributes are
/// `unsigned int`, and any value that fits one converts to SimTime exactly.
inline constexpr std::uint64_t kMaxTunableUs = UINT32_MAX;

}  // namespace vafs::governors
