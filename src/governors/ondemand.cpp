#include "governors/ondemand.h"

namespace vafs::governors {

void OndemandGovernor::on_start() {
  // Kernel ondemand starts from the current frequency; no initial jump.
  down_skip_ = 0;
}

void OndemandGovernor::on_sample() {
  auto* p = policy();
  const double load = window_load() * 100.0;
  const double bias = 1.0 - static_cast<double>(t_.powersave_bias) / 1000.0;

  if (load > static_cast<double>(t_.up_threshold)) {
    down_skip_ = 0;
    p->set_target(static_cast<std::uint32_t>(static_cast<double>(p->max_khz()) * bias),
                  cpu::Relation::kAtMost);
    return;
  }

  // sampling_down_factor: once at max, stay there for N samples before
  // considering a down-scale (reduces thrash under bursty load).
  if (p->cur_khz() == p->max_khz() && t_.sampling_down_factor > 1) {
    if (++down_skip_ < t_.sampling_down_factor) return;
  }
  down_skip_ = 0;

  // Proportional down-scale: lowest frequency at which this load would
  // still be under the threshold.
  const double target =
      static_cast<double>(p->cur_khz()) * load / static_cast<double>(t_.up_threshold) * bias;
  p->set_target(static_cast<std::uint32_t>(target), cpu::Relation::kAtLeast);
}

std::vector<cpu::Tunable> OndemandGovernor::tunables() {
  return {
      {"sampling_rate", [this] { return std::to_string(t_.sampling_rate_us); },
       [this](std::string_view v) -> sysfs::Status {
         std::uint64_t us = 0;
         if (!sim::parse_u64(v, &us) || us > kMaxTunableUs || us < 1000) {
           return sysfs::Errno::kInval;
         }
         t_.sampling_rate_us = us;
         rearm();
         return {};
       }},
      {"up_threshold", [this] { return std::to_string(t_.up_threshold); },
       [this](std::string_view v) -> sysfs::Status {
         std::uint64_t pct = 0;
         if (!sim::parse_u64(v, &pct) || pct == 0 || pct > 100) return sysfs::Errno::kInval;
         t_.up_threshold = static_cast<unsigned>(pct);
         return {};
       }},
      {"sampling_down_factor", [this] { return std::to_string(t_.sampling_down_factor); },
       [this](std::string_view v) -> sysfs::Status {
         std::uint64_t n = 0;
         if (!sim::parse_u64(v, &n) || n == 0 || n > 100'000) return sysfs::Errno::kInval;
         t_.sampling_down_factor = static_cast<unsigned>(n);
         return {};
       }},
      {"powersave_bias", [this] { return std::to_string(t_.powersave_bias); },
       [this](std::string_view v) -> sysfs::Status {
         std::uint64_t n = 0;
         if (!sim::parse_u64(v, &n) || n > 1000) return sysfs::Errno::kInval;
         t_.powersave_bias = static_cast<unsigned>(n);
         return {};
       }},
  };
}

}  // namespace vafs::governors
