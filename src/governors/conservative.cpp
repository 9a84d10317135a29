#include "governors/conservative.h"

#include <algorithm>

namespace vafs::governors {

std::uint32_t ConservativeGovernor::step_khz() const {
  auto* p = const_cast<ConservativeGovernor*>(this)->policy();
  const auto max = p->opps().max().freq_khz;
  // Kernel floor: at least 5 MHz so a tiny step still moves off an OPP.
  return std::max<std::uint32_t>(max / 100 * t_.freq_step_pct, 5000);
}

void ConservativeGovernor::on_sample() {
  auto* p = policy();
  const double load = window_load() * 100.0;

  if (load > static_cast<double>(t_.up_threshold)) {
    if (p->cur_khz() < p->max_khz()) {
      p->set_target(p->cur_khz() + step_khz(), cpu::Relation::kAtLeast);
    }
    return;
  }
  if (load < static_cast<double>(t_.down_threshold)) {
    if (p->cur_khz() > p->min_khz()) {
      const std::uint32_t cur = p->cur_khz();
      const std::uint32_t step = step_khz();
      const std::uint32_t target = cur > step ? cur - step : p->min_khz();
      p->set_target(target, cpu::Relation::kAtMost);
    }
  }
}

std::vector<cpu::Tunable> ConservativeGovernor::tunables() {
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
         if (!sim::parse_u64(v, &pct) || pct <= t_.down_threshold || pct > 100) {
           return sysfs::Errno::kInval;
         }
         t_.up_threshold = static_cast<unsigned>(pct);
         return {};
       }},
      {"down_threshold", [this] { return std::to_string(t_.down_threshold); },
       [this](std::string_view v) -> sysfs::Status {
         std::uint64_t pct = 0;
         if (!sim::parse_u64(v, &pct) || pct >= t_.up_threshold) return sysfs::Errno::kInval;
         t_.down_threshold = static_cast<unsigned>(pct);
         return {};
       }},
      {"freq_step", [this] { return std::to_string(t_.freq_step_pct); },
       [this](std::string_view v) -> sysfs::Status {
         std::uint64_t pct = 0;
         if (!sim::parse_u64(v, &pct) || pct == 0 || pct > 100) return sysfs::Errno::kInval;
         t_.freq_step_pct = static_cast<unsigned>(pct);
         return {};
       }},
  };
}

}  // namespace vafs::governors
