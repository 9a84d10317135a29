#include "governors/schedutil.h"

namespace vafs::governors {

void SchedutilGovernor::on_start() {
  last_change_ = policy()->simulator().now() - sim::SimTime::micros(
                     static_cast<std::int64_t>(t_.rate_limit_us));
}

void SchedutilGovernor::on_sample() {
  auto* p = policy();
  const sim::SimTime now = p->simulator().now();
  if (now - last_change_ <
      sim::SimTime::micros(static_cast<std::int64_t>(t_.rate_limit_us))) {
    return;
  }

  const double util = p->cpu().pelt_util();
  const auto max_khz = static_cast<double>(p->opps().max().freq_khz);
  const auto target = static_cast<std::uint32_t>(t_.headroom * max_khz * util);

  const std::uint32_t before = p->cur_khz();
  p->set_target(target, cpu::Relation::kAtLeast);
  if (p->cur_khz() != before) last_change_ = now;
}

std::vector<cpu::Tunable> SchedutilGovernor::tunables() {
  return {
      {"rate_limit_us", [this] { return std::to_string(t_.rate_limit_us); },
       [this](std::string_view v) -> sysfs::Status {
         std::uint64_t us = 0;
         if (!sim::parse_u64(v, &us) || us > kMaxTunableUs) return sysfs::Errno::kInval;
         t_.rate_limit_us = us;
         return {};
       }},
  };
}

}  // namespace vafs::governors
