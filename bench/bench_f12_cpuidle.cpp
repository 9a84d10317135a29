// F12 — idle-state depth vs governor ranking (extension).
//
// The DVFS-vs-race-to-idle question: deeper idle states make *finishing
// fast and sleeping* cheaper, which erodes part of slow-and-steady's
// advantage. Sweeps the cpuidle strategy (flat WFI, realistic menu,
// oracle) across governors at 720p.
//
// Expected shape: every governor gains from deeper idle; reactive
// governors gain *more* (they idle at high frequency after bursts), so
// the VAFS-vs-ondemand gap narrows a few points — but does not close,
// because the busy-time energy difference (voltage!) remains.
#include <cstdio>
#include <string>
#include <vector>

#include "exp/bench_app.h"

int main(int argc, char** argv) {
  using namespace vafs;

  exp::BenchApp app(argc, argv, "f12", "Idle-state strategy vs governor energy (720p, fair LTE)");

  const std::vector<cpu::CpuidleStrategy> strategies = {
      cpu::CpuidleStrategy::kShallowOnly, cpu::CpuidleStrategy::kMenu,
      cpu::CpuidleStrategy::kOracle};
  const std::vector<std::string> governors = {"ondemand", "interactive", "schedutil", "vafs"};

  core::SessionConfig base;
  base.fixed_rep = 2;
  base.media_duration = app.session_seconds(120);
  base.net = core::NetProfile::kFair;

  exp::ExperimentGrid grid(base);
  std::vector<std::pair<std::string, exp::ExperimentGrid::Mutator>> idle_axis;
  for (const auto strategy : strategies) {
    idle_axis.emplace_back(cpu::cpuidle_strategy_name(strategy),
                           [strategy](core::SessionConfig& c) { c.profile.cpuidle = strategy; });
  }
  grid.axis("cpuidle", std::move(idle_axis)).governors(governors);

  const exp::ResultSet& results = app.run(grid);

  std::printf("%-9s %-12s %10s %10s %9s\n", "cpuidle", "governor", "cpu_J", "vs_ondm",
              "drop_%");
  exp::print_rule(56);

  for (const auto strategy : strategies) {
    const char* idle_name = cpu::cpuidle_strategy_name(strategy);
    const double ondemand_cpu =
        results.agg({{"cpuidle", idle_name}, {"governor", "ondemand"}}).cpu_mj.mean();
    for (const auto& governor : governors) {
      const auto& a = results.agg({{"cpuidle", idle_name}, {"governor", governor}});
      std::printf("%-9s %-12s %10.2f %9.1f%% %9.2f\n", idle_name, governor.c_str(),
                  a.cpu_mj.mean() / 1000.0, (1.0 - a.cpu_mj.mean() / ondemand_cpu) * 100.0,
                  a.drop_pct.mean());
    }
    exp::print_rule(56);
  }
  return app.finish();
}
