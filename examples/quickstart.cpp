// Quickstart: stream one 2-minute 720p video over a fair LTE link under a
// stock governor and under VAFS, and print the energy / QoE comparison.
//
//   $ ./quickstart [governor...]        (default: ondemand vafs)
#include <cstdio>
#include <string>
#include <vector>

#include "core/session.h"

namespace {

void print_result(const std::string& name, const vafs::core::SessionResult& r) {
  std::printf("%-12s  cpu %8.1f mJ  radio %8.1f mJ  total %8.1f mJ  |  "
              "startup %6.2f s  rebuf %llu  drops %.2f %%  transitions %llu\n",
              name.c_str(), r.energy.cpu_mj, r.energy.radio_mj, r.energy.total_mj(),
              r.qoe.startup_delay.as_seconds_f(),
              static_cast<unsigned long long>(r.qoe.rebuffer_events), r.qoe.drop_ratio() * 100.0,
              static_cast<unsigned long long>(r.clusters[0].freq_transitions));
}

}  // namespace

int main(int argc, char** argv) {
  std::vector<std::string> governors;
  for (int i = 1; i < argc; ++i) governors.emplace_back(argv[i]);
  if (governors.empty()) governors = {"performance", "ondemand", "interactive", "schedutil",
                                      "conservative", "powersave", "vafs"};

  std::printf("Streaming 120 s of 720p over fair LTE (4 s segments, fixed ABR)\n\n");

  double ondemand_cpu = 0.0;
  for (const auto& governor : governors) {
    vafs::core::SessionConfig config;
    config.governor = governor;
    config.media_duration = vafs::sim::SimTime::seconds(120);
    config.net = vafs::core::NetProfile::kFair;
    config.fixed_rep = 2;
    config.seed = 42;

    const auto result = vafs::core::run_session(config);
    if (!result.finished) {
      std::printf("%-12s  DID NOT FINISH (hit simulation cap)\n", governor.c_str());
      continue;
    }
    print_result(governor, result);
    if (governor == "ondemand") ondemand_cpu = result.energy.cpu_mj;
    if (governor == "vafs" && ondemand_cpu > 0) {
      std::printf("\nVAFS CPU energy saving vs ondemand: %.1f %%\n",
                  (1.0 - result.energy.cpu_mj / ondemand_cpu) * 100.0);
    }
  }
  return 0;
}
