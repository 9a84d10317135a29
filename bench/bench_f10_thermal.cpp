// F10 — thermal behaviour under sustained 1080p streaming (extension).
//
// 5-minute 1080p sessions in a warm environment (40 °C ambient) with the
// lumped-RC thermal model and step-wise throttle enabled. Reactive
// governors that burst to the top OPPs heat the SoC into the throttle
// band; once capped, their QoE depends on the cap. VAFS's lower steady
// frequency keeps the SoC cooler and out of (or barely into) throttling.
#include <cstdio>
#include <string>
#include <vector>

#include "exp/bench_app.h"

int main(int argc, char** argv) {
  using namespace vafs;

  exp::BenchApp app(argc, argv, "f10",
                    "Thermal: sustained 1080p at 40 C ambient, throttle enabled");

  const std::vector<std::string> governors = {"performance", "ondemand", "interactive",
                                              "schedutil", "vafs"};

  core::SessionConfig base;
  base.fixed_rep = 3;  // 1080p: the hot case
  base.media_duration = app.session_seconds(300);
  base.net = core::NetProfile::kGood;
  base.thermal_enabled = true;
  base.profile.thermal.ambient_c = 40.0;  // summer car-mount worst case

  const exp::ResultSet& results = app.run(exp::ExperimentGrid(base).governors(governors));

  std::printf("%-13s %9s %9s %10s %11s %9s %9s %8s\n", "governor", "peak_C", "mean_C",
              "thr_time_s", "thr_events", "cpu_J", "drop_%", "rebuf");
  exp::print_rule(84);

  for (const auto& governor : governors) {
    const auto& a = results.agg({{"governor", governor}});
    if (!a.all_finished) {
      std::printf("%-13s DID NOT FINISH\n", governor.c_str());
      continue;
    }
    std::printf("%-13s %9.1f %9.1f %10.1f %11.0f %9.1f %9.2f %8.1f\n", governor.c_str(),
                a.peak_temp_c.mean(), a.mean_temp_c.mean(), a.throttled_s.mean(),
                a.throttle_events.mean(), a.cpu_mj.mean() / 1000.0, a.drop_pct.mean(),
                a.rebuffer_events.mean());
  }

  std::printf("\nExpected shape: performance spends most of the session throttled and\n"
              "ondemand/interactive minutes of it; VAFS and schedutil run ~2-3 C\n"
              "cooler and never cross the trip, so their QoE owes nothing to the cap.\n");
  return app.finish();
}
