// F5 — frequency residency distributions.
//
// Fraction of wall time each governor spends programmed at each OPP during
// a 720p / fair-LTE session. Expected shape: ondemand bimodal (min + max),
// interactive piles time at hispeed and max, schedutil and VAFS
// concentrate at the minimal feasible OPPs — VAFS the tightest, with an
// order-of-magnitude fewer DVFS transitions.
#include <cstdio>
#include <string>
#include <vector>

#include "exp/bench_app.h"

int main(int argc, char** argv) {
  using namespace vafs;

  exp::BenchApp app(argc, argv, "f5", "Frequency residency by governor (720p, fair LTE, 120 s)");

  const std::vector<std::string> governors = {"performance", "ondemand", "interactive",
                                              "conservative", "schedutil", "vafs"};

  core::SessionConfig base;
  base.fixed_rep = 2;
  base.media_duration = app.session_seconds(120);
  base.net = core::NetProfile::kFair;

  const exp::ResultSet& results = app.run(exp::ExperimentGrid(base).governors(governors));

  // One representative seed (the first): residency is a distribution, not
  // a scalar, so averaging across seeds would blur the shape this figure
  // shows.
  exp::Json residency_json = exp::Json::object();

  // Header: OPP frequencies.
  std::printf("%-13s", "governor");
  for (const auto& [khz, frac] : results.all().front().run0().clusters[0].residency) {
    (void)frac;
    std::printf(" %7.1fG", static_cast<double>(khz) / 1e6);
  }
  std::printf(" %8s\n", "trans");
  exp::print_rule(96);

  for (const auto& governor : governors) {
    const auto& r = results.at({{"governor", governor}}).run0();
    std::printf("%-13s", governor.c_str());
    exp::Json dist = exp::Json::array();
    for (const auto& [khz, frac] : r.clusters[0].residency) {
      std::printf(" %7.1f%%", frac * 100.0);
      exp::Json bin = exp::Json::object();
      bin.set("freq_khz", static_cast<std::uint64_t>(khz));
      bin.set("fraction", frac);
      dist.push(std::move(bin));
    }
    std::printf(" %8llu\n", static_cast<unsigned long long>(r.clusters[0].freq_transitions));
    residency_json.set(governor, std::move(dist));
  }

  // ASCII shape per governor.
  for (const auto& governor : governors) {
    const auto& r = results.at({{"governor", governor}}).run0();
    std::printf("\n%s:\n", governor.c_str());
    for (const auto& [khz, frac] : r.clusters[0].residency) {
      std::printf("  %7.1f GHz |", static_cast<double>(khz) / 1e6);
      const int bar = static_cast<int>(frac * 60.0 + 0.5);
      for (int i = 0; i < bar; ++i) std::putchar('#');
      std::printf(" %.1f%%\n", frac * 100.0);
    }
  }

  app.extra().set("residency_first_seed", std::move(residency_json));
  return app.finish();
}
