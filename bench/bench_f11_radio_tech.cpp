// F11 — radio technology sweep (extension): the same 720p session over
// WiFi, LTE and 3G/UMTS radio profiles.
//
// Expected shape: the CPU-side saving of VAFS is radio-agnostic (same
// cycles, same plans), while total device energy is dominated by the
// radio's active power and tail structure — 3G worst (long DCH/FACH
// tails, slow promotion inflates startup), WiFi best. This separates the
// paper's contribution (CPU) from the transport (radio) cleanly.
#include <cstdio>
#include <string>
#include <vector>

#include "exp/bench_app.h"

int main(int argc, char** argv) {
  using namespace vafs;

  exp::BenchApp app(argc, argv, "f11", "Radio technology sweep (720p, fair bandwidth, 120 s)");

  const std::vector<std::pair<std::string, net::RadioParams>> radios = {
      {"wifi", net::RadioParams::wifi()},
      {"lte", net::RadioParams::lte()},
      {"3g-umts", net::RadioParams::umts_3g()},
  };
  const std::vector<std::string> governors = {"ondemand", "vafs"};

  core::SessionConfig base;
  base.fixed_rep = 2;
  base.media_duration = app.session_seconds(120);
  base.net = core::NetProfile::kFair;

  exp::ExperimentGrid grid(base);
  std::vector<std::pair<std::string, exp::ExperimentGrid::Mutator>> radio_axis;
  for (const auto& [name, params] : radios) {
    radio_axis.emplace_back(
        name, [params = params](core::SessionConfig& c) { c.profile.radio = params; });
  }
  grid.axis("radio", std::move(radio_axis)).governors(governors);

  const exp::ResultSet& results = app.run(grid);

  std::printf("%-9s %-10s %9s %9s %9s %9s %10s\n", "radio", "governor", "cpu_J", "radio_J",
              "total_J", "vs_ondm", "startup_s");
  exp::print_rule(72);

  for (const auto& [radio_name, params] : radios) {
    const double ondemand_cpu =
        results.agg({{"radio", radio_name}, {"governor", "ondemand"}}).cpu_mj.mean();
    for (const auto& governor : governors) {
      const auto& a = results.agg({{"radio", radio_name}, {"governor", governor}});
      std::printf("%-9s %-10s %9.2f %9.2f %9.2f %8.1f%% %10.2f\n", radio_name.c_str(),
                  governor.c_str(), a.cpu_mj.mean() / 1000.0, a.radio_mj.mean() / 1000.0,
                  a.total_mj.mean() / 1000.0, (1.0 - a.cpu_mj.mean() / ondemand_cpu) * 100.0,
                  a.startup_s.mean());
    }
    exp::print_rule(72);
  }

  std::printf("\nExpected shape: VAFS's CPU saving is ~40%% on every radio; radio\n"
              "energy ranks wifi < lte < 3g; 3G's 2 s promotion shows in startup.\n");
  return app.finish();
}
