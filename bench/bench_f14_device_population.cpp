// F14 — device population (extension): how much of a governor's saving
// survives across an installed base instead of one phone?
//
// Two sweeps:
//   1. governor × device class — every registry profile (1-3 clusters,
//      flagship to budget) under the same 720p/fair-LTE workload. This is
//      the per-device-class energy/QoE table: where the paper's single
//      device sits in the spread, and which classes VAFS helps most.
//   2. governor × population mix — sessions draw their device per seed
//      from a weighted mix ("global", "premium", "budget"), the fleet
//      question: expected energy per session over an installed base.
//
// Expected shape: VAFS's relative saving is largest on multi-cluster
// devices (it parks decode on an efficient cluster), smallest on the
// single-cluster handheld; mix means interpolate their member classes by
// weight, so "premium" sits closest to flagship.
//
// Sweep 1 also carries a "tuned" governor row: VAFS with the per-cell
// winners of the closed-loop search (bench_f15's tuned_configs.json,
// checked in under baselines/; --tuned overrides, --tuned none disables).
// A device class without a tuned cell runs stock VAFS, so the row is
// always comparable column-for-column.
#include <cstdio>
#include <map>
#include <string>
#include <vector>

#include "exp/bench_app.h"
#include "tune/tuned_configs.h"

int main(int argc, char** argv) {
  using namespace vafs;

  exp::BenchApp app(argc, argv, "f14",
                    "energy/QoE per governor x device class and population mix, 720p fair LTE");

  const std::vector<std::string> governors = {"ondemand", "schedutil", "conservative", "vafs"};
  const std::vector<std::string>& devices = device::profile_names();
  const std::vector<std::string>& mixes = device::PopulationMix::mix_names();

  core::SessionConfig base;
  base.fixed_rep = 2;  // 720p
  base.media_duration = app.session_seconds(120);
  base.net = core::NetProfile::kFair;

  // The tuned-config artifact for the "tuned" variant.
  tune::TunedConfigs tuned;
  const bool want_tuned = app.options().tuned != "none";
  if (want_tuned) {
    const std::string path =
        app.options().tuned.empty() ? VAFS_TUNED_CONFIGS_PATH : app.options().tuned;
    std::string error;
    if (!tune::TunedConfigs::load_file(path, &tuned, &error)) {
      std::fprintf(stderr, "bench_f14: %s (pass --tuned none to skip the tuned variant)\n",
                   error.c_str());
      return 2;
    }
  }
  const char* net_label = core::net_profile_name(base.net);

  // Sweep 1: every registered device profile. Devices form the outer axis
  // so the "tuned" governor mutator runs after the device mutator and can
  // look up its (profile, net) cell.
  exp::ExperimentGrid device_grid(base);
  device_grid.devices(devices);
  std::vector<std::string> gov_rows = governors;
  std::vector<std::pair<std::string, exp::ExperimentGrid::Mutator>> gov_values;
  for (const auto& name : governors) {
    gov_values.emplace_back(name, [name](core::SessionConfig& c) { c.governor = name; });
  }
  if (want_tuned) {
    gov_rows.push_back("tuned");
    gov_values.emplace_back("tuned", [&tuned, net_label](core::SessionConfig& c) {
      c.governor = "vafs";
      if (const tune::TunedCell* cell = tuned.find(c.profile.name, net_label)) cell->apply(c);
    });
  }
  device_grid.axis("governor", std::move(gov_values));
  const exp::ResultSet& by_device = app.run(device_grid, "devices");

  std::printf("CPU energy (J) by device class:\n");
  std::printf("%-13s", "governor");
  for (const auto& d : devices) std::printf(" %10s", d.c_str());
  std::printf("\n");
  exp::print_rule(13 + 11 * devices.size());
  for (const auto& governor : gov_rows) {
    std::printf("%-13s", governor.c_str());
    for (const auto& d : devices) {
      const auto& a = by_device.agg({{"governor", governor}, {"device", d}});
      std::printf(" %10.2f", a.cpu_mj.mean() / 1000.0);
    }
    std::printf("\n");
  }

  std::printf("\nQoE (frame-drop %% / rebuffer s) by device class:\n");
  std::printf("%-13s", "governor");
  for (const auto& d : devices) std::printf(" %10s", d.c_str());
  std::printf("\n");
  exp::print_rule(13 + 11 * devices.size());
  for (const auto& governor : gov_rows) {
    std::printf("%-13s", governor.c_str());
    for (const auto& d : devices) {
      const auto& a = by_device.agg({{"governor", governor}, {"device", d}});
      std::printf(" %5.2f/%4.1f", a.drop_pct.mean(), a.rebuffer_s.mean());
    }
    std::printf("\n");
  }

  if (want_tuned) {
    std::printf("\nTuned vs stock VAFS (total device energy, same QoE floors as F15):\n");
    exp::Json tuned_json = exp::Json::array();
    for (const auto& d : devices) {
      const tune::TunedCell* cell = tuned.find(d, net_label);
      if (cell == nullptr) continue;
      const auto& stock = by_device.agg({{"governor", "vafs"}, {"device", d}});
      const auto& opt = by_device.agg({{"governor", "tuned"}, {"device", d}});
      const double stock_j = stock.total_mj.mean() / 1000.0;
      const double opt_j = opt.total_mj.mean() / 1000.0;
      const double saving = stock_j > 0.0 ? 100.0 * (stock_j - opt_j) / stock_j : 0.0;
      std::printf("  %-10s %7.2f J -> %7.2f J  (%+.1f%%)  drop %4.2f%% -> %4.2f%%%s\n",
                  d.c_str(), stock_j, opt_j, -saving, stock.drop_pct.mean(),
                  opt.drop_pct.mean(), cell->feasible ? "" : "  [cell infeasible in search]");
      exp::Json row = exp::Json::object();
      row.set("device", d);
      row.set("net", net_label);
      row.set("feasible", cell->feasible);
      row.set("stock_total_mj", stock.total_mj.mean());
      row.set("tuned_total_mj", opt.total_mj.mean());
      row.set("stock_drop_pct", stock.drop_pct.mean());
      row.set("tuned_drop_pct", opt.drop_pct.mean());
      exp::Json params = exp::Json::object();
      for (const auto& [name, value] : cell->params) params.set(name, value);
      row.set("params", std::move(params));
      tuned_json.push(std::move(row));
    }
    app.extra().set("tuned_cells", std::move(tuned_json));
  }

  // Sweep 2: weighted population mixes; each (scenario, seed) cell draws
  // its device profile by a pure hash of the seed.
  exp::ExperimentGrid mix_grid(base);
  std::vector<std::pair<std::string, exp::ExperimentGrid::Mutator>> mix_values;
  for (const auto& name : mixes) {
    mix_values.emplace_back(name, [mix = device::PopulationMix::named(name)](
                                      core::SessionConfig& c) { c.population = mix; });
  }
  mix_grid.governors(governors).axis("mix", std::move(mix_values));
  const exp::ResultSet& by_mix = app.run(mix_grid, "mixes");

  std::printf("\nPopulation mixes: total device energy (J) per session, mean over the mix\n");
  std::printf("%-13s", "governor");
  for (const auto& m : mixes) std::printf(" %10s", m.c_str());
  std::printf("   drawn devices (all mixes)\n");
  exp::print_rule(13 + 11 * mixes.size() + 30);
  for (const auto& governor : governors) {
    std::printf("%-13s", governor.c_str());
    std::map<std::string, int> drawn;
    for (const auto& m : mixes) {
      const auto& sr = by_mix.at({{"governor", governor}, {"mix", m}});
      std::printf(" %10.2f", sr.agg.total_mj.mean() / 1000.0);
      for (const auto& run : sr.runs) ++drawn[run.device];
    }
    std::printf("  ");
    for (const auto& [name, count] : drawn) std::printf(" %s:%d", name.c_str(), count);
    std::printf("\n");
  }

  std::printf("\nExpected shape: VAFS saves most on multi-cluster devices (flagship,\n"
              "midrange, budget) where it parks decode on an efficient cluster; the\n"
              "single-cluster handheld and default bound its saving from below. Mix\n"
              "columns are weight-blends of their member classes.\n");
  return app.finish();
}
