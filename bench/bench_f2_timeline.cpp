// F2 — session timeline: frequency, CPU power and buffer level over time,
// ondemand vs VAFS, one 60-second 720p session on a fair LTE draw.
//
// Each run carries a full-ring obs::Tracer; the first seed of each
// governor is exported as a timeline CSV (tools/plot_timeline.py) and a
// Chrome trace JSON (load in Perfetto / chrome://tracing). Expected shape:
// ondemand's frequency thrashes between min and max on every download
// burst and decode group; VAFS sits flat at the minimal feasible OPP with
// occasional one-step excursions.
#include <cstdio>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include "exp/bench_app.h"
#include "obs/export.h"
#include "obs/timeline.h"
#include "obs/trace.h"

int main(int argc, char** argv) {
  using namespace vafs;

  exp::BenchApp app(argc, argv, "f2", "Timeline: frequency / power / buffer, ondemand vs VAFS");

  const std::vector<std::string> governors = {"ondemand", "vafs"};

  core::SessionConfig base;
  base.fixed_rep = 2;
  base.media_duration = app.session_seconds(60);
  base.net = core::NetProfile::kFair;

  // One full-ring tracer per (scenario, seed) task; the exported files use
  // each governor's first seed. Hooks that provide a tracer suppress the
  // engine's own digest tracer, so digests in the artifacts come from
  // these rings.
  const std::size_t nseeds = app.seeds().size();
  std::vector<std::unique_ptr<obs::Tracer>> tracers;
  tracers.reserve(governors.size() * nseeds);
  for (std::size_t i = 0; i < governors.size() * nseeds; ++i) {
    tracers.push_back(std::make_unique<obs::Tracer>());
  }
  const auto hooks = [&tracers, nseeds](const exp::ScenarioSpec&, std::size_t scenario_index,
                                        std::size_t seed_index) {
    core::SessionHooks h;
    h.tracer = tracers[scenario_index * nseeds + seed_index].get();
    return h;
  };

  const exp::ResultSet& results =
      app.run(exp::ExperimentGrid(base).governors(governors), "main", hooks);

  for (std::size_t g = 0; g < governors.size(); ++g) {
    const std::string& governor = governors[g];
    const auto& sr = results.at({{"governor", governor}});
    const obs::Tracer& tracer = *tracers[g * nseeds];

    const std::string csv_path = "BENCH_f2." + governor + ".timeline.csv";
    {
      std::ofstream out(csv_path, std::ios::trunc);
      if (!out) {
        std::fprintf(stderr, "[f2] cannot write %s\n", csv_path.c_str());
        return 1;
      }
      obs::write_timeline_csv(out, tracer.timeline());
    }
    const std::string trace_path = "BENCH_f2." + governor + ".trace.json";
    {
      std::ofstream out(trace_path, std::ios::trunc);
      if (!out) {
        std::fprintf(stderr, "[f2] cannot write %s\n", trace_path.c_str());
        return 1;
      }
      obs::write_chrome_trace(out, tracer, "vafs f2 " + governor);
    }
    std::printf("wrote %s + %s (%llu events, digest %s)\n", csv_path.c_str(), trace_path.c_str(),
                static_cast<unsigned long long>(tracer.recorded()),
                obs::digest_hex(tracer.digest()).c_str());

    // Summary from the event-driven series: every frequency transition is a
    // sample, so the flip count is exact instead of a 100 ms-grid estimate.
    const obs::Series& freq = tracer.timeline().at(obs::SeriesId::kFreqKhz);
    std::uint64_t flips = 0;
    double last = 0.0;
    for (const auto& s : freq.samples()) {
      if (last != 0.0 && s.value != last) ++flips;
      last = s.value;
    }
    const auto& r = sr.run0();
    const double wall_s = r.wall.as_seconds_f();
    std::printf("summary[%s]: cpu=%.2f J, mean_cpu=%.0f mW, freq-changes=%llu, "
                "transitions=%llu, drops=%.2f%%\n",
                governor.c_str(), r.energy.cpu_mj / 1000.0,
                wall_s > 0.0 ? r.energy.cpu_mj / wall_s : 0.0,
                static_cast<unsigned long long>(flips),
                static_cast<unsigned long long>(r.clusters[0].freq_transitions),
                r.qoe.drop_ratio() * 100.0);
  }
  return app.finish();
}
