// F13 — big.LITTLE (extension): does a second, efficient cluster change
// the picture?
//
// Same sessions as T1, on the single-core "default" profile and on the
// "midrange" profile, which adds a LITTLE cluster to the same big core.
// Kernel governors keep decode on the big cluster (static affinity, each
// cluster's governor following its own load); VAFS additionally *places*
// decode: on LITTLE whenever predicted demand — inflated by the 1.7x IPC
// penalty — fits under LITTLE's top OPP with margin.
//
// Expected shape: for kernel governors big.LITTLE only helps a little (the
// network stack moves off big); VAFS-bL moves the decode itself at
// 360p-720p for another ~20-30 % CPU saving, and falls back to big-cluster
// behaviour at 1080p where the LITTLE cluster cannot hold the deadline.
#include <cstdio>
#include <string>
#include <vector>

#include "exp/bench_app.h"

int main(int argc, char** argv) {
  using namespace vafs;

  exp::BenchApp app(argc, argv, "f13",
                    "big.LITTLE vs single-cluster CPU energy (J), fair LTE, 120 s");

  const std::vector<std::pair<std::size_t, std::string>> reps = {
      {0, "360p"}, {1, "480p"}, {2, "720p"}, {3, "1080p"}};
  const std::vector<std::string> governors = {"ondemand", "schedutil", "vafs"};

  core::SessionConfig base;
  base.media_duration = app.session_seconds(120);
  base.net = core::NetProfile::kFair;

  exp::ExperimentGrid grid(base);
  grid.governors(governors)
      .axis("cluster",
            {{"big-only", [](core::SessionConfig& c) { c.profile = device::profile("default"); }},
             {"big.LITTLE",
              [](core::SessionConfig& c) { c.profile = device::profile("midrange"); }}})
      .reps(reps);

  const exp::ResultSet& results = app.run(grid);

  std::printf("%-11s %-10s", "governor", "cluster");
  for (const auto& [rep, name] : reps) std::printf(" %9s", name.c_str());
  std::printf("  %s\n", "decode@little(720p)");
  exp::print_rule(86);

  for (const auto& governor : governors) {
    for (const std::string cluster : {"big-only", "big.LITTLE"}) {
      std::printf("%-11s %-10s", governor.c_str(), cluster.c_str());
      for (const auto& [rep, name] : reps) {
        const auto& a =
            results.agg({{"governor", governor}, {"cluster", cluster}, {"rep", name}});
        std::printf(" %9.2f", a.cpu_mj.mean() / 1000.0);
      }
      if (cluster == "big.LITTLE") {
        // A failed run keeps an empty report, and prints 0.
        const auto& clusters =
            results.at({{"governor", governor}, {"cluster", cluster}, {"rep", "720p"}})
                .run0()
                .clusters;
        std::printf("  %llu", static_cast<unsigned long long>(
                                  clusters.size() > 1 ? clusters[1].decode_frames : 0));
      }
      std::printf("\n");
    }
    exp::print_rule(86);
  }

  std::printf("\nExpected shape: VAFS+big.LITTLE is the best cell at every quality up\n"
              "to 720p (decode placed on LITTLE); at 1080p it matches big-only VAFS\n"
              "because the LITTLE cluster cannot meet the frame deadline.\n");
  return app.finish();
}
