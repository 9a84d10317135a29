// The per-binary harness every bench main() is built on: parses the shared
// CLI flags, runs declarative grids on the thread pool, and emits the
// BENCH_<id>.json / .csv artifacts on finish() — so a bench body is just
// "declare grid, run, print its figure-specific table".
#pragma once

#include <deque>
#include <memory>
#include <string>

#include "exp/grid.h"
#include "exp/json.h"
#include "exp/options.h"
#include "exp/runner.h"
#include "exp/sinks.h"
#include "exp/table.h"
#include "obs/trace.h"
#include "simcore/time.h"

namespace vafs::exp {

class BenchApp {
 public:
  /// Parses argv; on --help or a flag error, prints usage and exits the
  /// process (benches have no other CLI to fall back to).
  BenchApp(int argc, char** argv, std::string bench_id, std::string title);

  BenchApp(const BenchApp&) = delete;
  BenchApp& operator=(const BenchApp&) = delete;

  const BenchOptions& options() const { return options_; }
  bool quick() const { return options_.quick; }
  /// Whether runs get digest tracers attached (on unless --no-trace).
  bool tracing() const { return options_.trace; }
  const std::vector<std::uint64_t>& seeds() const { return seeds_; }
  int jobs() const { return options_.effective_jobs(); }

  /// Session length helper: `normal` seconds, capped at 30 under --quick.
  sim::SimTime session_seconds(int normal) const {
    return sim::SimTime::seconds(options_.quick && normal > 30 ? 30 : normal);
  }

  /// Runs every scenario × seed on the pool and records the results under
  /// `section` for the artifacts. The returned reference stays valid for
  /// the app's lifetime.
  const ResultSet& run(const ExperimentGrid& grid, std::string section = "main",
                       RunOptions::HookFactory hooks = nullptr);

  /// Bench-specific JSON payload, emitted under "extra" (e.g. F1's power
  /// curve, F5's residency distributions).
  Json& extra() { return extra_; }

  /// Writes the JSON/CSV artifacts and returns the process exit code.
  int finish();

 private:
  std::string bench_id_;
  std::string title_;
  BenchOptions options_;
  std::vector<std::uint64_t> seeds_;
  std::deque<Section> sections_;  // deque: stable references across run() calls
  Json extra_ = Json::object();
  /// Full-ring tracer attached to task (0, 0) of the first run() when
  /// --trace-out asks for a Chrome trace; exported by finish().
  std::unique_ptr<obs::Tracer> capture_;
};

}  // namespace vafs::exp
