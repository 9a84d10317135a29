// perfbench: the repository benchmark.
//
//   perfbench --workload t1_grid|fleet_mix|serve_open [--seed N] [--seconds S]
//             [--trace 0|1]
//
// Runs one workload against the library's public API, checks its outputs,
// prints a table of every figure and, as the last line of stdout, one JSON
// object: {"correct", "attempted", "failed", "metrics"}. --trace 0 measures
// the end-to-end metrics with tracing off; --trace 1 is the separate traced
// run that reports the per-layer metrics and writes its spans to
// .bench_build/spans/. Exits 1 when an output check fails, 2 on bad usage.
// Run from the repository root (perfbench/run.py builds and runs it).
#include <unistd.h>

#include <charconv>
#include <cstdio>
#include <filesystem>
#include <string>
#include <string_view>

#include "measure.h"
#include "workloads.h"

namespace {

using namespace perfbench;

int usage(const char* error) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload t1_grid|fleet_mix|serve_open "
               "[--seed N] [--seconds S] [--trace 0|1]\n",
               error);
  return 2;
}

bool parse_u64(std::string_view text, std::uint64_t* out) {
  const auto res = std::from_chars(text.data(), text.data() + text.size(), *out);
  return res.ec == std::errc() && res.ptr == text.data() + text.size();
}

void print_self_times(const SpanLog& spans) {
  std::printf("\n%-28s %10s %12s %12s\n", "span", "count", "total_s", "self_s");
  for (const SpanLog::Totals& t : spans.totals()) {
    std::printf("%-28s %10llu %12.6f %12.6f\n", t.name.c_str(),
                static_cast<unsigned long long>(t.count), t.total_s, t.self_s);
  }
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  args.process_start = Clock::now();
  for (int i = 1; i < argc; ++i) {
    const std::string_view flag = argv[i];
    if (i + 1 >= argc) return usage("missing value after a flag");
    const std::string_view value = argv[++i];
    std::uint64_t n = 0;
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      if (!parse_u64(value, &args.seed)) return usage("--seed takes a whole number");
    } else if (flag == "--seconds") {
      if (!parse_u64(value, &n) || n < 1 || n > 3600) return usage("--seconds takes 1..3600");
      args.seconds = static_cast<double>(n);
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") return usage("--trace takes 0 or 1");
      args.trace = value == "1";
    } else {
      return usage("unknown flag");
    }
  }

  void (*run)(const Args&, Report&, SpanLog&) = nullptr;
  if (args.workload == "t1_grid") run = run_t1_grid;
  if (args.workload == "fleet_mix") run = run_fleet_mix;
  if (args.workload == "serve_open") run = run_serve_open;
  if (run == nullptr) return usage("unknown --workload");

  args.scratch_dir = ".bench_build/run-" + std::to_string(getpid());
  std::filesystem::create_directories(args.scratch_dir);
  Report report;
  SpanLog spans;
  run(args, report, spans);
  std::error_code ec;
  std::filesystem::remove_all(args.scratch_dir, ec);

  if (args.trace) {
    print_self_times(spans);
    std::filesystem::create_directories(".bench_build/spans");
    const std::string path = ".bench_build/spans/" + args.workload + "-seed" +
                             std::to_string(args.seed) + ".csv";
    if (spans.write_csv(path)) std::printf("spans: %zu written to %s\n", spans.size(), path.c_str());
  }
  report.print(args.workload);
  return report.correct() ? 0 : 1;
}
