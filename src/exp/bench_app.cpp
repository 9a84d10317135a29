#include "exp/bench_app.h"

#include <cctype>
#include <cstdio>
#include <cstdlib>
#include <fstream>

#include "obs/export.h"

namespace vafs::exp {

BenchApp::BenchApp(int argc, char** argv, std::string bench_id, std::string title)
    : bench_id_(std::move(bench_id)), title_(std::move(title)) {
  std::string error;
  if (!parse_bench_args(argc, argv, &options_, &error)) {
    std::fprintf(stderr, "%s\n%s", error.c_str(), bench_usage(bench_id_).c_str());
    std::exit(2);
  }
  if (options_.help) {
    std::fputs(bench_usage(bench_id_).c_str(), stdout);
    std::exit(0);
  }
  seeds_ = options_.effective_seeds();

  std::string display = bench_id_;
  for (auto& c : display) c = static_cast<char>(std::toupper(static_cast<unsigned char>(c)));
  print_header(display.c_str(), title_.c_str());
  std::printf("[exp] jobs=%d seeds=%zu%s\n", jobs(), seeds_.size(),
              options_.quick ? " quick" : "");
}

const ResultSet& BenchApp::run(const ExperimentGrid& grid, std::string section,
                               RunOptions::HookFactory hooks) {
  RunOptions run_options;
  run_options.jobs = jobs();
  run_options.seeds = seeds_;
  run_options.hooks = std::move(hooks);
  run_options.trace = tracing();
  // The first grid's (scenario 0, seed 0) session is the representative one
  // --trace-out exports; later run() calls leave the captured ring alone.
  if (options_.trace_out != "none" && capture_ == nullptr) {
    capture_ = std::make_unique<obs::Tracer>();
    run_options.capture = capture_.get();
  }
  sections_.push_back(Section{std::move(section), run_grid(grid, run_options)});
  return sections_.back().results;
}

int BenchApp::finish() {
  const std::vector<Section> sections(sections_.begin(), sections_.end());

  std::string json_path = options_.out_json.empty() ? "BENCH_" + bench_id_ + ".json"
                                                    : options_.out_json;
  if (json_path != "none") {
    Json report = bench_report_json(bench_id_, title_, options_, sections);
    if (!extra_.empty()) report.set("extra", extra_);
    std::ofstream out(json_path, std::ios::trunc);
    if (!out) {
      std::fprintf(stderr, "[exp] cannot write %s\n", json_path.c_str());
      return 1;
    }
    out << report.dump();
    std::printf("[exp] wrote %s\n", json_path.c_str());
  }

  std::string csv_path = options_.out_csv.empty() ? "BENCH_" + bench_id_ + ".csv"
                                                  : options_.out_csv;
  if (csv_path != "none") {
    std::ofstream out(csv_path, std::ios::trunc);
    if (!out) {
      std::fprintf(stderr, "[exp] cannot write %s\n", csv_path.c_str());
      return 1;
    }
    write_bench_csv(out, sections);
    std::printf("[exp] wrote %s\n", csv_path.c_str());
  }

  if (capture_ != nullptr && capture_->recorded() > 0) {
    const std::string trace_path = options_.trace_out.empty()
                                       ? "BENCH_" + bench_id_ + ".trace.json"
                                       : options_.trace_out;
    std::ofstream out(trace_path, std::ios::trunc);
    if (!out) {
      std::fprintf(stderr, "[exp] cannot write %s\n", trace_path.c_str());
      return 1;
    }
    obs::write_chrome_trace(out, *capture_, "vafs " + bench_id_);
    std::printf("[exp] wrote %s (%llu events, digest %s)\n", trace_path.c_str(),
                static_cast<unsigned long long>(capture_->recorded()),
                obs::digest_hex(capture_->digest()).c_str());
  }
  return 0;
}

}  // namespace vafs::exp
