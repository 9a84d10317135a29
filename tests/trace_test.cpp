// Unit tests for the trace tooling: CSV emission and bandwidth trace files.
#include <gtest/gtest.h>

#include <sstream>

#include "core/session.h"
#include "trace/bandwidth_file.h"
#include "trace/csv.h"

namespace vafs::trace {
namespace {

TEST(CsvWriter, HeaderAndRows) {
  std::ostringstream out;
  {
    CsvWriter csv(out, {"a", "b", "c"});
    csv.row().cell(std::string("x")).cell(1.5).cell(std::int64_t{-3});
    csv.row().cell(std::string("y")).cell(0.25).cell(std::int64_t{7});
  }
  EXPECT_EQ(out.str(), "a,b,c\nx,1.5,-3\ny,0.25,7\n");
}

TEST(CsvWriter, QuotesSpecialCharacters) {
  std::ostringstream out;
  {
    CsvWriter csv(out, {"v"});
    csv.row().cell(std::string("has,comma"));
    csv.row().cell(std::string("has\"quote"));
    csv.row().cell(std::string("has\nnewline"));
  }
  EXPECT_EQ(out.str(), "v\n\"has,comma\"\n\"has\"\"quote\"\n\"has\nnewline\"\n");
}

TEST(CsvWriter, UnsignedAndDoubleFormatting) {
  std::ostringstream out;
  {
    CsvWriter csv(out, {"u", "d"});
    csv.row().cell(std::uint64_t{18'000'000'000ull}).cell(1.0 / 3.0);
  }
  EXPECT_EQ(out.str(), "u,d\n18000000000,0.333333\n");
}

TEST(CsvWriter, DtorClosesOpenRow) {
  std::ostringstream out;
  {
    CsvWriter csv(out, {"x"});
    csv.row().cell(1.0);
    // no explicit end_row
  }
  EXPECT_EQ(out.str(), "x\n1\n");
}

// ------------------------------------------------------- bandwidth files

TEST(BandwidthFile, ParsesCommentsAndBlanks) {
  std::istringstream in(
      "# recorded on the 7:40 train\n"
      "0 12.5\n"
      "\n"
      "3.5 4.0   # tunnel\n"
      "10 20\n");
  std::vector<net::TraceBandwidth::Step> steps;
  std::string error;
  ASSERT_TRUE(load_bandwidth_trace(in, &steps, &error)) << error;
  ASSERT_EQ(steps.size(), 3u);
  EXPECT_EQ(steps[0].at, sim::SimTime::zero());
  EXPECT_EQ(steps[0].mbps, 12.5);
  EXPECT_EQ(steps[1].at, sim::SimTime::seconds_f(3.5));
  EXPECT_EQ(steps[2].mbps, 20.0);
}

TEST(BandwidthFile, RejectsMalformedInput) {
  std::vector<net::TraceBandwidth::Step> steps;
  std::string error;

  std::istringstream missing_field("0 1.0\n5\n");
  EXPECT_FALSE(load_bandwidth_trace(missing_field, &steps, &error));
  EXPECT_NE(error.find("line 2"), std::string::npos);

  std::istringstream not_at_zero("1 5.0\n");
  EXPECT_FALSE(load_bandwidth_trace(not_at_zero, &steps, &error));

  std::istringstream decreasing("0 5.0\n10 4\n10 3\n");
  EXPECT_FALSE(load_bandwidth_trace(decreasing, &steps, &error));
  EXPECT_NE(error.find("increasing"), std::string::npos);

  std::istringstream negative("0 -5\n");
  EXPECT_FALSE(load_bandwidth_trace(negative, &steps, &error));

  std::istringstream garbage("0 5 extra\n");
  EXPECT_FALSE(load_bandwidth_trace(garbage, &steps, &error));

  std::istringstream empty("# nothing\n");
  EXPECT_FALSE(load_bandwidth_trace(empty, &steps, &error));

  // Only a line with no field left is skipped; a bad time is refused with
  // its line number, and never passes through an overflowing conversion.
  const std::pair<const char*, const char*> bad_times[] = {
      {"0 5\nabc 10\n20 1\n", "time is not a number"},
      {"0 5\nnan 10\n", "time is not a number"},
      {"0 5\ninf 10\n", "time is not a number"},
      {"0 5\n1e300 10\n", "time out of range"},
      // Fits SimTime, but the loop period (one more step past the last)
      // would not.
      {"0 5\n9e12 10\n", "time out of range"},
      {"0 5\n1e-7 10\n", "below the 1 µs resolution"},
  };
  for (const auto& [text, why] : bad_times) {
    std::istringstream in(text);
    error.clear();
    EXPECT_FALSE(load_bandwidth_trace(in, &steps, &error)) << text;
    EXPECT_NE(error.find("line 2"), std::string::npos) << text << " -> " << error;
    EXPECT_NE(error.find(why), std::string::npos) << text << " -> " << error;
  }
}

TEST(BandwidthFile, SaveLoadRoundTrips) {
  const std::vector<net::TraceBandwidth::Step> original = {
      {sim::SimTime::zero(), 12.5},
      {sim::SimTime::seconds_f(3.25), 0.75},
      {sim::SimTime::seconds(60), 40.0},
  };
  std::stringstream buffer;
  save_bandwidth_trace(buffer, original);
  std::vector<net::TraceBandwidth::Step> loaded;
  std::string error;
  ASSERT_TRUE(load_bandwidth_trace(buffer, &loaded, &error)) << error;
  ASSERT_EQ(loaded.size(), original.size());
  for (std::size_t i = 0; i < original.size(); ++i) {
    EXPECT_EQ(loaded[i].at, original[i].at);
    EXPECT_NEAR(loaded[i].mbps, original[i].mbps, 1e-4);
  }
}

TEST(BandwidthFile, FileRoundTrip) {
  const std::string path = ::testing::TempDir() + "/vafs_trace_test.bwtrace";
  const auto steps = generate_markov_trace(core::net_profile_params(core::NetProfile::kFair),
                                           sim::Rng(3), sim::SimTime::seconds(30));
  ASSERT_GT(steps.size(), 5u);
  std::string error;
  ASSERT_TRUE(save_bandwidth_trace_file(path, steps, &error)) << error;
  std::vector<net::TraceBandwidth::Step> loaded;
  ASSERT_TRUE(load_bandwidth_trace_file(path, &loaded, &error)) << error;
  EXPECT_EQ(loaded.size(), steps.size());
}

TEST(BandwidthFile, LoadMissingFileFails) {
  std::vector<net::TraceBandwidth::Step> steps;
  std::string error;
  EXPECT_FALSE(load_bandwidth_trace_file("/no/such/file.bwtrace", &steps, &error));
  EXPECT_NE(error.find("cannot open"), std::string::npos);
}

TEST(BandwidthFile, GeneratorHonoursBounds) {
  net::MarkovBandwidth::Params params;
  params.mean_mbps = 8;
  params.min_mbps = 2;
  params.max_mbps = 20;
  const auto steps = generate_markov_trace(params, sim::Rng(4), sim::SimTime::seconds(120));
  ASSERT_GT(steps.size(), 20u);
  EXPECT_EQ(steps.front().at, sim::SimTime::zero());
  for (std::size_t i = 0; i < steps.size(); ++i) {
    EXPECT_GE(steps[i].mbps, 2.0);
    EXPECT_LE(steps[i].mbps, 20.0);
    if (i > 0) {
      EXPECT_GT(steps[i].at, steps[i - 1].at);
    }
  }
}

TEST(BandwidthFile, TraceDrivenSessionRuns) {
  core::SessionConfig config;
  config.governor = "vafs";
  config.net = core::NetProfile::kTrace;
  config.trace = {{sim::SimTime::zero(), 10.0}, {sim::SimTime::seconds(15), 6.0}};
  config.media_duration = sim::SimTime::seconds(30);
  config.seed = 9;
  const auto r = core::run_session(config);
  ASSERT_TRUE(r.finished);
  EXPECT_LT(r.qoe.drop_ratio(), 0.02);
}

}  // namespace
}  // namespace vafs::trace
