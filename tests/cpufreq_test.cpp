// Tests for the cpufreq policy core and its sysfs binding: limits
// enforcement, governor switching by string, and the kernel attribute
// formats userspace tools depend on.
#include <gtest/gtest.h>

#include "cpu/cpufreq_policy.h"
#include "cpu/cpufreq_sysfs.h"
#include "governors/registry.h"
#include "simcore/simulator.h"
#include "sysfs/tree.h"

namespace vafs::cpu {
namespace {

class CpufreqTest : public ::testing::Test {
 protected:
  CpufreqTest() : cpu_(sim_, OppTable::mobile_big_core(), CpuPowerModel()) {
    governors::register_standard(registry_);
    policy_ = std::make_unique<CpufreqPolicy>(sim_, cpu_, registry_, "performance");
    binder_ = std::make_unique<CpufreqSysfs>(tree_, *policy_, 0);
  }

  std::string attr(const std::string& name) { return binder_->dir() + "/" + name; }

  std::string read(const std::string& name) {
    auto r = tree_.read(attr(name));
    EXPECT_TRUE(r.ok()) << name;
    std::string v = r.value_or("");
    if (!v.empty() && v.back() == '\n') v.pop_back();
    return v;
  }

  sim::Simulator sim_;
  CpuModel cpu_;
  GovernorRegistry registry_;
  sysfs::Tree tree_;
  std::unique_ptr<CpufreqPolicy> policy_;
  std::unique_ptr<CpufreqSysfs> binder_;
};

TEST_F(CpufreqTest, DefaultGovernorStartsImmediately) {
  // performance pins max at start().
  EXPECT_EQ(policy_->governor_name(), "performance");
  EXPECT_EQ(policy_->cur_khz(), 2'100'000u);
}

TEST_F(CpufreqTest, RegistryRejectsUnknownGovernor) {
  EXPECT_EQ(policy_->set_governor("nonexistent").error(), sysfs::Errno::kInval);
  EXPECT_EQ(policy_->governor_name(), "performance");
}

TEST_F(CpufreqTest, GovernorSwitchStopsOldStartsNew) {
  ASSERT_TRUE(policy_->set_governor("powersave").ok());
  EXPECT_EQ(policy_->governor_name(), "powersave");
  EXPECT_EQ(policy_->cur_khz(), 300'000u);
  ASSERT_TRUE(policy_->set_governor("performance").ok());
  EXPECT_EQ(policy_->cur_khz(), 2'100'000u);
}

TEST_F(CpufreqTest, SetTargetClampsToLimits) {
  ASSERT_TRUE(policy_->set_governor("userspace").ok());
  policy_->set_min(600'000);
  policy_->set_max(1'500'000);
  policy_->set_target(300'000, Relation::kAtLeast);
  EXPECT_EQ(policy_->cur_khz(), 600'000u);
  policy_->set_target(2'100'000, Relation::kAtLeast);
  EXPECT_EQ(policy_->cur_khz(), 1'500'000u);
}

TEST_F(CpufreqTest, LimitsClampToHardwareRange) {
  policy_->set_min(1);
  EXPECT_EQ(policy_->min_khz(), 300'000u);
  policy_->set_max(99'999'999);
  EXPECT_EQ(policy_->max_khz(), 2'100'000u);
}

TEST_F(CpufreqTest, RaisingMinAboveMaxDragsMaxUp) {
  policy_->set_max(900'000);
  policy_->set_min(1'500'000);
  EXPECT_EQ(policy_->min_khz(), 1'500'000u);
  EXPECT_GE(policy_->max_khz(), 1'500'000u);
}

TEST_F(CpufreqTest, LoweringMaxReclampsCurrentFrequency) {
  EXPECT_EQ(policy_->cur_khz(), 2'100'000u);
  policy_->set_max(900'000);
  EXPECT_LE(policy_->cur_khz(), 900'000u);
}

// ---- sysfs attribute surface ----

TEST_F(CpufreqTest, AvailableFrequenciesFormat) {
  EXPECT_EQ(read("scaling_available_frequencies"),
            "300000 600000 900000 1200000 1500000 1800000 2000000 2100000");
}

TEST_F(CpufreqTest, AvailableGovernorsListsStandardSet) {
  const std::string govs = read("scaling_available_governors");
  for (const char* name : {"performance", "powersave", "userspace", "ondemand", "conservative",
                           "interactive", "schedutil"}) {
    EXPECT_NE(govs.find(name), std::string::npos) << name;
  }
}

TEST_F(CpufreqTest, CpuinfoBounds) {
  EXPECT_EQ(read("cpuinfo_min_freq"), "300000");
  EXPECT_EQ(read("cpuinfo_max_freq"), "2100000");
  EXPECT_EQ(read("cpuinfo_transition_latency"), "150000");  // ns
}

TEST_F(CpufreqTest, GovernorSwitchViaSysfsWrite) {
  ASSERT_TRUE(tree_.write(attr("scaling_governor"), "powersave\n").ok());
  EXPECT_EQ(read("scaling_governor"), "powersave");
  EXPECT_EQ(read("scaling_cur_freq"), "300000");
  EXPECT_EQ(tree_.write(attr("scaling_governor"), "bogus").error(), sysfs::Errno::kInval);
}

TEST_F(CpufreqTest, SetspeedRejectedUnlessUserspace) {
  EXPECT_EQ(read("scaling_setspeed"), "<unsupported>");
  EXPECT_EQ(tree_.write(attr("scaling_setspeed"), "900000").error(), sysfs::Errno::kInval);

  ASSERT_TRUE(tree_.write(attr("scaling_governor"), "userspace").ok());
  ASSERT_TRUE(tree_.write(attr("scaling_setspeed"), "900000").ok());
  EXPECT_EQ(read("scaling_cur_freq"), "900000");
  EXPECT_EQ(read("scaling_setspeed"), "900000");
}

TEST_F(CpufreqTest, SetspeedSnapsUpToOppGrid) {
  ASSERT_TRUE(tree_.write(attr("scaling_governor"), "userspace").ok());
  ASSERT_TRUE(tree_.write(attr("scaling_setspeed"), "1000000").ok());
  EXPECT_EQ(read("scaling_cur_freq"), "1200000");
}

TEST_F(CpufreqTest, SetspeedRejectsGarbage) {
  ASSERT_TRUE(tree_.write(attr("scaling_governor"), "userspace").ok());
  EXPECT_EQ(tree_.write(attr("scaling_setspeed"), "12x3").error(), sysfs::Errno::kInval);
  EXPECT_EQ(tree_.write(attr("scaling_setspeed"), "").error(), sysfs::Errno::kInval);
  EXPECT_EQ(tree_.write(attr("scaling_setspeed"), "-5").error(), sysfs::Errno::kInval);
}

TEST_F(CpufreqTest, MinMaxFreqWritable) {
  ASSERT_TRUE(tree_.write(attr("scaling_min_freq"), "600000").ok());
  ASSERT_TRUE(tree_.write(attr("scaling_max_freq"), "1800000").ok());
  EXPECT_EQ(read("scaling_min_freq"), "600000");
  EXPECT_EQ(read("scaling_max_freq"), "1800000");
  EXPECT_EQ(tree_.write(attr("scaling_min_freq"), "abc").error(), sysfs::Errno::kInval);
}

TEST_F(CpufreqTest, TimeInStateAccountsWallTimePerOpp) {
  // performance: pinned at max. Run 1 s.
  sim_.run_until(sim::SimTime::seconds(1));
  const std::string stats = read("stats/time_in_state");
  // Kernel units: 10 ms ticks. Max OPP should show ~100 ticks.
  EXPECT_NE(stats.find("2100000 100"), std::string::npos) << stats;
  EXPECT_NE(stats.find("300000 0"), std::string::npos) << stats;
}

TEST_F(CpufreqTest, TotalTransCounts) {
  ASSERT_TRUE(tree_.write(attr("scaling_governor"), "userspace").ok());
  const std::string before = read("stats/total_trans");
  ASSERT_TRUE(tree_.write(attr("scaling_setspeed"), "600000").ok());
  ASSERT_TRUE(tree_.write(attr("scaling_setspeed"), "900000").ok());
  EXPECT_EQ(std::stoi(read("stats/total_trans")), std::stoi(before) + 2);
}

TEST_F(CpufreqTest, TransTableRecordsMatrix) {
  ASSERT_TRUE(tree_.write(attr("scaling_governor"), "userspace").ok());
  ASSERT_TRUE(tree_.write(attr("scaling_setspeed"), "600000").ok());   // 2.1G -> 600M
  ASSERT_TRUE(tree_.write(attr("scaling_setspeed"), "900000").ok());   // 600M -> 900M
  ASSERT_TRUE(tree_.write(attr("scaling_setspeed"), "600000").ok());   // 900M -> 600M
  ASSERT_TRUE(tree_.write(attr("scaling_setspeed"), "900000").ok());   // 600M -> 900M

  EXPECT_EQ(cpu_.transitions_between(cpu_.opps().index_of(600'000),
                                     cpu_.opps().index_of(900'000)),
            2u);
  EXPECT_EQ(cpu_.transitions_between(cpu_.opps().index_of(900'000),
                                     cpu_.opps().index_of(600'000)),
            1u);
  EXPECT_EQ(cpu_.transitions_between(0, 0), 0u);

  const std::string table = read("stats/trans_table");
  EXPECT_NE(table.find("From : To"), std::string::npos);
  EXPECT_NE(table.find("600000:"), std::string::npos);
}

TEST_F(CpufreqTest, TunablesDirectoryFollowsGovernor) {
  ASSERT_TRUE(tree_.write(attr("scaling_governor"), "ondemand").ok());
  EXPECT_TRUE(tree_.exists(attr("ondemand/up_threshold")));
  EXPECT_EQ(read("ondemand/up_threshold"), "80");

  ASSERT_TRUE(tree_.write(attr("scaling_governor"), "interactive").ok());
  EXPECT_FALSE(tree_.exists(attr("ondemand")));
  EXPECT_TRUE(tree_.exists(attr("interactive/hispeed_freq")));
}

TEST_F(CpufreqTest, TunableWriteValidation) {
  ASSERT_TRUE(tree_.write(attr("scaling_governor"), "ondemand").ok());
  ASSERT_TRUE(tree_.write(attr("ondemand/up_threshold"), "95").ok());
  EXPECT_EQ(read("ondemand/up_threshold"), "95");
  EXPECT_EQ(tree_.write(attr("ondemand/up_threshold"), "0").error(), sysfs::Errno::kInval);
  EXPECT_EQ(tree_.write(attr("ondemand/up_threshold"), "101").error(), sysfs::Errno::kInval);
  EXPECT_EQ(tree_.write(attr("ondemand/sampling_rate"), "10").error(), sysfs::Errno::kInval);
}

TEST_F(CpufreqTest, MicrosecondTunablesRefuseValuesWiderThanUnsignedInt) {
  // The kernel's attributes are unsigned int. A wider value used to wrap
  // when the governor converted it to a (signed) SimTime.
  const std::pair<const char*, const char*> knobs[] = {
      {"ondemand", "sampling_rate"},  {"conservative", "sampling_rate"},
      {"interactive", "timer_rate"},  {"interactive", "min_sample_time"},
      {"schedutil", "rate_limit_us"},
  };
  for (const auto& [governor, knob] : knobs) {
    ASSERT_TRUE(tree_.write(attr("scaling_governor"), governor).ok());
    const std::string path = std::string(governor) + "/" + knob;
    const std::string before = read(path);
    // Too wide, up to 2^64 - 1, or not plain digits (a sign, a space).
    for (const char* bad :
         {"4294967296", "9300000000000000000", "18446744073709551615", "+5", " 5"}) {
      const sysfs::Status status = tree_.write(attr(path), bad);
      EXPECT_FALSE(status.ok()) << path << " = '" << bad << "'";
      EXPECT_EQ(status.error(), sysfs::Errno::kInval) << path << " = '" << bad << "'";
      EXPECT_EQ(read(path), before) << path;
    }
    // The tree strips the newline `echo` appends, so trailing bytes reach
    // the parser only through the store hook itself.
    bool found = false;
    for (const Tunable& t : policy_->governor()->tunables()) {
      if (t.name != knob) continue;
      found = true;
      EXPECT_FALSE(t.store("5\n").ok()) << path;
    }
    EXPECT_TRUE(found) << path;
    EXPECT_EQ(read(path), before) << path;
    EXPECT_TRUE(tree_.write(attr(path), "4294967295").ok()) << path;
    EXPECT_EQ(read(path), "4294967295") << path;
  }
}

TEST_F(CpufreqTest, ParseKhzRejectsNonDigits) {
  EXPECT_EQ(parse_khz("1200000"), 1'200'000u);
  EXPECT_EQ(parse_khz(""), std::nullopt);
  EXPECT_EQ(parse_khz("12 00"), std::nullopt);
  EXPECT_EQ(parse_khz("99999999999"), std::nullopt);
  EXPECT_EQ(parse_khz("+5"), std::nullopt);
  // UINT32_MAX is the kernel's CPUFREQ_ENTRY_INVALID, not a programmable
  // value: explicitly invalid rather than a sentinel collision.
  EXPECT_EQ(parse_khz("4294967295"), std::nullopt);
  EXPECT_EQ(parse_khz("4294967294"), 4'294'967'294u);
}

TEST_F(CpufreqTest, SetspeedRejectsEntryInvalidLiteral) {
  ASSERT_TRUE(tree_.write(attr("scaling_governor"), "userspace").ok());
  EXPECT_EQ(tree_.write(attr("scaling_setspeed"), "4294967295").error(), sysfs::Errno::kInval);
}

TEST_F(CpufreqTest, BinderRemovesDirectoryOnDestruction) {
  const std::string dir = binder_->dir();
  EXPECT_TRUE(tree_.exists(dir));
  binder_.reset();
  EXPECT_FALSE(tree_.exists(dir));
}

}  // namespace
}  // namespace vafs::cpu
