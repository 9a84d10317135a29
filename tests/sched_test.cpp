// Tests for the cluster-routing substrate: N-cluster placement/penalty
// semantics, the namespaced task-id cancel dispatch, and end-to-end
// big.LITTLE sessions on profile "midrange" including VAFS's cluster
// choice.
#include <gtest/gtest.h>

#include "core/session.h"
#include "sched/router.h"
#include "simcore/simulator.h"

namespace vafs::sched {
namespace {

class RouterTest : public ::testing::Test {
 protected:
  RouterTest()
      : big_(sim_, cpu::OppTable::mobile_big_core(), cpu::CpuPowerModel()),
        little_(sim_, cpu::OppTable::mobile_little_core(),
                cpu::CpuPowerModel(cpu::PowerModelParams::little_core())),
        router_({{&big_, 1.0}, {&little_, 2.0}}) {}

  sim::Simulator sim_;
  cpu::CpuModel big_;
  cpu::CpuModel little_;
  ClusterRouter router_;
};

TEST_F(RouterTest, NetworkTasksAlwaysGoLittle) {
  router_.submit("http-recv", 1e6, nullptr);
  router_.submit("http-request", 1e6, nullptr);
  EXPECT_TRUE(little_.busy());
  EXPECT_FALSE(big_.busy());
}

TEST_F(RouterTest, DecodeFollowsDecodeCluster) {
  router_.submit("decode", 1e6, nullptr);
  EXPECT_TRUE(big_.busy());

  router_.set_decode_cluster(router_.network_cluster());
  router_.submit("decode", 1e6, nullptr);
  EXPECT_TRUE(little_.busy());
  EXPECT_EQ(router_.decode_tasks_on(0), 1u);
  EXPECT_EQ(router_.decode_tasks_on(1), 1u);
  EXPECT_EQ(router_.migrations(), 1u);
}

TEST_F(RouterTest, RedundantClusterSetIsNotAMigration) {
  router_.set_decode_cluster(router_.primary_cluster());
  EXPECT_EQ(router_.migrations(), 0u);
}

TEST_F(RouterTest, LittlePenaltyInflatesCycles) {
  // 3e6 big-cycles at penalty 2.0 -> 6e6 little-cycles. At the LITTLE
  // cluster's 300 MHz boot frequency that is 20 ms.
  sim::SimTime done;
  router_.set_decode_cluster(router_.network_cluster());
  router_.submit("decode", 3e6, [&] { done = sim_.now(); });
  sim_.run();
  EXPECT_EQ(done.as_micros(), 20'000);
}

TEST_F(RouterTest, BigClusterRunsRawCycles) {
  sim::SimTime done;
  router_.submit("decode", 3e6, [&] { done = sim_.now(); });
  sim_.run();
  EXPECT_EQ(done.as_micros(), 10'000);  // 3e6 at 300 MHz
}

TEST_F(RouterTest, ClusterSelectionByCapacity) {
  // big: 2.1 GHz / 1.0, little: 1.5 GHz / 2.0.
  EXPECT_EQ(router_.cluster_count(), 2u);
  EXPECT_EQ(router_.primary_cluster(), 0u);
  EXPECT_EQ(router_.network_cluster(), 1u);
  EXPECT_DOUBLE_EQ(router_.capacity_khz(0), 2'100'000.0);
  EXPECT_DOUBLE_EQ(router_.capacity_khz(1), 750'000.0);
}

// Regression for the pre-namespace cancel bug: both clusters hand out raw
// CpuModel ids counting up from 1, so a decode task on big and a network
// task on little used to collide on the same raw id — and cancel() broke
// the tie big-first, killing the wrong task. With cluster-namespaced ids
// each cancel must land on exactly the submitting cluster.
TEST_F(RouterTest, CancelDispatchesToSubmittingCluster) {
  bool big_done = false;
  bool little_done = false;
  const std::uint64_t decode_id =
      router_.submit("decode", 3e6, [&] { big_done = true; });  // big raw id 1
  const std::uint64_t net_id =
      router_.submit("http-recv", 3e6, [&] { little_done = true; });  // little raw id 1
  ASSERT_NE(decode_id, net_id);  // the namespace byte keeps them distinct

  // Cancelling the little-cluster task must not touch big's raw-id-1 task
  // (the former big-first tie-break did exactly that).
  EXPECT_TRUE(router_.cancel(net_id));
  sim_.run();
  EXPECT_TRUE(big_done);
  EXPECT_FALSE(little_done);
}

TEST_F(RouterTest, CancelledIdsDoNotResolveTwice) {
  const std::uint64_t id = router_.submit("decode", 3e6, nullptr);
  EXPECT_TRUE(router_.cancel(id));
  EXPECT_FALSE(router_.cancel(id));
  // An id carrying an out-of-range cluster byte is rejected, not mis-routed.
  EXPECT_FALSE(router_.cancel(id | (0x7fULL << 56)));
}

TEST(TriClusterRouter, CapacityOrderingPicksPrimaryAndNetwork) {
  sim::Simulator sim;
  const auto& prof = device::profile("flagship");
  ASSERT_EQ(prof.cluster_count(), 3u);
  std::vector<std::unique_ptr<cpu::CpuModel>> models;
  std::vector<ClusterRouter::ClusterRef> refs;
  for (const auto& c : prof.clusters) {
    models.push_back(std::make_unique<cpu::CpuModel>(sim, c.opps,
                                                     cpu::CpuPowerModel(c.power)));
    refs.push_back(ClusterRouter::ClusterRef{models.back().get(), c.cycle_penalty});
  }
  ClusterRouter router(std::move(refs));
  EXPECT_EQ(router.primary_cluster(), 0u);    // prime: 2.85 GHz / 0.9
  EXPECT_EQ(router.network_cluster(), 2u);    // little: 1.8 GHz / 1.5
  EXPECT_EQ(router.decode_cluster(), 0u);

  router.submit("http-recv", 1e6, nullptr);
  EXPECT_TRUE(models[2]->busy());
  router.set_decode_cluster(1);
  router.submit("decode", 1e6, nullptr);
  EXPECT_TRUE(models[1]->busy());
  EXPECT_EQ(router.decode_tasks_on(0), 0u);
  EXPECT_EQ(router.decode_tasks_on(1), 1u);
  EXPECT_EQ(router.decode_tasks_on(2), 0u);
}

// ---- end-to-end big.LITTLE sessions ----

core::SessionConfig bl_config(const std::string& governor, std::size_t rep) {
  core::SessionConfig config;
  config.governor = governor;
  config.fixed_rep = rep;
  config.profile = device::profile("midrange");
  config.media_duration = sim::SimTime::seconds(60);
  config.net = core::NetProfile::kGood;
  config.seed = 12;
  return config;
}

TEST(BigLittleSession, KernelGovernorKeepsDecodeOnBig) {
  const auto r = core::run_session(bl_config("schedutil", 2));
  ASSERT_TRUE(r.finished);
  ASSERT_EQ(r.clusters.size(), 2u);
  EXPECT_EQ(r.clusters[1].decode_frames, 0u);
  EXPECT_EQ(r.clusters[0].decode_frames, 1800u);
  EXPECT_GT(r.clusters[1].cpu_mj, 0.0);  // network stack ran there
  EXPECT_LT(r.qoe.drop_ratio(), 0.01);
}

TEST(BigLittleSession, VafsMovesFeasibleDecodeToLittle) {
  const auto r = core::run_session(bl_config("vafs", 2));  // 720p fits LITTLE
  ASSERT_TRUE(r.finished);
  ASSERT_EQ(r.clusters.size(), 2u);
  EXPECT_GT(r.clusters[1].decode_frames, 1700u);
  EXPECT_LT(r.clusters[0].decode_frames, 100u);  // only the cold-start frames
  EXPECT_LT(r.qoe.drop_ratio(), 0.01);
  EXPECT_EQ(r.qoe.rebuffer_events, 0u);
}

TEST(BigLittleSession, VafsKeepsInfeasibleDecodeOnBig) {
  const auto r = core::run_session(bl_config("vafs", 3));  // 1080p does not fit
  ASSERT_TRUE(r.finished);
  ASSERT_EQ(r.clusters.size(), 2u);
  EXPECT_EQ(r.clusters[1].decode_frames, 0u);
  EXPECT_GT(r.clusters[0].decode_frames, 1700u);
  EXPECT_LT(r.qoe.drop_ratio(), 0.01);
}

TEST(BigLittleSession, VafsBigLittleBeatsSingleClusterAtLowQuality) {
  auto config = bl_config("vafs", 1);  // 480p
  const auto bl = core::run_session(config);
  config.profile = device::profile("default");
  const auto single = core::run_session(config);
  ASSERT_TRUE(bl.finished);
  ASSERT_TRUE(single.finished);
  EXPECT_LT(bl.energy.cpu_mj, single.energy.cpu_mj);
  EXPECT_LT(bl.qoe.drop_ratio(), 0.01);
}

TEST(BigLittleSession, RaceToIdleAblationBurnsMoreEnergy) {
  // The ablated arm runs the network cluster at its top OPP while a
  // download is in flight, as a load-following governor would.
  auto config = bl_config("vafs", 2);
  config.media_duration = sim::SimTime::seconds(30);
  config.vafs.race_to_idle_downloads = true;
  const auto race = core::run_session(config);
  config.vafs.race_to_idle_downloads = false;
  const auto burst = core::run_session(config);
  ASSERT_TRUE(race.finished);
  ASSERT_TRUE(burst.finished);
  EXPECT_LT(race.energy.cpu_mj, burst.energy.cpu_mj);
}

TEST(BigLittleSession, EnergySplitsAcrossClusters) {
  const auto r = core::run_session(bl_config("vafs", 2));
  ASSERT_TRUE(r.finished);
  ASSERT_EQ(r.clusters.size(), 2u);
  EXPECT_GT(r.clusters[1].cpu_mj, 0.0);
  EXPECT_LT(r.clusters[1].cpu_mj, r.energy.cpu_mj);
  EXPECT_GT(r.clusters[1].freq_transitions, 0u);
  // Cluster counters run from model construction, the meter from its
  // session-start reset — the difference is the sub-mJ bring-up energy.
  EXPECT_GE(r.clusters[0].cpu_mj + r.clusters[1].cpu_mj, r.energy.cpu_mj);
  EXPECT_NEAR(r.clusters[0].cpu_mj + r.clusters[1].cpu_mj, r.energy.cpu_mj, 1.0);
}

}  // namespace
}  // namespace vafs::sched
