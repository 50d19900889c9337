// End-to-end wake-fabric behaviour on the netsim-failover registry
// scenario: one host's NIC dies 06:00-12:00, the heartbeat monitors
// declare it unreachable, frames to it drop, and recovery re-admits it.
#include "netsim/wake_fabric.hpp"

#include <gtest/gtest.h>

#include "scenario/registry.hpp"
#include "scenario/scenario.hpp"
#include "util/sim_time.hpp"

namespace sc = drowsy::scenario;
namespace u = drowsy::util;

namespace {

/// run_one, but keeping the ScenarioRun alive so the fabric's internals
/// can be inspected after the simulated day.
std::unique_ptr<sc::ScenarioRun> run_failover(sc::Policy policy) {
  const sc::ScenarioSpec& spec = sc::ScenarioRegistry::builtin().at("netsim-failover");
  auto run = sc::build(spec, policy);
  run->controller->pretrain_models(static_cast<std::int64_t>(spec.pretrain_days) *
                                   u::kHoursPerDay);
  run->controller->run_hours(
      static_cast<std::int64_t>(spec.duration_days) * u::kHoursPerDay,
      [fabric = run->net.get()](std::int64_t h) { fabric->on_hour_end(h); });
  return run;
}

}  // namespace

TEST(WakeFabric, NicOutageIsDetectedDroppedAndHealed) {
  auto run = run_failover(sc::Policy::DrowsyDc);
  ASSERT_NE(run->net, nullptr);
  const drowsy::netsim::FabricStats& stats = run->net->stats();

  // Exactly one partition: declared dead once, never flapping.
  EXPECT_EQ(stats.failovers, 1u);
  // Frames addressed to the dead NIC were dropped on the wire.
  EXPECT_GT(stats.requests_dropped, 0u);
  // Beats flowed before the fault and again after recovery.
  EXPECT_GT(stats.beats_delivered, 0u);

  // The outage runs 06:00-12:00; detection lags by miss_threshold
  // heartbeat intervals (3 x 5 s) and recovery by up to one beat period,
  // so the accounted window is a little under six hours.
  const double six_hours = 6.0 * 3600.0;
  EXPECT_GT(run->net->host_unreachable_s(), six_hours - 60.0);
  EXPECT_LE(run->net->host_unreachable_s(), six_hours);

  // After the first post-recovery beat the host is placeable again.
  EXPECT_TRUE(run->cluster.host(1)->reachable());

  // harvest() surfaces the same number on the RunResult.  The packed
  // always-busy fleet never suspends, so no WoL traffic flows here —
  // wake-storm-net covers the WoL path.
  const sc::RunResult result = sc::harvest("netsim-failover", *run);
  EXPECT_DOUBLE_EQ(result.host_unreachable_s, run->net->host_unreachable_s());
  EXPECT_EQ(result.wol_frames, 0u);
}

TEST(WakeFabric, UnreachableHostIsExcludedFromPlacementWhileDown) {
  const sc::ScenarioSpec& spec = sc::ScenarioRegistry::builtin().at("netsim-failover");
  auto run = sc::build(spec, sc::Policy::DrowsyDc);
  run->controller->pretrain_models(static_cast<std::int64_t>(spec.pretrain_days) *
                                   u::kHoursPerDay);
  // Run into the middle of the outage (hour 9 of 6-12) and stop there.
  run->controller->run_hours(9, [fabric = run->net.get()](std::int64_t h) {
    fabric->on_hour_end(h);
  });
  EXPECT_FALSE(run->cluster.host(1)->reachable());
  EXPECT_FALSE(
      run->cluster.host(1)->can_host(drowsy::sim::VmSpec{"probe", 1, 1024}));
}

TEST(WakeFabric, ReachabilityAccountingMatchesBothPolicies) {
  // The fabric rides identically under DrowsyDc and DrowsyNetBatch (the
  // planner only adds wakes); the partition accounting must agree.
  auto a = run_failover(sc::Policy::DrowsyDc);
  auto b = run_failover(sc::Policy::DrowsyNetBatch);
  EXPECT_DOUBLE_EQ(a->net->host_unreachable_s(), b->net->host_unreachable_s());
  EXPECT_EQ(a->net->stats().failovers, b->net->stats().failovers);
}
