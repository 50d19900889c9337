// End-to-end wake-fabric behaviour on the netsim-failover registry
// scenario: one host's NIC dies 06:00-12:00, its missed heartbeats
// declare it unreachable, frames to it drop, and recovery re-admits it.
#include "netsim/wake_fabric.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <string>
#include <vector>

#include "obs/event_profile.hpp"
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

TEST(WakeFabric, HeartbeatEventsAreOneTickPerInterval) {
  // Reachability is a computed deadline, not a per-host poll: the fabric's
  // only heartbeat-tagged events are one fleet beat tick per 5 s interval
  // (17,280 in a day), the NIC fault and repair, and an event for a
  // deadline that falls between two ticks.  The 06:00:15 failover lies on
  // the tick grid, so that tick decides it.  The beats themselves are
  // netsim-frame deliveries.
  namespace obs = drowsy::obs;
  for (const bool fault : {true, false}) {
    SCOPED_TRACE(fault ? "NIC outage 06-12 h" : "healthy fleet");
    sc::ScenarioSpec spec = sc::ScenarioRegistry::builtin().at("netsim-failover");
    if (!fault) spec.net.nic_fail_host = -1;
    auto run = sc::build(spec, sc::Policy::DrowsyDc);
    obs::EventProfile profile;
    run->queue.set_profile(&profile);
    run->controller->pretrain_models(static_cast<std::int64_t>(spec.pretrain_days) *
                                     u::kHoursPerDay);
    run->controller->run_hours(
        static_cast<std::int64_t>(spec.duration_days) * u::kHoursPerDay,
        [fabric = run->net.get()](std::int64_t h) { fabric->on_hour_end(h); });
    run->queue.set_profile(nullptr);
    EXPECT_EQ(profile.events(obs::EventTag::Heartbeat), fault ? 17'280u + 2 : 17'280u);
    EXPECT_EQ(run->net->stats().failovers, fault ? 1u : 0u);
    EXPECT_EQ(profile.events(obs::EventTag::SuspendCheck), 2'880u);
    EXPECT_EQ(profile.events(obs::EventTag::Request), fault ? 9'197u : 9'335u);
    EXPECT_EQ(profile.events(obs::EventTag::NetsimFrame), fault ? 73'448u : 78'451u);
    EXPECT_EQ(profile.events(obs::EventTag::Wake), 0u);
    EXPECT_EQ(profile.events(obs::EventTag::Hrtimer), 0u);
    EXPECT_EQ(profile.events(obs::EventTag::Other), 0u);
  }
}

namespace {

struct Edge {
  u::SimTime at;
  drowsy::sim::HostId host;
  bool reachable;
};

/// One row's reachability history rendered as text: every edge when there
/// are few, else the count, an FNV-1a digest over every edge and the first
/// and last edge.  Either way a change to any edge changes the text.
std::string edge_summary(const std::vector<Edge>& edges, double unreachable_s,
                         std::uint64_t failovers) {
  auto render = [](const Edge& e) {
    return std::to_string(e.at) + (e.reachable ? " up " : " down ") + std::to_string(e.host);
  };
  char head[64];
  std::snprintf(head, sizeof head, "%.3f s, %llu failovers", unreachable_s,
                static_cast<unsigned long long>(failovers));
  std::string out = head;
  if (edges.size() <= 12) {
    for (const Edge& e : edges) out += "; " + render(e);
    return out;
  }
  std::uint64_t h = 1469598103934665603ull;
  auto mix = [&h](std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h ^= (v >> (8 * i)) & 0xFF;
      h *= 1099511628211ull;
    }
  };
  for (const Edge& e : edges) {
    mix(static_cast<std::uint64_t>(e.at));
    mix(e.host);
    mix(e.reachable ? 1 : 0);
  }
  char digest[64];
  std::snprintf(digest, sizeof digest, "; %zu edges, fnv %016llx", edges.size(),
                static_cast<unsigned long long>(h));
  return out + digest + "; first " + render(edges.front()) + "; last " + render(edges.back());
}

}  // namespace

TEST(WakeFabric, ReachabilityEdgeTable) {
  // Every reachability edge the fabric reports over a day of the
  // netsim-failover fleet, pinned per row.  The rule under test: checks
  // fall on s + k*I, where s is the install instant or the arrival of the
  // beat that ended an outage; a check counts a miss unless a beat arrived
  // since the one before; a beat arriving exactly on a check instant is
  // seen by it only if it was sent more than one interval earlier; after
  // miss_threshold consecutive misses the host is unreachable until the
  // next beat arrives.  The serialized rows have no NIC fault: their beats
  // queue behind each other in the switch pipe, arrive late and flap the
  // hosts, which exercises re-arming and same-instant ties.
  struct Row {
    u::SimTime interval;
    int miss;
    u::SimTime latency;
    u::SimTime serialization;
    std::int64_t fail_hour;     ///< -1: no NIC fault
    std::int64_t recover_hour;  ///< -1: never recovers
    const char* expected;
  };
  const std::vector<Row> rows = {
      // A healthy fleet never loses a host.
      {u::seconds(5), 3, 1, 0, -1, -1,
       "0.000 s, 0 failovers"},
      // Host 1's NIC fails at 06:00, and heals at 12:00 or never.
      {u::seconds(5), 1, 0, 0, 6, 12,
       "21595.000 s, 5 failovers; 5000 down 0; 5000 down 1; 5000 down 2; "
       "5000 down 3; 5000 up 0; 5000 up 1; 5000 up 2; 5000 up 3; "
       "21605000 down 1; 43200000 up 1"},
      {u::seconds(5), 1, 0, 0, 6, -1,
       "64795.000 s, 5 failovers; 5000 down 0; 5000 down 1; 5000 down 2; "
       "5000 down 3; 5000 up 0; 5000 up 1; 5000 up 2; 5000 up 3; "
       "21605000 down 1"},
      {u::seconds(5), 1, 1, 0, 6, 12,
       "21595.004 s, 5 failovers; 5000 down 0; 5000 down 1; 5000 down 2; "
       "5000 down 3; 5001 up 0; 5001 up 1; 5001 up 2; 5001 up 3; "
       "21605001 down 1; 43200001 up 1"},
      {u::seconds(5), 1, 1, 0, 6, -1,
       "64795.003 s, 5 failovers; 5000 down 0; 5000 down 1; 5000 down 2; "
       "5000 down 3; 5001 up 0; 5001 up 1; 5001 up 2; 5001 up 3; "
       "21605001 down 1"},
      {u::seconds(5), 3, 0, 0, 6, 12,
       "21585.000 s, 1 failovers; 21615000 down 1; 43200000 up 1"},
      {u::seconds(5), 3, 0, 0, 6, -1,
       "64785.000 s, 1 failovers; 21615000 down 1"},
      {u::seconds(5), 3, 1, 0, 6, 12,
       "21585.001 s, 1 failovers; 21615000 down 1; 43200001 up 1"},
      {u::seconds(5), 3, 1, 0, 6, -1,
       "64785.000 s, 1 failovers; 21615000 down 1"},
      // 7 s puts the 06:00 fault between two checks.
      {u::seconds(7), 1, 0, 0, 6, 12,
       "21595.000 s, 5 failovers; 7000 down 0; 7000 down 1; 7000 down 2; "
       "7000 down 3; 7000 up 0; 7000 up 1; 7000 up 2; 7000 up 3; "
       "21609000 down 1; 43204000 up 1"},
      {u::seconds(7), 1, 0, 0, 6, -1,
       "64791.000 s, 5 failovers; 7000 down 0; 7000 down 1; 7000 down 2; "
       "7000 down 3; 7000 up 0; 7000 up 1; 7000 up 2; 7000 up 3; "
       "21609000 down 1"},
      {u::seconds(7), 1, 1, 0, 6, 12,
       "21595.004 s, 5 failovers; 7000 down 0; 7000 down 1; 7000 down 2; "
       "7000 down 3; 7001 up 0; 7001 up 1; 7001 up 2; 7001 up 3; "
       "21609001 down 1; 43204001 up 1"},
      {u::seconds(7), 1, 1, 0, 6, -1,
       "64791.003 s, 5 failovers; 7000 down 0; 7000 down 1; 7000 down 2; "
       "7000 down 3; 7001 up 0; 7001 up 1; 7001 up 2; 7001 up 3; "
       "21609001 down 1"},
      {u::seconds(7), 3, 0, 0, 6, 12,
       "21581.000 s, 1 failovers; 21623000 down 1; 43204000 up 1"},
      {u::seconds(7), 3, 0, 0, 6, -1,
       "64777.000 s, 1 failovers; 21623000 down 1"},
      {u::seconds(7), 3, 1, 0, 6, 12,
       "21581.001 s, 1 failovers; 21623000 down 1; 43204001 up 1"},
      {u::seconds(7), 3, 1, 0, 6, -1,
       "64777.000 s, 1 failovers; 21623000 down 1"},
      // A one-hour outage is shorter than 3 x 30 min: two misses, no failover.
      {u::minutes(30), 3, 1, 0, 6, 7,
       "0.000 s, 0 failovers"},
      // No fault: serialized beats arrive late and flap the hosts.
      {u::seconds(1), 1, 1, 300, -1, -1,
       "11108.204 s, 54248 failovers; 108496 edges, fnv b1477c7644ef4acd; "
       "first 1000 down 0; last 86396501 up 3"},
      {u::seconds(1), 1, 40, 240, -1, -1,
       "391.560 s, 3510 failovers; 7020 edges, fnv 44e8b7c265e071f7; "
       "first 1000 down 0; last 86021000 up 3"},
      {u::seconds(1), 1, 50, 240, -1, -1,
       "404.120 s, 3575 failovers; 7150 edges, fnv 3baa4caf29a1a55d; "
       "first 1000 down 0; last 86184530 up 3"},
  };
  for (const Row& row : rows) {
    sc::ScenarioSpec spec = sc::ScenarioRegistry::builtin().at("netsim-failover");
    spec.net.hb_interval = row.interval;
    spec.net.hb_miss_threshold = row.miss;
    spec.net.port_latency = row.latency;
    spec.net.serialization = row.serialization;
    spec.net.nic_fail_host = row.fail_hour < 0 ? -1 : 1;
    spec.net.nic_fail_hour = row.fail_hour;
    spec.net.nic_recover_hour = row.recover_hour;
    SCOPED_TRACE(testing::Message()
                 << "interval=" << row.interval << " miss=" << row.miss
                 << " latency=" << row.latency << " serialization=" << row.serialization
                 << " fault=" << row.fail_hour << "-" << row.recover_hour);
    auto run = sc::build(spec, sc::Policy::DrowsyDc);
    std::vector<Edge> edges;
    run->net->add_on_reachability([&](drowsy::sim::HostId id, bool reachable) {
      edges.push_back({run->queue.now(), id, reachable});
    });
    run->controller->pretrain_models(static_cast<std::int64_t>(spec.pretrain_days) *
                                     u::kHoursPerDay);
    run->controller->run_hours(
        static_cast<std::int64_t>(spec.duration_days) * u::kHoursPerDay,
        [fabric = run->net.get()](std::int64_t h) { fabric->on_hour_end(h); });
    EXPECT_EQ(edge_summary(edges, run->net->host_unreachable_s(), run->net->stats().failovers),
              row.expected);
  }
}

TEST(WakeFabric, LateRecoveriesDecideWhereThePollDid) {
  // Beats 1 s apart through a busy 240 ms pipe arrive seconds late and flap
  // the hosts.  A failover lands before a suspend tick due on the same
  // instant exactly when the per-host poll's check there was scheduled
  // first, and the suspend decision then finds the host unreachable.  The
  // summed suspend statistics pin that order; decided after the suspend
  // tick, those checks would count as blocked by a running process.
  //   * Suspend ticks on the 1 s beat grid: a host whose recovering beat
  //     lands on a tick instant before that tick has its later checks
  //     ahead of every tick.
  //   * Suspend ticks every 700 ms: a host that recovered between ticks
  //     has its checks off the beat grid, each scheduled one interval
  //     ahead, so it fails over before a suspend tick scheduled after
  //     that lead instant and after one scheduled before it.
  struct Row {
    u::SimTime suspend_check_interval;
    const char* expected;
  };
  const std::vector<Row> rows = {
      {u::seconds(1),
       "391.560 s, 3510 failovers; 7020 edges, fnv 44e8b7c265e071f7; "
       "first 1000 down 0; last 86021000 up 3; checks 345600, running 345211"},
      {700,
       "391.560 s, 3510 failovers; 7020 edges, fnv 44e8b7c265e071f7; "
       "first 1000 down 0; last 86021000 up 3; checks 493712, running 493161"},
  };
  for (const Row& row : rows) {
    SCOPED_TRACE(row.suspend_check_interval);
    sc::ScenarioSpec spec = sc::ScenarioRegistry::builtin().at("netsim-failover");
    spec.net.hb_interval = u::seconds(1);
    spec.net.hb_miss_threshold = 1;
    spec.net.port_latency = 40;
    spec.net.serialization = 240;
    spec.net.nic_fail_host = -1;
    spec.suspend_check_interval = row.suspend_check_interval;
    auto run = sc::build(spec, sc::Policy::DrowsyDc);
    std::vector<Edge> edges;
    run->net->add_on_reachability([&](drowsy::sim::HostId id, bool reachable) {
      edges.push_back({run->queue.now(), id, reachable});
    });
    run->controller->pretrain_models(static_cast<std::int64_t>(spec.pretrain_days) *
                                     u::kHoursPerDay);
    run->controller->run_hours(
        static_cast<std::int64_t>(spec.duration_days) * u::kHoursPerDay,
        [fabric = run->net.get()](std::int64_t h) { fabric->on_hour_end(h); });
    std::uint64_t checks = 0;
    std::uint64_t running = 0;
    for (const auto& host : run->cluster.hosts()) {
      const drowsy::core::SuspendStats& st =
          run->controller->suspend_module(host->id()).stats();
      checks += st.checks;
      running += st.blocked_by_running;
    }
    EXPECT_EQ(edge_summary(edges, run->net->host_unreachable_s(), run->net->stats().failovers) +
                  "; checks " + std::to_string(checks) + ", running " + std::to_string(running),
              row.expected);
  }
}
