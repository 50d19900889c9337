#include "sim/requests.hpp"

#include <gtest/gtest.h>

#include "trace/trace.hpp"

namespace s = drowsy::sim;
namespace n = drowsy::net;
namespace u = drowsy::util;
namespace t = drowsy::trace;

namespace {

struct FabricFixture : ::testing::Test {
  s::EventQueue q;
  s::Cluster cluster{q};
  n::SdnSwitch sw{q};
  s::RequestConfig cfg;

  FabricFixture() {
    cfg.base_rate_per_hour = 500.0;  // plenty of arrivals per active hour
  }
};

}  // namespace

TEST_F(FabricFixture, ActiveVmReceivesRequests) {
  auto& host = cluster.add_host(s::HostSpec{"P1", 8, 16384, 2});
  auto& vm = cluster.add_vm(s::VmSpec{"V1", 2, 6144}, t::ActivityTrace({0.5}));
  cluster.place(vm.id(), host.id());
  s::RequestFabric fabric(cluster, sw, cfg);
  fabric.wire_ports();
  fabric.schedule_hour(0);
  q.run_until(u::kMsPerHour);
  EXPECT_GT(fabric.stats().total, 50u);
  EXPECT_EQ(fabric.stats().woke_host, 0u);
  EXPECT_EQ(fabric.stats().lost, 0u);
  // Awake host, no wake penalty: every request is fast.
  EXPECT_GT(fabric.stats().sla_attainment(200.0), 0.999);
}

TEST_F(FabricFixture, IdleVmReceivesNothing) {
  auto& host = cluster.add_host(s::HostSpec{"P1", 8, 16384, 2});
  auto& vm = cluster.add_vm(s::VmSpec{"V1", 2, 6144}, t::ActivityTrace({0.0}));
  cluster.place(vm.id(), host.id());
  s::RequestFabric fabric(cluster, sw, cfg);
  fabric.wire_ports();
  fabric.schedule_hour(0);
  q.run_until(u::kMsPerHour);
  EXPECT_EQ(fabric.stats().total, 0u);
}

TEST_F(FabricFixture, UnplacedVmIgnored) {
  cluster.add_host(s::HostSpec{"P1", 8, 16384, 2});
  cluster.add_vm(s::VmSpec{"V1", 2, 6144}, t::ActivityTrace({1.0}));
  s::RequestFabric fabric(cluster, sw, cfg);
  fabric.wire_ports();
  fabric.schedule_hour(0);
  q.run_until(u::kMsPerHour);
  EXPECT_EQ(fabric.stats().total, 0u);
}

TEST_F(FabricFixture, RequestToSuspendedHostWaitsForWake) {
  auto& host = cluster.add_host(s::HostSpec{"P1", 8, 16384, 2});
  auto& vm = cluster.add_vm(s::VmSpec{"V1", 2, 6144}, t::ActivityTrace({0.3}));
  cluster.place(vm.id(), host.id());
  s::RequestFabric fabric(cluster, sw, cfg);
  fabric.wire_ports();

  host.begin_suspend();
  q.run_all();
  ASSERT_EQ(host.state(), s::PowerState::S3);

  // One request arrives at t+60 s; a WoL follows at t+61 s (as the waking
  // module would send).  The request completes only after the resume.
  n::Packet req;
  req.kind = n::PacketKind::Request;
  req.dst = vm.ip();
  q.schedule_at(u::minutes(1), [&] { sw.inject(req); });
  n::Packet wol;
  wol.kind = n::PacketKind::WakeOnLan;
  wol.dst_mac = host.mac();
  q.schedule_at(u::minutes(1) + u::seconds(1), [&] { sw.inject(wol); });

  q.run_until(u::minutes(2));
  EXPECT_EQ(host.state(), s::PowerState::S0);
  ASSERT_EQ(fabric.stats().total, 1u);
  EXPECT_EQ(fabric.stats().woke_host, 1u);
  // Latency ≥ 1 s of WoL delay + 1.5 s resume.
  EXPECT_GE(fabric.stats().wake_latencies_ms.quantile(1.0), 2500.0);
}

TEST_F(FabricFixture, WolPacketResumesHost) {
  auto& host = cluster.add_host(s::HostSpec{"P1", 8, 16384, 2});
  s::RequestFabric fabric(cluster, sw, cfg);
  fabric.wire_ports();
  host.begin_suspend();
  q.run_all();
  n::Packet wol;
  wol.kind = n::PacketKind::WakeOnLan;
  wol.dst_mac = host.mac();
  sw.inject(wol);
  q.run_all();
  EXPECT_EQ(host.state(), s::PowerState::S0);
  EXPECT_EQ(host.resume_count(), 1);
}

TEST_F(FabricFixture, StaleForwardingCountsAsLost) {
  auto& h1 = cluster.add_host(s::HostSpec{"P1", 8, 16384, 2});
  auto& h2 = cluster.add_host(s::HostSpec{"P2", 8, 16384, 2});
  auto& vm = cluster.add_vm(s::VmSpec{"V1", 2, 6144}, t::ActivityTrace({0.5}));
  cluster.place(vm.id(), h1.id());
  s::RequestFabric fabric(cluster, sw, cfg);
  fabric.wire_ports();
  // VM migrates, but with no on_placement hook installed the switch
  // binding stays stale (the paper only refreshes mappings on suspension).
  ASSERT_TRUE(cluster.migrate(vm.id(), h2.id()));
  n::Packet req;
  req.kind = n::PacketKind::Request;
  req.dst = vm.ip();
  sw.inject(req);
  q.run_all();
  EXPECT_EQ(fabric.stats().lost, 1u);
  EXPECT_EQ(fabric.stats().total, 0u);
}

TEST_F(FabricFixture, RatesScaleWithActivity) {
  auto& host = cluster.add_host(s::HostSpec{"P1", 16, 32768, 4});
  auto& busy = cluster.add_vm(s::VmSpec{"busy", 2, 6144}, t::ActivityTrace({1.0}));
  auto& quiet = cluster.add_vm(s::VmSpec{"quiet", 2, 6144}, t::ActivityTrace({0.1}));
  cluster.place(busy.id(), host.id());
  cluster.place(quiet.id(), host.id());
  s::RequestFabric fabric(cluster, sw, cfg);
  fabric.wire_ports();
  for (std::int64_t h = 0; h < 20; ++h) {
    fabric.schedule_hour(h);
    q.run_until((h + 1) * u::kMsPerHour);
  }
  // busy sees ~500/h, quiet ~50/h; with 20 hours the totals separate.
  EXPECT_GT(fabric.stats().total, 20u * 300u);
}
