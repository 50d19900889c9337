// Network-in-the-loop wake fabric.
//
// Ties the pieces the simulation already had — net::SdnSwitch ports per
// host NIC, net::WolSender magic packets, net::HeartbeatMonitor — into a
// closed loop on the shared event queue:
//
//   * every host NIC emits a heartbeat frame through the switch to a
//     reserved monitor port; a per-host HeartbeatMonitor declares the host
//     unreachable after `hb_miss_threshold` missed intervals.  Unreachable
//     hosts are excluded from placement (sim::Host::can_host fails) and
//     from suspension until the next beat arrives;
//   * a declarative NIC fault (host, fail hour, recover hour) silences the
//     host's beats and drops every frame addressed to it — requests and
//     WoL wakes alike — while the fault lasts.  On recovery the fabric
//     retransmits a WoL if the host is still parked, healing a wake lost
//     during the outage;
//   * an optional staggered-wake planner (the DrowsyNetBatch policy arm):
//     at each hour boundary it pre-wakes suspended hosts whose resident
//     VMs are predicted active in the coming hour, releasing WoL frames
//     spaced by `wake_stagger` with at most `wake_max_in_flight`
//     concurrent resumes, but never holding a wake longer than
//     `wake_admission_window`.
//
// Determinism: all state advances in event order on the one queue; the
// planner iterates hosts in id order.  The (spec, policy, seed) contract
// of scenario runs is preserved.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <unordered_map>
#include <vector>

#include "net/heartbeat.hpp"
#include "net/sdn_switch.hpp"
#include "net/wol.hpp"
#include "sim/cluster.hpp"
#include "util/sim_time.hpp"

namespace drowsy::netsim {

/// Runtime knobs (the scenario layer fills this from its serialized
/// NetSpec; keeping the struct here leaves netsim usable without the
/// scenario layer).
struct FabricConfig {
  // Heartbeat-based reachability tracking.
  bool heartbeat = false;
  util::SimTime hb_interval = util::seconds(5);
  int hb_miss_threshold = 3;
  // Declarative NIC fault injection; -1 disables.
  int nic_fail_host = -1;
  std::int64_t nic_fail_hour = -1;
  std::int64_t nic_recover_hour = -1;  ///< -1 = never recovers
  // Staggered-wake admission planner (DrowsyNetBatch).
  bool planner = false;
  int wake_max_in_flight = 2;
  util::SimTime wake_stagger = 200;                      ///< ms between releases
  util::SimTime wake_admission_window = util::seconds(5);  ///< max hold per wake
};

/// Aggregate fabric counters harvested into RunResult.
struct FabricStats {
  std::uint64_t planned_wakes = 0;      ///< planner-released WoL frames
  std::uint64_t recovery_wakes = 0;     ///< WoL retransmits on NIC recovery
  std::uint64_t beats_delivered = 0;
  std::uint64_t requests_dropped = 0;   ///< frames lost to a downed NIC
  std::uint64_t wol_dropped = 0;
  std::uint64_t failovers = 0;          ///< unreachable declarations
  std::uint64_t resumes_observed = 0;   ///< via the chained host wake hook
};

class WakeFabric {
 public:
  /// Should `host` be woken ahead of `hour`?  The scenario layer wires
  /// this to the controller's idleness models (core::ModelBuilder), so
  /// netsim itself never depends on the core layer.
  using ActivityPredictor = std::function<bool(const sim::Host&, std::int64_t hour)>;

  WakeFabric(sim::Cluster& cluster, net::SdnSwitch& sw, FabricConfig config);

  void set_activity_predictor(ActivityPredictor predictor) {
    predictor_ = std::move(predictor);
  }

  /// Wire the monitor port, per-host beat emitters and monitors, the
  /// NIC-down drop analyzer and the fault schedule.  Call once, after
  /// Controller::install() (analyzers run in installation order; the
  /// waking module must see frames first, as on the real switch).
  void install();

  /// Planner hook; drive from scenario::run_one's on_hour_end callback.
  void on_hour_end(std::int64_t hour);

  /// Append an observer of reachability changes: invoked when a host is
  /// declared unreachable (`reachable == false`, i.e. a heartbeat-loss
  /// failover) and when a beat brings it back.  Composes like
  /// sim::Host::add_on_wake; the timeline exporter stamps heartbeat
  /// losses and recoveries through this.
  void add_on_reachability(std::function<void(sim::HostId, bool reachable)> hook) {
    on_reachability_.push_back(std::move(hook));
  }

  [[nodiscard]] const FabricStats& stats() const { return stats_; }
  /// WoL frames the fabric itself injected (planner + recovery).
  [[nodiscard]] std::uint64_t wol_frames() const { return wol_.sent_count(); }
  /// Total host-seconds spent unreachable (closed + still-open intervals).
  [[nodiscard]] double host_unreachable_s() const;

 private:
  void emit_beats(sim::HostId id);
  void on_beat(sim::HostId id);
  void on_failover(sim::HostId id);
  void set_nic_down(sim::HostId id, bool down);

  sim::Cluster& cluster_;
  net::SdnSwitch& switch_;
  FabricConfig config_;
  net::WolSender wol_;
  ActivityPredictor predictor_;

  net::MacAddress monitor_mac_{};
  net::Ipv4 monitor_ip_{};
  std::unordered_map<net::MacAddress, sim::HostId> mac_to_host_;
  std::vector<std::unique_ptr<net::HeartbeatMonitor>> monitors_;  // by host id
  std::vector<bool> nic_down_;
  std::vector<bool> unreachable_;
  std::vector<util::SimTime> unreachable_since_;
  util::SimTime unreachable_accum_ = 0;
  FabricStats stats_;
  std::vector<std::function<void(sim::HostId, bool)>> on_reachability_;
  bool installed_ = false;
};

}  // namespace drowsy::netsim
