// Network-in-the-loop wake fabric.
//
// Ties the pieces the simulation already had — net::SdnSwitch ports per
// host NIC and net::WolSender magic packets — into a closed loop on the
// shared event queue:
//
//   * one fleet beat tick per `hb_interval` sends every healthy host NIC's
//     heartbeat frame through the switch to a reserved monitor port.  A
//     host is declared unreachable after `hb_miss_threshold` missed
//     intervals, on a computed deadline rather than a per-host poll (see
//     "The reachability deadline" in docs/netsim.md).  Unreachable hosts
//     are excluded from placement (sim::Host::can_host fails) and from
//     suspension until the next beat arrives;
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
// beat tick and the planner iterate hosts in id order.  The (spec,
// policy, seed) contract of scenario runs is preserved.
#pragma once

#include <cstdint>
#include <functional>
#include <unordered_map>
#include <vector>

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

/// Fabric counters for tests and logs.  Only wol_frames() and
/// host_unreachable_s() reach RunResult.
struct FabricStats {
  std::uint64_t planned_wakes = 0;      ///< planner-released WoL frames
  std::uint64_t recovery_wakes = 0;     ///< WoL retransmits on NIC recovery
  std::uint64_t beats_delivered = 0;
  std::uint64_t requests_dropped = 0;   ///< frames lost to a downed NIC
  std::uint64_t wol_dropped = 0;
  std::uint64_t failovers = 0;          ///< unreachable declarations
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

  /// Wire the monitor port, the beat tick, the NIC-down drop analyzer
  /// and the fault schedule.  Call once, after Controller::install()
  /// (analyzers run in installation order; the waking module must see
  /// frames first, as on the real switch).
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
  /// Per-host NIC and reachability state.
  struct Link {
    bool nic_down = false;
    bool unreachable = false;
    util::SimTime unreachable_since = 0;
    /// Checks fall on origin + k * hb_interval: the install instant, or
    /// the arrival of the beat that ended the last outage.
    util::SimTime origin = 0;
    /// The check that declares the host unreachable unless a beat
    /// arriving before it is counted first.
    util::SimTime deadline = 0;
    /// Recovered on a tick instant before that tick ran: its checks then
    /// come before every later tick's, so the early tick decides them.
    bool early = false;
    /// A beat arrived exactly one interval after it was sent, on a tick
    /// instant before that tick ran; the tick receives it in host order.
    bool beat_waiting = false;
  };

  void schedule_beat_tick();
  void beat_tick();
  void early_tick();
  void schedule_early_tick();
  void lead_off_grid_deadline(sim::HostId id);
  void fail_over_if_due(sim::HostId id);
  void receive_beat(sim::HostId id, util::SimTime sent_at);
  void set_nic_down(sim::HostId id, bool down);

  sim::Cluster& cluster_;
  net::SdnSwitch& switch_;
  FabricConfig config_;
  net::WolSender wol_;
  ActivityPredictor predictor_;

  net::MacAddress monitor_mac_{};
  net::Ipv4 monitor_ip_{};
  std::unordered_map<net::MacAddress, sim::HostId> mac_to_host_;
  std::vector<Link> links_;  // by host id
  util::SimTime next_tick_ = 0;  ///< instant of the pending beat tick
  util::SimTime unreachable_accum_ = 0;
  FabricStats stats_;
  std::vector<std::function<void(sim::HostId, bool)>> on_reachability_;
  bool installed_ = false;
};

}  // namespace drowsy::netsim
