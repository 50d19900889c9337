#include "netsim/wake_fabric.hpp"

#include <algorithm>
#include <cassert>

#include "util/log.hpp"

namespace drowsy::netsim {

namespace {
// Reserved L2/L3 identity of the fabric's monitor port.  Host indices are
// dense and small, so the all-ones index can never collide with a real NIC.
constexpr std::uint32_t kMonitorIndex = 0xFFFFFFFFu;
}  // namespace

WakeFabric::WakeFabric(sim::Cluster& cluster, net::SdnSwitch& sw, FabricConfig config)
    : cluster_(cluster), switch_(sw), config_(config), wol_(sw) {
  monitor_mac_ = net::MacAddress::for_host(kMonitorIndex);
  monitor_ip_ = net::Ipv4{kMonitorIndex};
}

void WakeFabric::install() {
  assert(!installed_ && "install() must run once");
  installed_ = true;

  const std::size_t n = cluster_.hosts().size();
  nic_down_.assign(n, false);
  unreachable_.assign(n, false);
  unreachable_since_.assign(n, 0);
  for (const auto& host : cluster_.hosts()) {
    mac_to_host_[host->mac()] = host->id();
    // Chained observer: must compose with the suspend checker's hook.
    host->add_on_wake([this] { ++stats_.resumes_observed; });
  }

  // Frames addressed to a downed NIC vanish on the wire: requests, wakes
  // and beats alike.  Installed after the waking module's analyzer, which
  // may have answered a doomed request with a doomed WoL — the recovery
  // retransmit below heals that case.
  switch_.add_analyzer([this](const net::Packet& p) {
    sim::HostId target = static_cast<sim::HostId>(-1);
    if (p.kind == net::PacketKind::WakeOnLan) {
      auto it = mac_to_host_.find(p.dst_mac);
      if (it != mac_to_host_.end()) target = it->second;
    } else if (p.kind == net::PacketKind::Request) {
      if (const net::MacAddress* mac = switch_.lookup_ip(p.dst)) {
        auto it = mac_to_host_.find(*mac);
        if (it != mac_to_host_.end()) target = it->second;
      }
    }
    if (target < nic_down_.size() && nic_down_[target]) {
      if (p.kind == net::PacketKind::WakeOnLan) {
        ++stats_.wol_dropped;
      } else {
        ++stats_.requests_dropped;
      }
      return net::AnalyzerVerdict::Drop;
    }
    return net::AnalyzerVerdict::Forward;
  });

  if (config_.heartbeat) {
    switch_.attach_port(monitor_mac_, [this](const net::Packet& p) {
      if (p.kind == net::PacketKind::Heartbeat) on_beat(static_cast<sim::HostId>(p.id));
    });
    switch_.bind_ip(monitor_ip_, monitor_mac_);
    net::HeartbeatConfig hb;
    hb.interval = config_.hb_interval;
    hb.miss_threshold = config_.hb_miss_threshold;
    for (const auto& host : cluster_.hosts()) {
      const sim::HostId id = host->id();
      monitors_.push_back(std::make_unique<net::HeartbeatMonitor>(
          cluster_.queue(), hb, [this, id] { on_failover(id); }));
      monitors_.back()->start();
      emit_beats(id);
    }
  }

  if (config_.nic_fail_host >= 0) {
    const auto id = static_cast<sim::HostId>(config_.nic_fail_host);
    assert(id < n && "nic_fail_host out of range");
    if (config_.nic_fail_hour >= 0) {
      cluster_.queue().schedule_at(config_.nic_fail_hour * util::kMsPerHour,
                                   [this, id] { set_nic_down(id, true); },
                                   obs::EventTag::Heartbeat);
    }
    if (config_.nic_recover_hour >= 0) {
      cluster_.queue().schedule_at(config_.nic_recover_hour * util::kMsPerHour,
                                   [this, id] { set_nic_down(id, false); },
                                   obs::EventTag::Heartbeat);
    }
  }
}

void WakeFabric::emit_beats(sim::HostId id) {
  // Self-rescheduling forever; the run simply stops consuming events at
  // its end time.  The WoL-capable management NIC stays powered in S3
  // (paper §V-A), so suspended hosts keep beating — only a failed NIC
  // goes silent.
  cluster_.queue().schedule_after(
      config_.hb_interval,
      [this, id] {
        if (!nic_down_[id]) {
          net::Packet beat;
          beat.kind = net::PacketKind::Heartbeat;
          beat.dst = monitor_ip_;
          beat.size_bytes = 64;
          beat.id = id;
          switch_.inject(beat);
        }
        emit_beats(id);
      },
      obs::EventTag::Heartbeat);
}

void WakeFabric::on_beat(sim::HostId id) {
  ++stats_.beats_delivered;
  if (id >= monitors_.size()) return;
  if (unreachable_[id]) {
    // Recovery: close the outage interval and re-arm the monitor.
    unreachable_[id] = false;
    unreachable_accum_ += cluster_.queue().now() - unreachable_since_[id];
    sim::Host* host = cluster_.host(id);
    host->set_reachable(true);
    monitors_[id]->start();
    DROWSY_LOG_INFO("netsim", "%s reachable again after %s", host->name().c_str(),
                    util::format_duration(cluster_.queue().now() -
                                          unreachable_since_[id])
                        .c_str());
    for (const auto& hook : on_reachability_) hook(id, true);
    if (host->state() != sim::PowerState::S0) {
      // A wake sent during the outage died on the wire; retransmit.
      ++stats_.recovery_wakes;
      wol_.send(host->mac());
    }
  }
  monitors_[id]->beat_received();
}

void WakeFabric::on_failover(sim::HostId id) {
  ++stats_.failovers;
  unreachable_[id] = true;
  unreachable_since_[id] = cluster_.queue().now();
  sim::Host* host = cluster_.host(id);
  host->set_reachable(false);
  DROWSY_LOG_INFO("netsim", "%s declared unreachable", host->name().c_str());
  for (const auto& hook : on_reachability_) hook(id, false);
}

void WakeFabric::set_nic_down(sim::HostId id, bool down) {
  nic_down_[id] = down;
  DROWSY_LOG_INFO("netsim", "%s NIC %s", cluster_.host(id)->name().c_str(),
                  down ? "failed" : "recovered");
}

void WakeFabric::on_hour_end(std::int64_t hour) {
  if (!config_.planner) return;
  // Called at the hour boundary, after consolidation for `hour + 1` ran.
  // Pre-wake parked hosts whose residents are predicted active in the
  // coming hour: the storm's first requests then find the host in S0
  // instead of each paying the resume latency (plus, under contention,
  // the switch queueing delay of a synchronized WoL burst).
  const std::int64_t next = hour + 1;
  const util::SimTime now = cluster_.queue().now();
  std::vector<util::SimTime> in_flight;  // resume completion times
  util::SimTime slot = now;
  for (const auto& host_ptr : cluster_.hosts()) {
    sim::Host* host = host_ptr.get();
    if (host->state() == sim::PowerState::S0) continue;
    if (!host->reachable()) continue;
    if (!predictor_ || !predictor_(*host, next)) continue;

    util::SimTime release = slot;
    // Admission: at most wake_max_in_flight overlapping resumes...
    auto active_at = [&](util::SimTime t) {
      int active = 0;
      for (const util::SimTime end : in_flight) {
        if (end > t) ++active;
      }
      return active;
    };
    while (active_at(release) >= config_.wake_max_in_flight) {
      util::SimTime soonest = util::kNever;
      for (const util::SimTime end : in_flight) {
        if (end > release) soonest = std::min(soonest, end);
      }
      release = soonest;
    }
    // ...but never hold a wake past the admission window.
    release = std::min(release, now + config_.wake_admission_window);

    in_flight.push_back(release + host->resume_remaining());
    slot = release + config_.wake_stagger;
    ++stats_.planned_wakes;
    cluster_.queue().schedule_at(
        release,
        [this, host] {
          // The hour's first request may have raced us awake already.
          if (host->state() == sim::PowerState::S0 || !host->reachable()) return;
          wol_.send(host->mac());
        },
        obs::EventTag::Wake);
  }
}

double WakeFabric::host_unreachable_s() const {
  util::SimTime total = unreachable_accum_;
  const util::SimTime now = cluster_.queue().now();
  for (std::size_t i = 0; i < unreachable_.size(); ++i) {
    if (unreachable_[i]) total += now - unreachable_since_[i];
  }
  return static_cast<double>(total) / 1000.0;
}

}  // namespace drowsy::netsim
