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
  const util::SimTime now = cluster_.queue().now();
  links_.assign(n, Link{.origin = now,
                        .deadline = now + config_.hb_miss_threshold * config_.hb_interval});
  for (const auto& host : cluster_.hosts()) mac_to_host_[host->mac()] = host->id();

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
    if (target < links_.size() && links_[target].nic_down) {
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
    // Only beats are addressed to the monitor port.  One that arrives
    // exactly one interval after it was sent, on a tick instant before
    // that tick ran, waits for the tick to receive it in host order.
    switch_.attach_port(monitor_mac_, [this](const net::Packet& p) {
      ++stats_.beats_delivered;
      const auto id = static_cast<sim::HostId>(p.id);
      const util::SimTime at = cluster_.queue().now();
      if (at == next_tick_ && at - p.sent_at == config_.hb_interval) {
        links_[id].beat_waiting = true;
      } else {
        receive_beat(id, p.sent_at);
      }
    });
    switch_.bind_ip(monitor_ip_, monitor_mac_);
    schedule_beat_tick();
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

void WakeFabric::schedule_beat_tick() {
  // Self-rescheduling forever; the run simply stops consuming events at
  // its end time.
  next_tick_ = cluster_.queue().now() + config_.hb_interval;
  cluster_.queue().schedule_at(next_tick_, [this] { beat_tick(); }, obs::EventTag::Heartbeat);
}

void WakeFabric::beat_tick() {
  const util::SimTime now = cluster_.queue().now();
  // Host by host: the check due now, the host's previous beat if it
  // arrived exactly now, and its next beat.  The WoL-capable management
  // NIC stays powered in S3 (paper §V-A), so suspended hosts keep beating
  // — only a failed NIC goes silent.
  net::Packet beat;
  beat.kind = net::PacketKind::Heartbeat;
  beat.dst = monitor_ip_;
  beat.size_bytes = 64;
  for (sim::HostId id = 0; id < links_.size(); ++id) {
    Link& link = links_[id];
    fail_over_if_due(id);
    if (link.beat_waiting) {
      link.beat_waiting = false;
      receive_beat(id, now - config_.hb_interval);
    }
    // Only a deadline off the tick grid (the host recovered between ticks)
    // can lead between two ticks; receive_beat() leads one set later.
    const util::SimTime lead = link.deadline - config_.hb_interval;
    if (lead > now && lead < now + config_.hb_interval) lead_off_grid_deadline(id);
    if (link.nic_down) continue;
    beat.id = id;
    switch_.inject(beat);
  }
  // Scheduled after the beats, so a beat arriving exactly one interval
  // later runs first and waits for that tick's turn.
  schedule_beat_tick();
}

void WakeFabric::lead_off_grid_deadline(sim::HostId id) {
  // A poll scheduled each check from the one before, an interval earlier.
  // Scheduled from there, the failover event keeps the check's place among
  // the other events due at the deadline (a suspend tick, a planned wake).
  cluster_.queue().schedule_at(
      links_[id].deadline - config_.hb_interval,
      [this, id] {
        cluster_.queue().schedule_after(config_.hb_interval, [this, id] { fail_over_if_due(id); },
                                        obs::EventTag::Heartbeat);
      },
      obs::EventTag::Heartbeat);
}

void WakeFabric::early_tick() {
  // Scheduled from the first early recovery, so it runs ahead of every
  // later tick; it lives as long as an early host stays reachable.
  bool rearm = false;
  for (sim::HostId id = 0; id < links_.size(); ++id) {
    if (!links_[id].early) continue;
    fail_over_if_due(id);
    rearm = rearm || links_[id].early;
  }
  if (rearm) schedule_early_tick();
}

void WakeFabric::schedule_early_tick() {
  cluster_.queue().schedule_after(config_.hb_interval, [this] { early_tick(); },
                                  obs::EventTag::Heartbeat);
}

void WakeFabric::fail_over_if_due(sim::HostId id) {
  Link& link = links_[id];
  const util::SimTime now = cluster_.queue().now();
  // Not due, or a beat counted since the deadline was led moved it on.
  if (link.unreachable || link.deadline != now) return;
  ++stats_.failovers;
  link.unreachable = true;
  link.early = false;
  link.unreachable_since = now;
  sim::Host* host = cluster_.host(id);
  host->set_reachable(false);
  DROWSY_LOG_INFO("netsim", "%s declared unreachable", host->name().c_str());
  for (const auto& hook : on_reachability_) hook(id, false);
}

void WakeFabric::receive_beat(sim::HostId id, util::SimTime sent_at) {
  Link& link = links_[id];
  const util::SimTime now = cluster_.queue().now();
  const util::SimTime interval = config_.hb_interval;
  if (link.unreachable) {
    // Recovery: close the outage interval and re-arm the checks on this
    // arrival; the first of them counts this beat.
    link.unreachable = false;
    unreachable_accum_ += now - link.unreachable_since;
    link.origin = now;
    // The early tick is pending exactly while some host is early.
    const bool early_tick_pending =
        std::any_of(links_.begin(), links_.end(), [](const Link& l) { return l.early; });
    link.early = now == next_tick_ && now - sent_at > interval;
    if (link.early && !early_tick_pending) schedule_early_tick();
    sim::Host* host = cluster_.host(id);
    host->set_reachable(true);
    DROWSY_LOG_INFO("netsim", "%s reachable again after %s", host->name().c_str(),
                    util::format_duration(now - link.unreachable_since).c_str());
    for (const auto& hook : on_reachability_) hook(id, true);
    if (host->state() != sim::PowerState::S0) {
      // A wake sent during the outage died on the wire; retransmit.
      ++stats_.recovery_wakes;
      wol_.send(host->mac());
    }
  }
  // The first check after the arrival counts the beat.  One on the arrival
  // instant counts it only if it was sent more than an interval earlier; a
  // check and a beat sent on the same tick judge that check first.  Each
  // counted beat pushes failover miss_threshold checks on.
  const util::SimTime since = now - link.origin;
  util::SimTime counted = link.origin + (since / interval + 1) * interval;
  if (since > 0 && since % interval == 0 && now - sent_at > interval) counted = now;
  link.deadline = counted + config_.hb_miss_threshold * interval;
  // A deadline whose lead falls before the pending tick was set too late
  // for the last tick to lead it (off the tick grid, miss_threshold 1).
  if (link.deadline - interval < next_tick_) lead_off_grid_deadline(id);
}

void WakeFabric::set_nic_down(sim::HostId id, bool down) {
  links_[id].nic_down = down;
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
  for (const Link& link : links_) {
    if (link.unreachable) total += now - link.unreachable_since;
  }
  return static_cast<double>(total) / 1000.0;
}

}  // namespace drowsy::netsim
