#include "core/suspend_module.hpp"

#include <cassert>
#include <cmath>

#include "util/log.hpp"
#include "util/math.hpp"

namespace drowsy::core {

namespace {
/// Sleeping for less than this is not worth the transition energy; it
/// would be suspend/resume thrash on the suspend side (the grace time
/// handles the resume side).
constexpr util::SimTime kMinWorthwhileSleep = util::seconds(30);
}  // namespace

SuspendModule::SuspendModule(sim::Host& host, sim::Cluster& cluster, ModelBuilder& models,
                             SuspendConfig config, kern::Blacklist blacklist)
    : host_(host),
      cluster_(cluster),
      models_(models),
      config_(config),
      blacklist_(std::move(blacklist)) {}

void SuspendModule::start() {
  if (running_ || !config_.enabled) return;
  running_ = true;
  schedule_next();
}

void SuspendModule::schedule_next() {
  cluster_.queue().schedule_after(
      config_.check_interval,
      [this] {
        check();
        schedule_next();
      },
      obs::EventTag::SuspendCheck);
}

bool SuspendModule::host_idle() const {
  for (const sim::Vm* vm : host_.vms()) {
    const kern::GuestOs& guest = vm->guest();
    if (guest.any_relevant_running(blacklist_)) return false;
    if (guest.any_blocked_on_io()) return false;
    if (guest.total_open_sessions() > 0) return false;
  }
  return true;
}

util::SimTime SuspendModule::compute_wake_date() const {
  util::SimTime earliest = util::kNever;
  for (const sim::Vm* vm : host_.vms()) {
    earliest = std::min(earliest, vm->guest().earliest_relevant_timer(blacklist_));
  }
  return earliest;
}

util::SimTime SuspendModule::grace_duration(const util::CalendarTime& c) const {
  // Normalized IP in [0,1]: 1 = determined idle -> short grace (g_min);
  // 0 = determined active -> long grace (g_max), exponential in between.
  // Raw IPs move at the σ scale, so "determined" is measured against the
  // configured multiple of σ (default 7σ, a week of constant activity).
  const double sigma = 1.0 / (365.0 * 24.0);
  const double scale = config_.grace_ip_scale_sigmas * sigma;
  const double raw = models_.host_ip(host_, c).raw;
  const double ipn = (util::clamp(raw / scale, -1.0, 1.0) + 1.0) / 2.0;
  const double g_min = static_cast<double>(config_.grace_min);
  const double g_max = static_cast<double>(config_.grace_max);
  const double g = g_min * std::pow(g_max / g_min, 1.0 - ipn);
  return static_cast<util::SimTime>(g);
}

void SuspendModule::on_host_wake() {
  if (!config_.use_grace_time) return;
  const util::CalendarTime c = util::calendar_of(cluster_.queue().now());
  grace_until_ = cluster_.queue().now() + grace_duration(c);
}

void SuspendModule::check() {
  ++stats_.checks;
  if (!config_.enabled || host_.state() != sim::PowerState::S0) return;
  // A heartbeat-partitioned host must stay up: its NIC could not deliver
  // the WoL frame that would ever bring it back from S3.
  if (!host_.reachable()) return;
  if (config_.only_empty_hosts && !host_.vms().empty()) {
    ++stats_.blocked_by_running;
    return;
  }
  const util::SimTime now = cluster_.queue().now();
  if (config_.use_grace_time && now < grace_until_) {
    ++stats_.blocked_by_grace;
    return;
  }

  // The idleness decision, with attribution for the statistics.
  for (const sim::Vm* vm : host_.vms()) {
    const kern::GuestOs& guest = vm->guest();
    if (guest.any_relevant_running(blacklist_)) {
      ++stats_.blocked_by_running;
      return;
    }
    if (guest.any_blocked_on_io()) {
      ++stats_.blocked_by_io;
      return;
    }
    if (guest.total_open_sessions() > 0) {
      ++stats_.blocked_by_sessions;
      return;
    }
  }

  const util::SimTime wake_date = compute_wake_date();
  if (wake_date != util::kNever &&
      wake_date - now < kMinWorthwhileSleep + host_.power_model().suspend_latency) {
    ++stats_.blocked_by_imminent_timer;
    return;
  }

  ++stats_.suspends;
  DROWSY_LOG_DEBUG("suspend", "%s suspending; wake date %s", host_.name().c_str(),
                   wake_date == util::kNever ? "none"
                                             : util::format_duration(wake_date).c_str());
  if (waking_ != nullptr) waking_->on_host_suspending(host_, wake_date);
  host_.begin_suspend();
}

}  // namespace drowsy::core
